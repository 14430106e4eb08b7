"""Finite-parameter Lie group actions on the prolongation space.

An action is given by closed-form transformation maps for the base
coordinates, a composition/inverse law in parameter coordinates, its
infinitesimal generators, and a hand-coded adjoint representation matrix.
Everything downstream (prolongation to shifted and differentiated
coordinates, transformation of variation slots, the defining identities of
the adjoint matrix) is derived mechanically and verified numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .expr import (
    Assignment,
    ExprError,
    Param,
    Var,
    XVar,
    ZERO,
    _rebuild,
    _table,
    add,
    as_expr,
    evaluate,
    fieldvars,
    mul,
    partial,
    substitute,
    t_derivative,
    total_derivative,
)
from .calculus import prolong
from .sampling import relative_residual

__all__ = [
    "Generator",
    "GroupAction",
    "transform",
    "invariance_residual",
    "prolong_generator",
    "generator_apply",
    "SYMMETRY_TOL",
    "check_variational_symmetry",
    "adjoint_matrix",
]

SYMMETRY_TOL = 1e-9


@dataclass(frozen=True, eq=False, repr=False)
class Generator:
    """Infinitesimal generator xi(x) d/dx + Q^alpha d/du^alpha in characteristic form."""

    Q: dict
    xi: object = ZERO
    name: str = ""
    note: str = ""  # printed under its law by the ``noether`` command

    def q_of(self, fname):
        return self.Q.get(fname, ZERO)


@dataclass(frozen=True, eq=False, repr=False)
class GroupAction:
    """A group action in parameter coordinates: the maps of u and x, its law and generators."""

    name: str
    sig: object
    param_names: tuple
    identity_values: tuple
    u_maps: dict
    x_map: object = None
    compose_fn: object = None
    inverse_fn: object = None
    generators: tuple = ()
    adjoint_rep: tuple = ()
    chart_fn: object = None
    sample_fn: object = None

    def __post_init__(self):
        # transform() substitutes parameters by name, problem parameters too
        shared = set(self.param_names) & set(self.sig.params)
        if shared:
            raise ValueError(f"group parameters named like problem parameters: {sorted(shared)}")
        # the lattice has one x~, which Frame.projectable assumes reads no field
        if self.x_map is not None and fieldvars(self.x_map):
            raise ValueError(f"x_map reads fields: {sorted(map(str, fieldvars(self.x_map)))}")

    @property
    def n_params(self):
        return len(self.param_names)

    @property
    def group_dim(self):
        """Dimension R of the group (the parameter chart may use more
        coordinates, e.g. an angle stored as cosine and sine)."""
        return len(self.generators)

    def compose(self, g1, g2):
        """Product g1 * g2 (apply g2 first); works on floats or expressions."""
        return tuple(self.compose_fn(g1, g2))

    def inverse(self, g):
        return tuple(self.inverse_fn(g))

    def random_element(self, rng):
        if self.sample_fn is not None:
            return self.sample_fn(rng)
        return tuple(float(rng.uniform(-0.8, 0.8)) + v for v in self.identity_values)

    def at_elements(self, a, gs):
        """``(g, a with g)``: the elements ``gs`` as parameter columns of shape
        ``(len(gs), 1)``, which broadcast against the points of ``a``."""
        g = tuple(np.array(gs, dtype=float).T[:, :, None])
        return g, replace(a, params={**a.params, **dict(zip(self.param_names, g))})


def _base_image(action, fname):
    """The image of the field ``fname`` at the base point under the action.

    A variation slot's image is the t-derivative of its field's map.
    """
    if fname in action.u_maps:
        return action.u_maps[fname]
    base = next((f for f, w in action.sig.variations.items() if w == fname), None)
    if base is None:
        raise ExprError(f"action {action.name} has no map for field {fname!r}")
    return t_derivative(action.u_maps[base], action.sig)


def transform(e, action, gvalues):
    """Pull ``e`` back through the prolonged action of the group element.

    ``gvalues`` are the parameter coordinates, numeric or expressions; each
    field coordinate is prolonged from its base image (derivatives through
    D(transformed)/D(x_transformed), shifts through S_K) and the
    parameters are substituted last, so invariantization can pass the frame
    parameter expressions directly.
    """
    sig = action.sig
    if len(gvalues) != action.n_params:
        raise ExprError(f"action {action.name} takes {action.n_params} parameters")

    def d(e, sig):
        if action.x_map is None:
            raise ExprError("derivative coordinates need an action on x")
        return total_derivative(e, sig) / total_derivative(action.x_map, sig)

    def leaf(node):
        if isinstance(node, Var):
            return prolong(_base_image(action, node.fv.name), node.fv, sig, d)
        return action.x_map if isinstance(node, XVar) else None

    # the pulled-back nodes depend on the action alone
    out = _rebuild(e, leaf, _table(("transform", id(action)), action))
    params = {name: as_expr(v) for name, v in zip(action.param_names, gvalues)}
    return substitute(out, {}, param_rules=params)


def invariance_residual(e, action, plan, rng, n_group):
    """Max relative residual of e(g.z) = e(z) over the plan's points.

    ``e`` is pulled back once with symbolic group coordinates; the
    ``n_group`` elements drawn from ``rng`` then enter as parameter columns,
    so one evaluation compares every element at every point.  An empty point
    set or a NaN gives NaN.
    """
    moved = transform(e, action, [Param(p) for p in action.param_names])

    def residual(a):
        _, at = action.at_elements(a, [action.random_element(rng) for _ in range(n_group)])
        base = evaluate(e, a)
        return evaluate(moved, at) - base, [base]

    return relative_residual(plan.assignments([e], action.sig), residual)


def prolong_generator(gen, fv, sig):
    """Coefficient of d/du_{j;K} in the prolonged generator: S_K D^j Q."""
    return prolong(gen.q_of(fv.name), fv, sig)


def generator_apply(gen, e, sig):
    """The prolonged generator applied to ``e``: xi D(e) + sum (S_K D^j Q) dL/du."""
    parts = []
    if gen.xi != ZERO:
        parts.append(mul(gen.xi, total_derivative(e, sig)))
    for fv in sorted(fieldvars(e)):
        de = partial(e, fv)
        parts.append(mul(prolong_generator(gen, fv, sig), de))
    return add(*parts)


def check_variational_symmetry(L, gen, sig, plan):
    """Residual of v(L) = 0, or of v(L) + L D(xi) = 0 on a differential-difference problem.

    The max relative residual at the plan's points, NaN for an empty point
    set: ``gen`` is a variational symmetry when it is at most ``SYMMETRY_TOL``.
    Divergence symmetries (nonzero boundary B) are not classified.
    """
    expr = generator_apply(gen, L, sig)
    if sig.differential and gen.xi != ZERO:
        expr = add(expr, mul(L, total_derivative(gen.xi, sig)))
    return relative_residual(plan.assignments([expr, L], sig),
                             lambda a: (evaluate(expr, a), [evaluate(L, a)]))


def adjoint_matrix(action, gvalues):
    """Numeric adjoint representation matrix a^s_r(g), indexed [r][s]."""
    if action.chart_fn is not None and not action.chart_fn(gvalues):
        raise ExprError(f"group element {gvalues} outside the chart of {action.name}")
    a = Assignment({}, params=dict(zip(action.param_names, gvalues)))
    R = action.group_dim
    out = np.empty((R, R))
    for r in range(R):
        for s in range(R):
            out[r, s] = evaluate(action.adjoint_rep[r][s], a)
    return out
