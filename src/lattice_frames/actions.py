"""Finite-parameter Lie group actions on the prolongation space.

An action is registered with closed-form transformation maps for the base
coordinates, a composition/inverse law in parameter coordinates, its
infinitesimal generators, and a hand-coded adjoint representation matrix.
Everything downstream (prolongation to shifted and differentiated
coordinates, transformation of variation slots, the defining identities of
the adjoint matrix) is derived mechanically and verified numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import (
    Assignment,
    ExprError,
    ZERO,
    add,
    as_expr,
    evaluate,
    fieldvars,
    mul,
    partial,
    shift,
    substitute,
    t_derivative,
    total_derivative,
)
from .calculus import deriv_op
from .sampling import relative_residual

__all__ = [
    "Generator",
    "GroupAction",
    "transform",
    "prolong_generator",
    "generator_apply",
    "SymmetryResult",
    "check_variational_symmetry",
    "adjoint_matrix",
    "ACTIONS",
    "register_action",
    "get_action",
]


@dataclass(frozen=True)
class Generator:
    """Infinitesimal generator xi(x) d/dx + Q^alpha d/du^alpha in characteristic form."""

    Q: dict
    xi: object = None
    name: str = ""

    def q_of(self, fname):
        return self.Q.get(fname, ZERO)


@dataclass(frozen=True)
class GroupAction:
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

    def in_chart(self, g):
        return True if self.chart_fn is None else bool(self.chart_fn(g))


def _variation_map(action, wname, sig):
    base = next(f for f, w in sig.variations.items() if w == wname)
    return t_derivative(action.u_maps[base], sig)


def transform(e, action, gvalues, sig):
    """Pull ``e`` back through the prolonged action of the group element.

    ``gvalues`` are the parameter coordinates, numeric or expressions; the
    maps are prolonged recursively (derivative coordinates through
    D(transformed)/D(x_transformed), shifted coordinates through S_K) and the
    parameters are substituted last, so invariantization can pass the frame
    parameter expressions directly.
    """
    if len(gvalues) != action.n_params:
        raise ExprError(f"action {action.name} takes {action.n_params} parameters")
    needed = fieldvars(e)
    jac = None
    if action.x_map is not None:
        jac = total_derivative(action.x_map, sig)
    tilde = {}

    def tilde_map(fname, j):
        if (fname, j) in tilde:
            return tilde[(fname, j)]
        if j == 0:
            if fname in action.u_maps:
                out = action.u_maps[fname]
            elif fname in sig.variations.values():
                out = _variation_map(action, fname, sig)
            else:
                raise ExprError(f"action {action.name} has no map for field {fname!r}")
        else:
            if jac is None:
                raise ExprError("derivative coordinates need an action on x")
            out = total_derivative(tilde_map(fname, j - 1), sig) / jac
        tilde[(fname, j)] = out
        return out

    rules = {}
    for fv in needed:
        rules[fv] = shift(tilde_map(fv.name, fv.deriv), fv.shift, sig)
    out = substitute(e, rules, x_repl=action.x_map)
    params = {name: as_expr(v) for name, v in zip(action.param_names, gvalues)}
    return substitute(out, {}, param_rules=params)


def prolong_generator(gen, fv, sig):
    """Coefficient of d/du_{j;K} in the prolonged generator: S_K D^j Q."""
    q = gen.q_of(fv.name)
    if fv.deriv:
        q = deriv_op(q, sig, times=fv.deriv)
    return shift(q, fv.shift, sig)


def generator_apply(gen, e, sig):
    """The prolonged generator applied to ``e``: xi D(e) + sum (S_K D^j Q) dL/du."""
    parts = []
    if gen.xi is not None and not _is_syntactic_zero(gen.xi):
        parts.append(mul(gen.xi, total_derivative(e, sig)))
    for fv in sorted(fieldvars(e), key=lambda v: (v.name, v.deriv, v.shift)):
        de = partial(e, fv)
        parts.append(mul(prolong_generator(gen, fv, sig), de))
    return add(*parts)


def _is_syntactic_zero(e):
    from .expr import Const
    return isinstance(e, Const) and e.value == 0


@dataclass
class SymmetryResult:
    kind: str  # "invariant" | "not_symmetry"
    max_residual: float

    def __bool__(self):
        return self.kind == "invariant"


def check_variational_symmetry(L, gen, sig, plan, tol=1e-9):
    """Classify the generator: leaves L (or the one-form L dx) invariant, or not.

    Checks v(L) = 0 in the pure-difference case and v(L) + L D(xi) = 0 in
    the differential-difference case, numerically at the plan's points.
    Divergence symmetries (nonzero boundary B) are not classified.
    """
    expr = generator_apply(gen, L, sig)
    if sig.differential and gen.xi is not None and not _is_syntactic_zero(gen.xi):
        expr = add(expr, mul(L, total_derivative(gen.xi, sig)))
    worst = relative_residual(plan.assignments([expr, L], sig),
                              lambda a: (evaluate(expr, a), [evaluate(L, a)]))
    return SymmetryResult("invariant" if worst <= tol else "not_symmetry", worst)


def adjoint_matrix(action, gvalues):
    """Numeric adjoint representation matrix a^s_r(g), indexed [r][s]."""
    if not action.in_chart(gvalues):
        raise ExprError(f"group element {gvalues} outside the chart of {action.name}")
    a = Assignment({}, params=dict(zip(action.param_names, gvalues)))
    R = action.group_dim
    out = np.empty((R, R))
    for r in range(R):
        for s in range(R):
            out[r, s] = evaluate(action.adjoint_rep[r][s], a)
    return out


ACTIONS = {}


def register_action(action):
    ACTIONS[action.name] = action
    return action


def get_action(name):
    try:
        return ACTIONS[name]
    except KeyError:
        raise ExprError(f"unknown action {name!r}; registered: {sorted(ACTIONS)}")
