"""Difference and projectable differential-difference moving frames.

A frame is a catalog object: the normalization equations come with a
closed-form solution for the group parameters (no numeric root-finding).
This module builds and does not check: it returns expressions, and the
one residual the frame's right-equivariance needs, while the verification
suites compare them at random chart points and report the result.
Invariantization evaluates the transformed expression on the frame; the
generating invariants live in a separate expression space (the
"kappa space") linked to the original variables by an explicit expansion
table, because the invariantization operator does not commute with shifts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .actions import transform
from .calculus import LinDiffOp, apply_op, prolong, unit_step
from .expr import (
    ONE,
    ExprError,
    Param,
    _substitute_fields,
    add,
    evaluate,
    fieldvars,
    mul,
    nodes,
    shift,
    t_derivative,
    total_derivative,
)
from .sampling import relative_residual

__all__ = [
    "Frame",
    "invariantize",
    "maurer_cartan",
    "mc_concatenated",
    "right_equivariance_residual",
    "InvariantSet",
    "mc_element",
    "syzygy_operator_sides",
]


@dataclass(frozen=True, eq=False, repr=False)
class Frame:
    """Right moving frame in parameter coordinates.

    ``normalization`` lists (coordinate expression, constant) pairs; the
    ``param_exprs`` solve them in closed form on the chart.  ``dcal_inv`` is
    the reciprocal invariant volume factor, read by :meth:`dcal` and
    :attr:`jacobian_factor` (pure-difference frames keep the default 1).
    """

    name: str
    action: object
    normalization: tuple
    param_exprs: tuple
    dcal_inv: object = ONE

    @property
    def jacobian_factor(self):
        """iota(dx) = J dx; J is 1/dcal_inv for projectable frames."""
        return ONE / self.dcal_inv

    @property
    def projectable(self):
        """Group parameters entering the x-map depend on x alone on the frame."""
        if self.action.x_map is None:
            return True
        in_x = {n.name for n in nodes(self.action.x_map) if isinstance(n, Param)}
        for pname, pexpr in zip(self.action.param_names, self.param_exprs):
            if pname in in_x and fieldvars(pexpr):
                return False
        return True

    def dcal(self, e, sig):
        """One step of Dcal = dcal_inv * D, the one invariant derivative: the
        ``deriv`` that ``calculus.prolong``, ``deriv_op`` and ``apply_op`` take for Dcal."""
        return mul(self.dcal_inv, total_derivative(e, sig))


def invariantize(frame, e):
    """iota(e): the transformed expression evaluated on the frame."""
    return transform(e, frame.action, frame.param_exprs)


def maurer_cartan(frame, direction):
    """Parameter coordinates of (S_i rho) rho^{-1}; components are invariant."""
    return mc_element(frame, unit_step(direction, frame.action.sig.lattice_dim))


def mc_element(frame, offset):
    """(S_J rho) rho^{-1} for an arbitrary multi-index J."""
    shifted = tuple(shift(p, tuple(offset), frame.action.sig) for p in frame.param_exprs)
    return frame.action.compose(shifted, frame.action.inverse(frame.param_exprs))


def mc_concatenated(frame, i, j):
    """(S_j K_(i)) * K_(j): equals iota(S_i S_j rho) by the concatenation rule."""
    sig = frame.action.sig
    Ki = maurer_cartan(frame, i)
    Kj = maurer_cartan(frame, j)
    SKi = tuple(shift(p, unit_step(j, sig.lattice_dim), sig) for p in Ki)
    return frame.action.compose(SKi, Kj)


def right_equivariance_residual(frame, plan, n_group=10):
    """Worst relative residual of rho(g.z) = rho(z) g^{-1} over the plan's points.

    The frame parameters are pulled back once with symbolic group
    coordinates and compared against the composed element, for ``n_group``
    random g in the chart, all evaluated at once on all sample points.
    """
    action = frame.action
    rng = np.random.default_rng(np.random.PCG64(plan.seed + 1))
    gs = [action.random_element(rng) for _ in range(n_group)]
    symbolic = [Param(p) for p in action.param_names]
    moved = [transform(p, action, symbolic) for p in frame.param_exprs]

    def residual(a):
        g, at = action.at_elements(a, gs)
        rho = [evaluate(p, a) for p in frame.param_exprs]
        lhs = np.array([evaluate(p, at) for p in moved])
        rhs = np.array(action.compose(rho, action.inverse(g)))
        return lhs - rhs, (lhs, rhs)

    return relative_residual(plan.assignments(list(frame.param_exprs), action.sig), residual)


@dataclass(eq=False, repr=False)
class InvariantSet:
    """Generating invariants of a frame plus the machinery linking the two
    expression spaces.

    ``kappa_defs``/``sigma_defs`` give each generator in original variables
    (sigma definitions involve the variation slot fields).  ``recurrence``
    maps an original-space FieldVar to its invariantization written in
    kappa symbols; ``syzygies`` are (name, lhs, rhs) kappa-space pairs.
    ``H`` is the syzygy operator matrix H[beta][alpha] with kappa-space
    coefficients: d(kappa^beta)/dt = H^beta_alpha sigma^alpha.
    """

    frame: object
    kappa_sig: object
    kappa_defs: dict
    sigma_defs: dict = field(default_factory=dict)
    sigma_fields: dict = field(default_factory=dict)
    recurrence: object = None
    syzygies: tuple = ()
    H: dict = field(default_factory=dict)

    @property
    def orig_sig(self):
        """The signature of the original variables: the frame action's."""
        return self.frame.action.sig

    @property
    def kappa_names(self):
        return tuple(self.kappa_defs)

    @property
    def sigma_names(self):
        return tuple(self.sigma_defs)

    def expand_var(self, fv):
        """Original-variable expression for one kappa-space coordinate, or None.

        kappa_{j;K} is :func:`prolong` of the definition of kappa with the
        invariant derivative: on a projectable frame Dcal commutes with the
        shifts, so S_K Dcal^j kappa is Dcal^j S_K kappa.  On a differential
        problem any other frame raises.
        """
        if self.orig_sig.differential and not self.frame.projectable:
            raise ExprError(f"frame {self.frame.name} is not projectable: Dcal and S_K do not commute")
        name = fv.name
        if name in self.kappa_defs:
            base = self.kappa_defs[name]
        elif name in self.sigma_defs:
            base = self.sigma_defs[name]
        elif name in self.kappa_sig.variations.values():
            kname = next(k for k, w in self.kappa_sig.variations.items() if w == name)
            base = t_derivative(self.kappa_defs[kname], self.orig_sig)
        else:
            return None
        return prolong(base, fv, self.orig_sig, self.frame.dcal)

    def expand(self, e):
        """Rewrite a kappa-space expression in the original variables.

        Field variables that are not kappa/sigma/variation symbols (for
        instance original fields or adjoint symbols mixed into the tree) are
        left untouched.
        """
        return _substitute_fields(e, self.expand_var, ("expand", id(self)), self)


def syzygy_operator_sides(invset, beta):
    """Both sides of d(kappa^beta)/dt = H^beta_alpha sigma^alpha for one row of H.

    The registered kappa-space coefficients are expanded to the original
    variables and applied to the sigma definitions with the invariant
    derivative; the left side is the t-derivative of the generating
    invariant, whose variation slots are sampled fresh.
    """
    sig = invset.orig_sig
    lhs = t_derivative(invset.kappa_defs[beta], sig)
    parts = [apply_op(LinDiffOp(tuple((invset.expand(c), K, j) for c, K, j in op.terms)),
                      invset.sigma_defs[alpha], sig, invset.frame.dcal)
             for alpha, op in invset.H[beta].items() if op is not None]
    return lhs, add(*parts)
