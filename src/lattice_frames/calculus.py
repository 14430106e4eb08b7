"""Difference and differential-difference operator algebra.

A linear operator is a finite sum of terms ``coeff * S_K * D^j`` acting on
expressions.  The module provides application, formal adjoints,
Euler-Lagrange operators, divergences, and summation/integration by parts.

The divergence split of ``(S_K - id) f`` for m > 1 is not unique; this
module always uses the staircase path that exhausts direction 1 first while
carrying the remaining shifts, which reproduces the split used by the
worked examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .expr import (
    ZERO,
    ExprError,
    FieldVar,
    Var,
    add,
    fieldvars,
    mul,
    neg,
    partial,
    shift,
    substitute,
    total_derivative,
)

__all__ = [
    "LinDiffOp",
    "DivergenceTuple",
    "deriv_op",
    "apply_op",
    "op_adjoint",
    "euler_lagrange",
    "divergence",
    "staircase_components",
    "linear_by_parts",
    "substitute_slots",
    "prolong",
    "unit_step",
]


def deriv_op(e, sig, times=1, deriv=total_derivative):
    """Apply ``deriv(e, sig)`` ``times`` times: D unless given, or ``Frame.dcal``."""
    for _ in range(times):
        e = deriv(e, sig)
    return e


def prolong(base, fv, sig, deriv=total_derivative):
    """S_K d^j ``base``: the image of u_{j;K} = ``fv`` under a map whose image of u is ``base``.

    ``deriv(e, sig)`` is one step of d: D unless given, D/D(x~) for a map
    that moves x, or ``Frame.dcal``, which commutes with the shifts on a
    projectable frame.
    """
    return shift(deriv_op(base, sig, fv.deriv, deriv), fv.shift, sig)


def unit_step(direction, m):
    """The shift multi-index of one step along ``direction`` in ``m`` lattice directions."""
    return tuple(int(k == direction) for k in range(m))


@dataclass(frozen=True, eq=False, repr=False)
class LinDiffOp:
    """Finite sum of terms (coeff, K, j) representing coeff * S_K * D^j."""

    terms: tuple

    @staticmethod
    def from_terms(terms):
        merged = {}
        for coeff, K, j in terms:
            key = (tuple(K), j)
            merged[key] = add(merged[key], coeff) if key in merged else coeff
        out = []
        for (K, j), coeff in sorted(merged.items()):
            if coeff != ZERO:
                out.append((coeff, K, j))
        return LinDiffOp(tuple(out))


def apply_op(op, e, sig, deriv=total_derivative):
    """Sum of coeff * S_K d^j e over the operator terms, d = ``deriv`` as for :func:`deriv_op`."""
    return add(*[mul(coeff, shift(deriv_op(e, sig, j, deriv), K, sig))
                 for coeff, K, j in op.terms])


def op_adjoint(op, sig):
    """Formal adjoint: term (c,K,j) maps f to (-D)^j S_{-K}(c f).

    The invariant adjoint is this one taken in kappa space, whose formal D
    already is the invariant derivative.
    """
    out = []
    for coeff, K, j in op.terms:
        negK = tuple(-k for k in K)
        c = shift(coeff, negK, sig)
        sign = -1 if j % 2 else 1
        for l in range(j + 1):
            out.append((mul(sign * comb(j, l), deriv_op(c, sig, times=l)), negK, j - l))
    return LinDiffOp.from_terms(out)


def _moved_off(f, fv, sig):
    """S_{-K} (-D)^j f: the coefficient f of u_{j;K} moved off that coordinate."""
    F = deriv_op(f, sig, times=fv.deriv)
    return shift(neg(F) if fv.deriv % 2 else F, tuple(-k for k in fv.shift), sig)


def euler_lagrange(L, field_name, sig):
    """E_u(L) = sum over stencil of S_{-K} (-D)^j (dL/du_{j;K})."""
    return add(*[_moved_off(partial(L, fv), fv, sig)
                 for fv in sorted(fieldvars(L)) if fv.name == field_name])


@dataclass(frozen=True, eq=False, repr=False)
class DivergenceTuple:
    """(A^0; A^1,...,A^m): A^0 feeds the total x-derivative, absent for pure
    difference problems."""

    a0: object
    comps: tuple

    def map(self, fn):
        return DivergenceTuple(None if self.a0 is None else fn(self.a0),
                               tuple(fn(c) for c in self.comps))

    def named(self):
        """``(name, component)`` pairs: ``A0`` when present, then ``A1``, ..., ``Am``."""
        out = [] if self.a0 is None else [("A0", self.a0)]
        return out + [(f"A{i + 1}", c) for i, c in enumerate(self.comps)]

    def plus(self, other):
        if (self.a0 is None) != (other.a0 is None):
            a0 = self.a0 if other.a0 is None else other.a0
        else:
            a0 = None if self.a0 is None else add(self.a0, other.a0)
        return DivergenceTuple(a0, tuple(add(a, b) for a, b in zip(self.comps, other.comps)))


def divergence(t, sig):
    """D A^0 + sum_i (S_i - id) A^i."""
    parts = []
    if t.a0 is not None:
        parts.append(deriv_op(t.a0, sig))
    for i, comp in enumerate(t.comps):
        parts.append(add(shift(comp, unit_step(i, len(t.comps)), sig), neg(comp)))
    return add(*parts)


def _telescope(g, direction, k, sig):
    """T_k g with (S_i^k - id) = (S_i - id) T_k; T_0 = 0."""
    if k == 0:
        return ZERO
    unit = unit_step(direction, sig.lattice_dim)
    parts = []
    if k > 0:
        for l in range(k):
            parts.append(shift(g, tuple(l * u for u in unit), sig))
    else:
        for l in range(k, 0):
            parts.append(neg(shift(g, tuple(l * u for u in unit), sig)))
    return add(*parts)


def staircase_components(g, K, sig):
    """Components F with (S_K - id) g = sum_i (S_i - id) F^i.

    F^i = T_{K_i} applied to g pre-shifted by the not-yet-consumed
    directions (i+1..m), telescoping the staircase path deterministically.
    """
    m = sig.lattice_dim
    comps = []
    for i in range(m):
        rest = tuple(0 if d <= i else K[d] for d in range(m))
        comps.append(_telescope(shift(g, rest, sig), i, K[i], sig))
    return comps


def linear_by_parts(e, slot_fields, sig):
    """Summation/integration by parts of an expression linear in slot fields.

    Writes ``e = sum_s coeff_s * slot_s + Div(A)``, moving every ``D^j S_K``
    off the slot variables; the derivative is the formal one of the
    expression's space, so in an invariant-symbol space the divergence is
    the one relative to the invariant volume form.  Returns (coeff map, A).

    The coefficients of the slot variables must not themselves contain slot
    variables (linearity), which holds for every variation produced by
    t-differentiation.
    """
    m = sig.lattice_dim
    slot_fields = set(slot_fields)
    coeffs = {}
    a0_parts = []
    a_parts = [[] for _ in range(m)]
    for fv in sorted(fieldvars(e)):
        if fv.name not in slot_fields:
            continue
        f = partial(e, fv)
        bad = {w.name for w in fieldvars(f)} & slot_fields
        if bad:
            raise ExprError(f"expression is not linear in slot fields: {sorted(bad)}")
        # stage 1: move the j derivatives across, collecting the x-boundary
        for l in range(fv.deriv):
            sign = -1 if l % 2 else 1
            a0_parts.append(mul(sign, deriv_op(f, sig, times=l),
                                Var(FieldVar(fv.name, fv.deriv - 1 - l, fv.shift))))
        # stage 2: move the shift across, collecting the staircase boundary
        SF = _moved_off(f, fv, sig)
        coeffs[fv.name] = add(coeffs.get(fv.name, ZERO), SF)
        if any(fv.shift):
            inner = mul(SF, Var(FieldVar(fv.name, 0, (0,) * m)))
            for i, piece in enumerate(staircase_components(inner, fv.shift, sig)):
                a_parts[i].append(piece)
    a0 = add(*a0_parts) if sig.differential else None
    boundary = DivergenceTuple(a0, tuple(add(*p) if p else ZERO for p in a_parts))
    return coeffs, boundary


def substitute_slots(e, targets, sig, deriv=total_derivative):
    """Replace each slot variable slot_{j;K} by :func:`prolong` of its target expression.

    ``targets`` maps slot field name -> Expr; ``deriv`` is as for :func:`prolong`.
    """
    return substitute(e, {fv: prolong(targets[fv.name], fv, sig, deriv)
                          for fv in fieldvars(e) if fv.name in targets})
