"""Invariant Euler-Lagrange equations and Noether conservation laws.

Three forms of each conservation law are constructed:

* original  -- components in the original variables, from summation (and
  integration) by parts of the variation with the variation slots replaced
  by the characteristic;
* invariant -- components built from the syzygy operator boundary terms
  with the slots replaced by the invariantized characteristics times the
  adjoint representation evaluated on the frame;
* equivariant -- the invariant components re-expressed as sums of invariant
  coefficients times the adjoint components a^l_r(rho), using the
  representation property on the Maurer-Cartan group elements.

Components of laws relative to the invariant volume form carry the measure
tag "iota-dx"; converting to the plain "dx" measure multiplies the discrete
components by the Jacobian factor, which makes the different forms directly
comparable pointwise.

The builders of the invariant forms take ``IL``, the catalog bundle: it
holds the Lagrangian ``L`` in the original variables, ``L_kappa`` in the
generating invariants, and the invariant set, which holds H, the frame and
the action.  Law r belongs to the action's generator r.

The law constructors only build: they sample nothing and check nothing.
Whether a generator is a variational symmetry, and whether a law satisfies
the off-shell identity, is checked once by the caller (the verification
suites and the ``noether`` command), which reports the result.  Only the
equivariant rewrite still checks, and raises on, the invariance of its
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .actions import invariance_residual
from .calculus import (
    DivergenceTuple,
    apply_op,
    divergence,
    euler_lagrange,
    linear_by_parts,
    op_adjoint,
    prolong,
    substitute_slots,
)
from .expr import (
    ExprError,
    FieldVar,
    Var,
    ZERO,
    _substitute_fields,
    add,
    evaluate,
    fieldvars,
    mul,
    neg,
    partial,
    substitute,
    t_derivative,
    to_string,
)
from .frames import invariantize, mc_element
from .sampling import relative_residual, residual_stats

__all__ = [
    "ConservationLaw",
    "euler_kappa",
    "invariant_euler_lagrange",
    "noether_original",
    "noether_invariant",
    "invariant_boundary",
    "equivariant_form",
    "divergence_equivalence_sides",
    "law_divergence_dx",
    "compare_laws",
]

_ADJ_PREFIX = "adj"


def euler_kappa(IL, beta):
    """Difference Euler operator with respect to the invariant kappa^beta."""
    return euler_lagrange(IL.L_kappa, beta, IL.invset.kappa_sig)


def invariant_euler_lagrange(IL):
    """Per field, (H^beta_alpha)^dagger E_kappa^beta (L^kappa) in kappa symbols.

    The adjoint is taken in the invariant calculus (the formal derivative of
    the kappa space is the invariant derivative).
    """
    inv = IL.invset
    ksig = inv.kappa_sig
    out = {}
    for alpha, fname in inv.sigma_fields.items():
        parts = []
        for beta in inv.kappa_names:
            op = inv.H.get(beta, {}).get(alpha)
            if op is None:
                continue
            parts.append(apply_op(op_adjoint(op, ksig), euler_kappa(IL, beta), ksig))
        out[fname] = add(*parts)
    return out


@dataclass(eq=False, repr=False)
class ConservationLaw:
    """Component tuple of one Noether law with bookkeeping metadata."""

    generator_index: int
    form: str
    components: DivergenceTuple
    display: object = None
    frame: object = None  # set exactly when the components are relative to iota(dx)

    @property
    def measure(self):
        return "dx" if self.frame is None else "iota-dx"

    def to_dict(self, residual=None):
        d = {"generator": self.generator_index, "form": self.form, "measure": self.measure,
             "components": [to_string(c) for _, c in self.components.named()]}
        if residual is not None:
            d["residual_stats"] = residual
        return d


def law_dx_components(law):
    """Components in the plain dx measure: discrete parts pick up the factor J."""
    if law.frame is None:
        return law.components
    jac = law.frame.jacobian_factor
    return DivergenceTuple(law.components.a0,
                           tuple(mul(jac, c) for c in law.components.comps))


def law_divergence_dx(law, sig):
    """D(A^0) + sum_i (S_i - id) A^i in the dx measure."""
    return divergence(law_dx_components(law), sig)


def offshell_residual(law, el_by_field, gen, sig, plan):
    """Residual of  sum_alpha Q^alpha E_alpha(L) + Div(law)  over the plan."""
    parts = [mul(gen.q_of(f), el) for f, el in el_by_field.items()]
    parts.append(law_divergence_dx(law, sig))
    expr = add(*parts)

    def residual(a):
        return evaluate(expr, a), [evaluate(el, a) for el in el_by_field.values()]

    return relative_residual(plan.assignments([expr], sig), residual)


def compare_laws(law_a, law_b, plan, sig):
    """Pointwise residuals between two laws in the dx measure.

    Returns (divergence residual, per-component residuals).  Divergence
    values of all three forms of one law always agree; the component split
    is only unique up to a null divergence, so callers decide which
    component residuals to assert.
    """
    ca, cb = law_dx_components(law_a), law_dx_components(law_b)
    div_a, div_b = divergence(ca, sig), divergence(cb, sig)
    div_res = residual_stats(div_a, div_b, plan.assignments([div_a, div_b], sig))
    named_a, named_b = ca.named(), cb.named()
    if [name for name, _ in named_a] != [name for name, _ in named_b]:
        raise ExprError("laws have incompatible component shapes")
    comp_res = [residual_stats(lhs, rhs, plan.assignments([lhs, rhs], sig))
                for (_, lhs), (_, rhs) in zip(named_a, named_b)]
    return div_res, comp_res


def _variation_boundary(L, sig):
    """The slot map {variation slot: field} and the by-parts boundary of dL/dt."""
    slots = {sig.variations[f]: f for f in sig.base_fields if f in sig.variations}
    _, boundary = linear_by_parts(t_derivative(L, sig), slots.keys(), sig)
    return slots, boundary


def noether_original(L, gen, gen_index, sig):
    """Law in the original variables: the boundary of the variation with
    the slots replaced by the characteristic.

    For differential-difference problems with xi != 0 the extra term L*xi
    joins the A^0 component.  The law is only built: the caller checks that
    ``gen`` is a variational symmetry and that the off-shell identity
    sum Q^alpha E_alpha + Div(A) = 0 holds.
    """
    slots, boundary = _variation_boundary(L, sig)
    targets = {w: gen.q_of(f) for w, f in slots.items()}
    comps = boundary.map(lambda e: substitute_slots(e, targets, sig))
    if sig.differential and gen.xi != ZERO:
        comps = DivergenceTuple(add(comps.a0, mul(L, gen.xi)), comps.comps)
    return ConservationLaw(gen_index, "original", comps)


def _adj_var(s, m):
    """The adjoint symbol adj<s> at the base point."""
    return Var(FieldVar(f"{_ADJ_PREFIX}{s}", 0, (0,) * m))


def _adj_index(name):
    """``s`` for the name of an adjoint symbol adj<s>, else None."""
    rest = name[len(_ADJ_PREFIX):]
    return int(rest) if name.startswith(_ADJ_PREFIX) and rest.isdigit() else None


def _adj_entry(action, r, s, params):
    """The adjoint component a^s_r (0-based) at the group parameters ``params``."""
    return substitute(action.adjoint_rep[r][s], {},
                      param_rules=dict(zip(action.param_names, params)))


def _expand_adj(e, frame, r):
    """Replace each adj<s>_{j;K} by S_K D^j of a^s_r on the frame: :func:`prolong` with D."""
    sig = frame.action.sig

    def image(fv):
        s = _adj_index(fv.name)
        if s is None:
            return None
        return prolong(_adj_entry(frame.action, r, s - 1, frame.param_exprs), fv, sig)

    return _substitute_fields(e, image, ("adj", id(frame), r), frame)


def invariant_boundary(IL):
    """A_H + A_kappa: the boundary terms of the invariant variation, in kappa symbols.

    A_H comes from summing (and integrating) by parts E_kappa^beta H^beta_alpha
    sigma^alpha across the sigma slots, A_kappa from the by-parts of
    dL^kappa/dt across the kappa-dot slots.
    """
    inv = IL.invset
    ksig = inv.kappa_sig
    m = inv.orig_sig.lattice_dim
    E_k = {beta: euler_kappa(IL, beta) for beta in inv.kappa_names}
    ah_parts = []
    for beta in inv.kappa_names:
        for alpha, op in inv.H.get(beta, {}).items():
            if op is None:
                continue
            applied = apply_op(op, Var(FieldVar(alpha, 0, (0,) * m)), ksig)
            ah_parts.append(mul(E_k[beta], applied))
    _, A_H = linear_by_parts(add(*ah_parts), inv.sigma_names, ksig)
    kdots = [ksig.variations[b] for b in inv.kappa_names]
    _, A_k = linear_by_parts(t_derivative(IL.L_kappa, ksig), kdots, ksig)
    return A_H.plus(A_k)


def noether_invariant(IL):
    """Noether laws with invariant components, one per group generator: law r is ``[r - 1]``.

    The boundary operators come from summation/integration by parts of the
    invariant variation: the sigma slots are then filled with
    iota(Q_s) a^s_r(rho), the kappa-dot slots with
    -Dcal(kappa) iota(xi_s) a^s_r(rho), and the term
    L^kappa iota(xi_s) a^s_r(rho) joins A^0 (differential-difference only).
    Components are relative to the invariant volume form (measure iota-dx).
    """
    inv = IL.invset
    frame = inv.frame
    action = frame.action
    sig = action.sig
    m = sig.lattice_dim
    boundary = invariant_boundary(IL)
    kdots = {inv.kappa_sig.variations[b]: b for b in inv.kappa_names}

    iota_Q = {}
    for alpha, fname in inv.sigma_fields.items():
        iota_Q[alpha] = [invariantize(frame, g.q_of(fname)) for g in action.generators]
    has_xi = sig.differential and any(g.xi != ZERO for g in action.generators)
    iota_xi = [invariantize(frame, g.xi) if g.xi != ZERO else ZERO
               for g in action.generators]

    # the symbolic components are generator-independent: the adjoint symbols
    # adj_s stand for a^s_r(rho) with r fixed only at expansion time, and
    # adj<s>_{j;K} for S_K D^j of it, so Dcal derives them like any field
    args = {}
    for alpha in inv.sigma_names:
        args[alpha] = add(*[mul(q, _adj_var(s + 1, m))
                            for s, q in enumerate(iota_Q[alpha])])
    if has_xi:
        xi_sum = add(*[mul(x, _adj_var(s + 1, m)) for s, x in enumerate(iota_xi)])
        for kdot, beta in kdots.items():
            args[kdot] = neg(mul(inv.expand_var(FieldVar(beta, 1, (0,) * m)), xi_sum))
    else:
        # t = epsilon^r makes every (kappa^beta)' vanish (kappa is invariant)
        for kdot in kdots:
            args[kdot] = ZERO

    symbolic = boundary.map(lambda e: inv.expand(substitute_slots(e, args, sig, frame.dcal)))
    if has_xi:
        symbolic = DivergenceTuple(
            add(symbolic.a0, mul(inv.expand(IL.L_kappa), xi_sum)), symbolic.comps)

    laws = []
    for r in range(1, action.group_dim + 1):
        expanded = symbolic.map(lambda e: _expand_adj(e, frame, r - 1))
        laws.append(ConservationLaw(r, "invariant", expanded, display=symbolic, frame=frame))
    return laws


def equivariant_form(law, plan):
    """Rewrite the law as sums of invariant coefficients times a^l_r(rho).

    Shifted adjoint symbols a^s_r(rho_J) are pulled back to the base frame
    through the representation property on the Maurer-Cartan elements
    (S_J rho) rho^{-1}.  The resulting coefficients pass an invariance check
    numerically (they are functions of the invariants); the law's component
    values are unchanged.
    """
    frame = law.frame
    if law.display is None or frame is None:
        raise ExprError("equivariant form needs the symbolic invariant components")
    action = frame.action

    def image(fv):
        s = _adj_index(fv.name)
        if s is None:
            return None
        if fv.deriv:
            raise ExprError("equivariant rewrite of differentiated adjoint "
                            "symbols is not supported")
        if not any(fv.shift):
            return None
        gJ = mc_element(frame, fv.shift)
        return add(*[mul(_adj_entry(action, l, s - 1, gJ), _adj_var(l + 1, len(fv.shift)))
                     for l in range(action.group_dim)])

    symbolic = law.display.map(lambda e: _substitute_fields(
        e, image, ("equivariant", id(frame)), frame))
    r = law.generator_index
    expanded = symbolic.map(lambda e: _expand_adj(e, frame, r - 1))
    out = ConservationLaw(r, "equivariant", expanded, display=symbolic, frame=frame)
    _check_coefficients_invariant(out, plan)
    return out


def _check_coefficients_invariant(law, plan):
    """Every coefficient of an a^l_r(rho) symbol must be an invariant (residual <= 1e-8).

    The probe draws 6 points at the default of 50, scaled with the plan's.
    """
    rng = np.random.default_rng(np.random.PCG64(plan.seed + 37))
    probe = replace(plan, n_points=max(1, plan.n_points * 6 // 50))
    for cname, row in equivariant_coefficients(law):
        for sym, coeff in sorted(row.items()):
            res = invariance_residual(coeff, law.frame.action, probe, rng, n_group=6)
            if not res <= 1e-8:
                raise ExprError(
                    f"equivariant coefficient {cname}[{sym}] of the r="
                    f"{law.generator_index} law is not invariant (residual {res:.3e})")


def equivariant_coefficients(law):
    """The invariant coefficient of each a^l_r(rho) in every component."""
    out = []
    for name, comp in law.display.named():
        row = {}
        for fv in fieldvars(comp):
            if _adj_index(fv.name) is not None and not any(fv.shift) and not fv.deriv:
                row[fv.name] = partial(comp, fv)
        out.append((name, row))
    return out


def divergence_equivalence_sides(IL):
    """Div(A_u) dx and Div(A_H + A_kappa) iota(dx), both in the original variables.

    The sigma and kappa-dot slots become expressions in the variation slot
    fields, so the two sides agree at random points with independently
    sampled slot values.
    """
    inv = IL.invset
    sig = inv.orig_sig
    lhs = divergence(_variation_boundary(IL.L, sig)[1], sig)
    both = ConservationLaw(0, "invariant", invariant_boundary(IL).map(inv.expand),
                           frame=inv.frame)
    return lhs, law_divergence_dx(both, sig)
