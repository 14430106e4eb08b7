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
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import check_variational_symmetry
from .calculus import (
    DivergenceTuple,
    apply_op,
    deriv_op,
    divergence,
    euler_lagrange,
    linear_by_parts,
    op_adjoint,
    substitute_slots,
)
from .expr import (
    Const,
    ExprError,
    FieldVar,
    Var,
    ZERO,
    add,
    evaluate,
    fieldvars,
    mul,
    neg,
    partial,
    quot,
    shift,
    substitute,
    t_derivative,
    to_string,
)
from .frames import invariantize, mc_element
from .sampling import identity_check, relative_residual, residual_stats

__all__ = [
    "InvariantLagrangian",
    "ConservationLaw",
    "euler_kappa",
    "invariant_euler_lagrange",
    "noether_original",
    "noether_invariant",
    "equivariant_form",
    "verify_divergence_equivalence",
    "law_divergence_dx",
    "compare_laws",
]

_ADJ_PREFIX = "adj"


@dataclass
class InvariantLagrangian:
    """Lagrangian in original variables and in the generating invariants."""

    L: object
    L_kappa: object
    invset: object

    def verify(self, plan, tol=1e-9):
        """expand(L_kappa) must equal L / J (and plainly L when J = 1)."""
        inv = self.invset
        rhs = mul(self.L, inv.frame.dcal_inv)
        return identity_check(inv.expand(self.L_kappa), rhs, plan, inv.orig_sig,
                              tol=tol, check_id="lagrangian-invariant-form")


def euler_kappa(IL, beta):
    """Difference Euler operator with respect to the invariant kappa^beta."""
    return euler_lagrange(IL.L_kappa, beta, IL.invset.kappa_sig)


def invariant_euler_lagrange(IL, H, plan, tol=1e-9):
    """Per field, (H^beta_alpha)^dagger E_kappa^beta (L^kappa) in kappa symbols.

    The adjoint is taken in the invariant calculus (the formal derivative of
    the kappa space is the invariant derivative).  Each expression is
    verified to equal the invariantization of the original Euler-Lagrange
    expression; a residual above tolerance raises.
    """
    inv = IL.invset
    ksig = inv.kappa_sig
    out = {}
    reports = []
    for alpha, fname in inv.sigma_fields.items():
        parts = []
        for beta in inv.kappa_names:
            op = H.get(beta, {}).get(alpha)
            if op is None:
                continue
            parts.append(apply_op(op_adjoint(op, ksig), euler_kappa(IL, beta), ksig))
        expr = add(*parts)
        out[fname] = expr
        lhs = inv.expand(expr)
        rhs = invariantize(inv.frame, euler_lagrange(IL.L, fname, inv.orig_sig), inv.orig_sig)
        rep = identity_check(lhs, rhs, plan, inv.orig_sig, tol=tol,
                             check_id=f"invariant-el:{fname}")
        reports.append(rep)
        if not rep.passed:
            raise ExprError(f"invariant Euler-Lagrange for {fname} disagrees with "
                            f"iota(E(L)): residual {rep.max_residual:.3e}")
    return out, reports


@dataclass
class ConservationLaw:
    """Component tuple of one Noether law with bookkeeping metadata."""

    generator_index: int
    form: str
    components: DivergenceTuple
    measure: str = "dx"  # "dx" or "iota-dx"
    display: object = None
    frame: object = None
    note: str = ""

    def to_dict(self, residual=None):
        comps = [] if self.components.a0 is None else [to_string(self.components.a0)]
        comps += [to_string(c) for c in self.components.comps]
        d = {"generator": self.generator_index, "form": self.form,
             "measure": self.measure, "components": comps}
        if residual is not None:
            d["residual_stats"] = residual
        return d


def law_dx_components(law):
    """Components in the plain dx measure: discrete parts pick up the factor J."""
    if law.measure == "dx" or law.frame is None:
        return law.components
    jac = law.frame.jacobian_factor
    if isinstance(jac, Const) and jac.value == 1:
        return law.components
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


def compare_laws(law_a, law_b, plan, sig, tol=1e-9):
    """Pointwise residuals between two laws in the dx measure.

    Returns (divergence residual, per-component residuals).  Divergence
    values of all three forms of one law always agree; the component split
    is only unique up to a null divergence, so callers decide which
    component residuals to assert.
    """
    ca, cb = law_dx_components(law_a), law_dx_components(law_b)
    div_res = residual_stats(divergence(ca, sig), divergence(cb, sig),
                             plan.assignments([divergence(ca, sig), divergence(cb, sig)], sig))
    comp_res = []
    pairs = []
    if (ca.a0 is None) != (cb.a0 is None):
        raise ExprError("laws have incompatible component shapes")
    if ca.a0 is not None:
        pairs.append((ca.a0, cb.a0))
    pairs.extend(zip(ca.comps, cb.comps))
    for lhs, rhs in pairs:
        comp_res.append(residual_stats(lhs, rhs, plan.assignments([lhs, rhs], sig)))
    return div_res, comp_res


def noether_original(L, gen, gen_index, sig, plan, el_by_field=None, sym_tol=1e-9):
    """Law in the original variables: the boundary of the variation with
    the slots replaced by the characteristic.

    For differential-difference problems with xi != 0 the extra term L*xi
    joins the A^0 component.  The off-shell identity
    sum Q^alpha E_alpha + Div(A) = 0 is verified on the plan.
    """
    sym = check_variational_symmetry(L, gen, sig, plan, tol=sym_tol)
    if not sym:
        raise ExprError(f"generator {gen.name or gen_index} is not a variational "
                        f"symmetry (v(L) residual {sym.max_residual:.3e})")
    slots = {sig.variations[f]: f for f in sig.base_fields if f in sig.variations}
    coeffs, boundary = linear_by_parts(t_derivative(L, sig), slots.keys(), sig)
    targets = {w: gen.q_of(f) for w, f in slots.items()}
    comps = boundary.map(lambda e: substitute_slots(e, targets, sig))
    if sig.differential and gen.xi is not None and not _is_zero(gen.xi):
        comps = DivergenceTuple(add(comps.a0, mul(L, gen.xi)), comps.comps)
    law = ConservationLaw(gen_index, "original", comps, measure="dx")
    if el_by_field is None:
        el_by_field = {f: euler_lagrange(L, f, sig) for f in sig.base_fields}
    res = offshell_residual(law, el_by_field, gen, sig, plan)
    law.note = f"off-shell residual {res:.3e}"
    if res > 1e-6:
        raise ExprError(f"off-shell Noether identity failed: residual {res:.3e}")
    return law


def _is_zero(e):
    return isinstance(e, Const) and e.value == 0


def _adj_var(s, m, deriv=0, shiftK=None):
    return Var(FieldVar(f"{_ADJ_PREFIX}{s}", deriv, shiftK or (0,) * m))


def _adj_frame_expr(frame, r, s, sig):
    entry = frame.action.adjoint_rep[r][s]
    rules = dict(zip(frame.action.param_names, frame.param_exprs))
    return substitute(entry, {}, param_rules=rules)


def _expand_adj(e, frame, r, sig):
    """Replace adj symbols by the adjoint components on the (shifted) frame."""
    rules = {}
    for fv in fieldvars(e):
        if fv.name.startswith(_ADJ_PREFIX) and fv.name[len(_ADJ_PREFIX):].isdigit():
            s = int(fv.name[len(_ADJ_PREFIX):])
            rep = shift(_adj_frame_expr(frame, r, s - 1, sig), fv.shift, sig)
            if fv.deriv:
                rep = deriv_op(rep, sig, frame.dcal_inv, times=fv.deriv)
            rules[fv] = rep
    return substitute(e, rules)


def _formal_dcal(e, sig, dcal_inv):
    """Invariant derivative that treats adj symbols as formal jet variables."""
    from .expr import _derivation

    def leaf(node):
        if isinstance(node, Var) and node.fv.name.startswith(_ADJ_PREFIX):
            raised = Var(FieldVar(node.fv.name, node.fv.deriv + 1, node.fv.shift))
            return raised if _is_one(dcal_inv) else quot(raised, dcal_inv)
        return None

    def full_leaf(node):
        out = leaf(node)
        if out is not None:
            return out
        from .expr import XVar, Param, Alt
        if isinstance(node, Var):
            return Var(FieldVar(node.fv.name, node.fv.deriv + 1, node.fv.shift))
        if isinstance(node, XVar):
            from .expr import ONE
            return ONE
        if isinstance(node, (Const, Param, Alt)):
            return ZERO
        return None

    d = _derivation(e, full_leaf)
    return d if _is_one(dcal_inv) else mul(dcal_inv, d)


def _is_one(e):
    return isinstance(e, Const) and e.value == 1


def _fill_slots(kexpr, invset, args):
    """Substitute slot variables slot_{j;K} -> Dcal^j S_K (arg) and expand.

    The arguments live in the original variables and may carry adj symbols,
    which the invariant derivative treats formally.
    """
    sig = invset.orig_sig
    dcal_inv = invset.frame.dcal_inv
    rules = {}
    for fv in fieldvars(kexpr):
        if fv.name in args:
            t = shift(args[fv.name], fv.shift, sig)
            for _ in range(fv.deriv):
                t = _formal_dcal(t, sig, dcal_inv)
            rules[fv] = t
    return invset.expand(substitute(kexpr, rules))


def noether_invariant(IL, H, action, frame, plan, generators=None):
    """Noether laws with invariant components, one per group generator.

    The boundary operators come from summation/integration by parts of the
    invariant variation: the sigma slots are then filled with
    iota(Q_s) a^s_r(rho), the kappa-dot slots with
    -Dcal(kappa) iota(xi_s) a^s_r(rho), and the term
    L^kappa iota(xi_s) a^s_r(rho) joins A^0 (differential-difference only).
    Components are relative to the invariant volume form (measure iota-dx).
    """
    inv = IL.invset
    ksig = inv.kappa_sig
    sig = inv.orig_sig
    m = sig.lattice_dim
    E_k = {beta: euler_kappa(IL, beta) for beta in inv.kappa_names}

    # boundary of moving H across the sigma slots
    ah_parts = []
    for beta in inv.kappa_names:
        for alpha, op in H.get(beta, {}).items():
            if op is None:
                continue
            applied = apply_op(op, Var(FieldVar(alpha, 0, (0,) * m)), ksig)
            ah_parts.append(mul(E_k[beta], applied))
    _, A_H = linear_by_parts(add(*ah_parts), inv.sigma_names, ksig)

    # boundary of the by-parts of dL^kappa/dt across the kappa-dot slots
    kdots = {inv.kappa_sig.variations[b]: b for b in inv.kappa_names}
    _, A_k = linear_by_parts(t_derivative(IL.L_kappa, ksig), kdots.keys(), ksig)

    iota_Q = {}
    for alpha, fname in inv.sigma_fields.items():
        iota_Q[alpha] = [invariantize(frame, g.q_of(fname), sig) for g in action.generators]
    has_xi = sig.differential and any(
        g.xi is not None and not _is_zero(g.xi) for g in action.generators)
    iota_xi = [invariantize(frame, g.xi, sig) if (g.xi is not None and not _is_zero(g.xi))
               else ZERO for g in action.generators]

    # the symbolic components are generator-independent: the adjoint symbols
    # adj_s stand for a^s_r(rho) with r fixed only at expansion time
    args = {}
    for alpha in inv.sigma_names:
        args[alpha] = add(*[mul(q, _adj_var(s + 1, m))
                            for s, q in enumerate(iota_Q[alpha])])
    if has_xi:
        xi_sum = add(*[mul(x, _adj_var(s + 1, m)) for s, x in enumerate(iota_xi)])
        for kdot, beta in kdots.items():
            args[kdot] = neg(mul(inv.dcal_kappa(beta), xi_sum))
    else:
        # t = epsilon^r makes every (kappa^beta)' vanish (kappa is invariant)
        for kdot in kdots:
            args[kdot] = ZERO
    symbolic = A_H.plus(A_k).map(lambda e: _fill_slots(e, inv, args))
    if has_xi:
        symbolic = DivergenceTuple(
            add(symbolic.a0, mul(inv.expand(IL.L_kappa), xi_sum)), symbolic.comps)

    laws = []
    indices = generators if generators is not None else range(1, len(action.generators) + 1)
    for r in indices:
        expanded = symbolic.map(lambda e: _expand_adj(e, frame, r - 1, sig))
        laws.append(ConservationLaw(r, "invariant", expanded, measure="iota-dx",
                                    display=symbolic, frame=frame))
    return laws


def equivariant_form(law, plan, tol=1e-9):
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
    sig_cache = {}

    def rewrite(e, sig):
        rules = {}
        for fv in fieldvars(e):
            if not fv.name.startswith(_ADJ_PREFIX):
                continue
            if fv.deriv:
                raise ExprError("equivariant rewrite of differentiated adjoint "
                                "symbols is not supported")
            if not any(fv.shift):
                continue
            s = int(fv.name[len(_ADJ_PREFIX):])
            key = fv.shift
            if key not in sig_cache:
                sig_cache[key] = mc_element(frame, fv.shift, sig)
            gJ = sig_cache[key]
            rules[fv] = add(*[
                mul(substitute(action.adjoint_rep[l][s - 1], {},
                               param_rules=dict(zip(action.param_names, gJ))),
                    _adj_var(l + 1, sig.lattice_dim))
                for l in range(action.group_dim)])
        return substitute(e, rules)

    sig = law_sig(law)
    symbolic = law.display.map(lambda e: rewrite(e, sig))
    r = law.generator_index
    expanded = symbolic.map(lambda e: _expand_adj(e, frame, r - 1, sig))
    out = ConservationLaw(r, "equivariant", expanded, measure=law.measure,
                          display=symbolic, frame=frame, note=law.note)
    _check_coefficients_invariant(out, plan, tol)
    return out


def _check_coefficients_invariant(law, plan, tol):
    """Every coefficient of an a^l_r(rho) symbol must be an invariant."""
    import numpy as np
    from .actions import transform

    sig = law_sig(law)
    action = law.frame.action
    rng = np.random.default_rng(np.random.PCG64(plan.seed + 37))
    probe = plan.with_(n_points=6)
    for cname, row in equivariant_coefficients(law):
        for sym, coeff in sorted(row.items()):
            pts = probe.assignments([coeff], sig)
            for a in pts:
                g = action.random_element(rng)
                tv = evaluate(transform(coeff, action, g, sig), a)
                cv = evaluate(coeff, a)
                if not abs(tv - cv) <= max(tol, 1e-8) * max(1.0, abs(cv)):
                    raise ExprError(
                        f"equivariant coefficient {cname}[{sym}] of the r="
                        f"{law.generator_index} law is not invariant "
                        f"(residual {abs(tv - cv):.3e})")


def law_sig(law):
    if law.frame is None:
        raise ExprError("law has no frame attached")
    return law.frame.action.sig


def equivariant_coefficients(law):
    """The invariant coefficient of each a^l_r(rho) in every component."""
    out = []
    comps = ([] if law.display.a0 is None else [("A0", law.display.a0)])
    comps += [(f"A{i + 1}", c) for i, c in enumerate(law.display.comps)]
    for name, comp in comps:
        row = {}
        for fv in fieldvars(comp):
            if fv.name.startswith(_ADJ_PREFIX) and not any(fv.shift) and not fv.deriv:
                row[fv.name] = partial(comp, fv)
        out.append((name, row))
    return out


def verify_divergence_equivalence(IL, H, plan, tol=1e-9):
    """Div(A_u) dx = Div(A_H + A_kappa) iota(dx) with fresh variation slots.

    Both sides are expanded to the original variables (sigma and kappa-dot
    slots become expressions in the variation slot fields) and compared at
    random points with independently sampled slot values.
    """
    inv = IL.invset
    sig = inv.orig_sig
    ksig = inv.kappa_sig
    m = sig.lattice_dim

    slots = {sig.variations[f]: f for f in sig.base_fields if f in sig.variations}
    _, A_u = linear_by_parts(t_derivative(IL.L, sig), slots.keys(), sig)
    lhs = divergence(A_u, sig)

    ah_parts = []
    E_k = {beta: euler_kappa(IL, beta) for beta in inv.kappa_names}
    for beta in inv.kappa_names:
        for alpha, op in H.get(beta, {}).items():
            if op is None:
                continue
            ah_parts.append(mul(E_k[beta], apply_op(op, Var(FieldVar(alpha, 0, (0,) * m)), ksig)))
    _, A_H = linear_by_parts(add(*ah_parts), inv.sigma_names, ksig)
    kdots = {ksig.variations[b]: b for b in inv.kappa_names}
    _, A_k = linear_by_parts(t_derivative(IL.L_kappa, ksig), kdots.keys(), ksig)
    both = A_H.plus(A_k).map(inv.expand)
    jac = IL.invset.frame.jacobian_factor
    rhs_parts = []
    if both.a0 is not None:
        rhs_parts.append(deriv_op(both.a0, sig))
    for i, comp in enumerate(both.comps):
        step = tuple(1 if k == i else 0 for k in range(m))
        weighted = mul(jac, comp)
        rhs_parts.append(add(shift(weighted, step, sig), neg(weighted)))
    rhs = add(*rhs_parts)
    return identity_check(lhs, rhs, plan, sig, tol=tol,
                          check_id="divergence-equivalence")
