"""Named verification suites over the catalog examples.

Each suite is a list of deterministic checks returning
:class:`~lattice_frames.sampling.CheckReport`; the CLI ``verify`` command
and the acceptance tests are thin wrappers over these.  Every suite carries
one deliberately perturbed identity that must fail (negative control).
A suite that raises :class:`~lattice_frames.expr.ExprError` reports one
failed ``<suite>:error`` check and the remaining suites still run.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .actions import (
    SYMMETRY_TOL,
    adjoint_matrix,
    check_variational_symmetry,
    invariance_residual,
)
from .calculus import DivergenceTuple, deriv_op, euler_lagrange, unit_step
from .expr import (
    Const,
    ExprError,
    FieldVar,
    Var,
    XVar,
    add,
    fieldvars,
    run_memo,
    shift,
    substitute,
)
from .flows import integrate_lattice_flow, monitor_conserved
from .frames import (
    differential_syzygy_operators,
    invariantize,
    maurer_cartan,
    mc_concatenated,
    mc_element,
    verify_frame,
    verify_syzygy,
)
from .noether import (
    _adj_index,
    _adj_var,
    _expand_adj,
    compare_laws,
    equivariant_coefficients,
    equivariant_form,
    euler_kappa,
    invariant_euler_lagrange,
    noether_invariant,
    noether_original,
    offshell_residual,
    verify_divergence_equivalence,
)
from .parser import parse
from .sampling import CheckReport, identity_check, residual_stats

__all__ = ["SUITES", "run_suite", "suite_names"]

# the conservation drift each monitored sum may show, 1e-6 for one not named
DRIFT_TOLS = {"norm": 1e-8, "energy": 1e-6}


def _report(check_id, residual, tol, plan, n_points=None, note=""):
    """``n_points`` is the size of the point set drawn, when not ``plan``'s own."""
    return CheckReport.from_residual(check_id, residual, tol, n_points or plan.n_points,
                                     plan.seed, note=note)


def _must_fail(check_id, residual, tol, plan, note, n_points=None):
    """A negative control: passes only when the residual is finite and above ``tol``."""
    ok = math.isfinite(residual) and residual > tol
    return CheckReport(check_id, "pass" if ok else "fail", float(residual),
                       n_points or plan.n_points, plan.seed, note=note)


def _worst(residuals):
    """Largest residual; unlike Python's ``max``, a NaN is kept and fails."""
    return float(np.max(residuals))


def suite_syzygy(b, plan, tol=1e-10):
    inv = b.invset
    sig = inv.orig_sig
    out = []
    for syz in inv.syzygies:
        out.append(verify_syzygy(inv, syz, plan, tol=tol))
    # recurrence targets against direct invariantization
    for target in b.expected.get("recurrences", {}):
        fv = parse(target, sig).fv
        kexpr = inv.recurrence(fv)
        lhs = inv.expand(kexpr)
        rhs = invariantize(b.frame, Var(fv), sig)
        out.append(identity_check(lhs, rhs, plan, sig, tol=tol,
                                  check_id=f"recurrence:{target}"))
        stored = parse(b.expected["recurrences"][target], inv.kappa_sig)
        out.append(identity_check(lhs, inv.expand(stored), plan, sig, tol=tol,
                                  check_id=f"recurrence-stored:{target}"))
    # negative control: a perturbed syzygy must fail
    name, lhs, rhs = inv.syzygies[0]
    bad = identity_check(inv.expand(add(lhs, Const(1e-3))), inv.expand(rhs),
                         plan, sig, tol=tol, check_id="nc")
    out.append(_must_fail(f"negative-control:{name}+1e-3", bad.max_residual, tol, plan,
                          note="perturbed identity must fail"))
    return out


def suite_invariant_el(b, plan, tol=1e-9):
    inv = b.invset
    sig = inv.orig_sig
    ksig = inv.kappa_sig
    IL = b.lagrangian
    out = [IL.verify(plan, tol=tol)]
    out.extend(differential_syzygy_operators(inv, plan, tol=tol))
    # Euler operators in kappa space against the stored forms
    for beta, s in b.expected.get("euler_kappa", {}).items():
        out.append(identity_check(inv.expand(euler_kappa(IL, beta)),
                                  inv.expand(parse(s, ksig)), plan, sig, tol=tol,
                                  check_id=f"euler-kappa:{beta}"))
    el_inv, reports = invariant_euler_lagrange(IL, inv.H, plan, tol=tol)
    out.extend(reports)
    stored = b.expected.get("el_invariant")
    if isinstance(stored, str):
        stored = {next(iter(el_inv)): stored}
    for fname, s in (stored or {}).items():
        out.append(identity_check(inv.expand(el_inv[fname]),
                                  inv.expand(parse(s, ksig)), plan, sig, tol=tol,
                                  check_id=f"invariant-el-stored:{fname}"))
    out.append(verify_divergence_equivalence(IL, inv.H, plan, tol=tol))
    # original Euler-Lagrange expressions against the stored displays
    stored = b.expected.get("el_original")
    if isinstance(stored, str):
        stored = {sig.base_fields[0]: stored}
    for fname, s in (stored or {}).items():
        out.append(identity_check(euler_lagrange(b.L, fname, sig), parse(s, sig),
                                  plan, sig, tol=tol, check_id=f"el-stored:{fname}"))
    # negative control
    el0 = euler_lagrange(b.L, sig.base_fields[0], sig)
    bad = identity_check(el0, add(el0, Const(1e-3)), plan, sig, tol=tol, check_id="nc")
    out.append(_must_fail("negative-control:el+1e-3", bad.max_residual, tol, plan,
                          note="perturbed identity must fail"))
    return out


def suite_noether(b, plan, tol=1e-9):
    sig = b.sig
    out = []
    EL = {f: euler_lagrange(b.L, f, sig) for f in sig.base_fields}
    symmetry = {e.index: check_variational_symmetry(b.L, e.gen, sig, plan)
                for e in b.generators}
    originals = {e.index: noether_original(b.L, e.gen, e.index, sig)
                 for e in b.generators if symmetry[e.index] <= SYMMETRY_TOL}
    invariants = noether_invariant(
        b.lagrangian, b.invset.H, b.action, b.frame,
        generators=[e.action_index for e in b.generators if e.action_index])
    for entry in b.generators:
        label = entry.gen.name or f"r{entry.index}"
        if entry.index not in originals:
            out.append(_must_fail(f"non-symmetry:{label}",
                                  symmetry[entry.index], SYMMETRY_TOL, plan,
                                  note="generator must not be a variational symmetry"))
            continue
        law = originals[entry.index]
        res = offshell_residual(law, EL, entry.gen, sig, plan)
        out.append(_report(f"offshell-original:{label}", res, tol, plan))
        stored = b.expected.get("laws_original", {}).get(entry.index)
        if stored:
            for cname, comp in law.components.named():
                if cname in stored:
                    out.append(identity_check(comp, parse(stored[cname], sig), plan,
                                              sig, tol=tol,
                                              check_id=f"law-stored:{label}:{cname}"))
    for law in invariants:
        r = law.generator_index
        entry = b.generator(r)
        res = offshell_residual(law, EL, entry.gen, sig, plan)
        out.append(_report(f"offshell-invariant:r{r}", res, tol, plan))
        if r in originals:
            dv, comps = compare_laws(originals[r], law, plan, sig)
            out.append(_report(f"law-div-match:r{r}", dv, tol, plan))
            out.append(_report(f"law-components-match:r{r}", _worst(comps), tol, plan,
                               note="dx-measure components agree pointwise"))
        stored = b.expected.get("laws_invariant", {}).get(r)
        if stored:
            inv = b.invset
            comps = dict(law.components.named())
            for cname, s in stored.items():
                out.append(identity_check(comps[cname], inv.expand(parse(s, inv.kappa_sig)),
                                          plan, sig, tol=tol,
                                          check_id=f"law-stored-invariant:r{r}:{cname}"))
    if b.integrate_config is not None:
        out.extend(integration_checks(b))
    # negative control: constants lie in the kernel of the difference
    # divergence, so perturb with a field value instead
    entry = next(e for e in b.generators if e.index in originals)
    law = originals[entry.index]
    bump = Const(1e-2) * Var(FieldVar(sig.base_fields[0], 0, (0,) * sig.lattice_dim))
    broken = type(law)(entry.index, "original",
                       DivergenceTuple(law.components.a0,
                                       tuple(add(c, bump) for c in law.components.comps)),
                       measure="dx")
    res = offshell_residual(broken, EL, entry.gen, sig, plan)
    out.append(_must_fail("negative-control:perturbed-law", res, tol, plan,
                          note="perturbed components must break the identity"))
    return out


def integration_checks(b):
    """Conservation drift of the monitored sums at the default configuration."""
    cfg = b.integrate_config
    d = cfg["defaults"]
    state0 = cfg["initial_state"](d["n_sites"], d["h"])
    traj = integrate_lattice_flow(cfg["rhs"], state0, d["x_span"], d["dt"],
                                  monitors=cfg["monitors"])
    drifts = monitor_conserved(traj)
    out = []
    for label in sorted(drifts):
        tol = DRIFT_TOLS.get(label, 1e-6)
        out.append(CheckReport.from_residual(f"integration-drift:{label}", drifts[label], tol,
                                             1, 0, note=cfg.get("note", "")))
    return out


def suite_equivariance(b, plan, tol=1e-8):
    sig = b.sig
    frame, action, inv = b.frame, b.action, b.invset

    def invariance(e, n_points):
        rng = np.random.default_rng(np.random.PCG64(plan.seed + 17))
        return invariance_residual(e, action, sig, replace(plan, n_points=n_points), rng,
                                   n_group=20)

    out = list(verify_frame(frame, plan, sig, tol=tol))
    probe = b.L
    ie = invariantize(frame, probe, sig)
    out.append(identity_check(ie, invariantize(frame, ie, sig),
                              replace(plan, n_points=20), sig, tol=tol,
                              check_id="iota-projection"))
    out.append(_report("iota-invariance", invariance(ie, 20), tol, plan, n_points=20))
    # replacement rule on each generating invariant
    xr = invariantize(frame, XVar(), sig) if sig.has_x else None
    for kname, kdef in inv.kappa_defs.items():
        rules = {fv: invariantize(frame, Var(fv), sig) for fv in fieldvars(kdef)}
        out.append(identity_check(kdef, substitute(kdef, rules, x_repl=xr),
                                  replace(plan, n_points=20), sig, tol=tol,
                                  check_id=f"replacement-rule:{kname}"))
    for i in range(sig.lattice_dim):
        K = maurer_cartan(frame, i, sig)
        worst = _worst([invariance(comp, 10) for comp in K])
        out.append(_report(f"maurer-cartan-invariance:{i+1}", worst, tol, plan, n_points=10))
    if sig.lattice_dim == 2:
        lhs = mc_element(frame, (1, 1), sig)
        rhs = mc_concatenated(frame, 0, 1, sig)
        worst = _worst([residual_stats(l, r, replace(plan, n_points=15).assignments([l, r], sig))
                        for l, r in zip(lhs, rhs)])
        out.append(_report("maurer-cartan-concatenation", worst, tol, plan, n_points=15))
    if sig.differential:
        dc = frame.dcal_inv
        step = unit_step(0, sig.lattice_dim)
        lhs = deriv_op(shift(ie, step, sig), sig, dc)
        rhs = shift(deriv_op(ie, sig, dc), step, sig)
        out.append(identity_check(lhs, rhs, replace(plan, n_points=20), sig, tol=tol,
                                  check_id="dcal-shift-commutation"))
        out.append(CheckReport("projectable-frame",
                               "pass" if frame.projectable else "fail",
                               0.0, 1, plan.seed))
    # equivariant law forms
    ksig = inv.kappa_sig
    invariants = noether_invariant(
        b.lagrangian, inv.H, action, frame,
        generators=[e.action_index for e in b.generators if e.action_index])
    for law in invariants:
        r = law.generator_index
        eq = equivariant_form(law, plan)
        dv, comps = compare_laws(law, eq, plan, sig)
        out.append(_report(f"equivariant-match:r{r}", _worst([dv] + comps), tol, plan))
        expected = b.expected.get("equivariant_coeffs", {}).get(r)
        if expected:
            for cname, row in equivariant_coefficients(eq):
                want_row = expected.get(cname, {})
                for sym, coeff in sorted(row.items()):
                    if sym in want_row:
                        want = inv.expand(parse(want_row[sym], ksig))
                        out.append(identity_check(
                            inv.expand(coeff), want, replace(plan, n_points=25), sig,
                            tol=tol, check_id=f"equivariant-coeff:r{r}:{cname}:{sym}"))
                    else:
                        # the display omits this term; it must die against the
                        # vanishing adjoint component it multiplies
                        term = coeff * _adj_var(_adj_index(sym), sig.lattice_dim)
                        expanded = _expand_adj(term, frame, r - 1, sig)
                        out.append(identity_check(
                            expanded, Const(0), replace(plan, n_points=25), sig,
                            tol=tol, check_id=f"equivariant-zero-term:r{r}:{cname}:{sym}"))
    # adjoint representation property on random elements
    rng = np.random.default_rng(np.random.PCG64(plan.seed + 23))
    gaps = []
    for _ in range(10):
        g1, g2 = action.random_element(rng), action.random_element(rng)
        A12 = adjoint_matrix(action, action.compose(g1, g2))
        prod = adjoint_matrix(action, g2) @ adjoint_matrix(action, g1)
        gaps.append(np.max(np.abs(A12 - prod)))
    out.append(_report("adjoint-representation-property", _worst(gaps), tol, plan,
                       n_points=10))
    # negative control: the raw base-point field value is never invariant
    # under the catalog actions
    raw = Var(FieldVar(sig.base_fields[0], 0, (0,) * sig.lattice_dim))
    out.append(_must_fail("negative-control:noninvariant",
                          invariance(add(ie, raw), 10), tol, plan,
                          note="non-invariant expression must fail the invariance test",
                          n_points=10))
    return out


SUITES = {
    "syzygy": suite_syzygy,
    "invariant-el": suite_invariant_el,
    "noether": suite_noether,
    "equivariance": suite_equivariance,
}


def suite_names():
    return list(SUITES) + ["all"]


def run_suite(b, name, plan, tol=None):
    """Reports of one suite, or of every suite in order for ``"all"``.

    A suite that raises :class:`ExprError` contributes one failed
    ``<suite>:error`` report carrying the message instead of its checks.
    The suites share one :func:`~lattice_frames.expr.run_memo`.
    """
    kw = {} if tol is None else {"tol": tol}
    out = []
    with run_memo():
        for suite in (SUITES if name == "all" else [name]):
            try:
                out.extend(SUITES[suite](b, plan, **kw))
            except ExprError as err:
                out.append(CheckReport(f"{suite}:error", "fail", math.nan, 0, plan.seed,
                                       note=str(err)))
    return out
