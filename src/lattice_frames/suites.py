"""Named verification suites over the catalog examples.

Each suite is a list of deterministic checks returning
:class:`~lattice_frames.sampling.CheckReport`; the CLI ``verify`` command
and the acceptance tests are thin wrappers over these.  Every suite carries
one deliberately perturbed identity that must fail (negative control).
"""

from __future__ import annotations

import numpy as np

from .actions import adjoint_matrix, check_variational_symmetry, transform
from .calculus import deriv_op, euler_lagrange
from .expr import (
    Const,
    Var,
    XVar,
    add,
    evaluate,
    fieldvars,
    shift,
    substitute,
)
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
    compare_laws,
    equivariant_coefficients,
    equivariant_form,
    invariant_euler_lagrange,
    noether_invariant,
    noether_original,
    offshell_residual,
)
from .parser import parse
from .sampling import CheckReport, identity_check, relative_residual, residual_stats

__all__ = ["SUITES", "run_suite", "suite_names"]


def _report(check_id, residual, tol, plan, n_points=None, note=""):
    return CheckReport(check_id, "pass" if residual <= tol else "fail",
                       float(residual), n_points or plan.n_points, plan.seed, note=note)


def _worst(residuals):
    """Largest residual; unlike Python's ``max``, a NaN is kept and fails."""
    return float(np.max(residuals))


def _invariance_residual(e, action, sig, plan, n_points=20, n_group=20):
    """Max residual of e(g.z) = e(z) over n_group elements x n_points points."""
    rng = np.random.default_rng(np.random.PCG64(plan.seed + 17))
    pts = plan.with_(n_points=n_points).assignments([e], sig)

    def residual(a):
        bv = evaluate(e, a)
        moved = [evaluate(transform(e, action, action.random_element(rng), sig), a)
                 for _ in range(n_group)]
        return np.array(moved) - bv, [bv]

    return relative_residual(pts, residual)


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
    out.append(CheckReport(f"negative-control:{name}+1e-3",
                           "pass" if not bad.passed else "fail",
                           bad.max_residual, plan.n_points, plan.seed,
                           note="perturbed identity must fail"))
    return out


def suite_invariant_el(b, plan, tol=1e-9):
    inv = b.invset
    sig = inv.orig_sig
    ksig = inv.kappa_sig
    IL = b.lagrangian
    out = [IL.verify(plan, tol=tol)]
    _, reports = differential_syzygy_operators(inv, plan, tol=tol)
    out.extend(reports)
    # Euler operators in kappa space against the stored forms
    from .noether import euler_kappa
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
    from .noether import verify_divergence_equivalence
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
    out.append(CheckReport("negative-control:el+1e-3",
                           "pass" if not bad.passed else "fail",
                           bad.max_residual, plan.n_points, plan.seed,
                           note="perturbed identity must fail"))
    return out


def _laws(b, plan):
    sig = b.sig
    EL = {f: euler_lagrange(b.L, f, sig) for f in sig.base_fields}
    IL = b.lagrangian
    originals = {}
    for entry in b.generators:
        res = check_variational_symmetry(b.L, entry.gen, sig, plan)
        if res:
            originals[entry.index] = noether_original(
                b.L, entry.gen, entry.index, sig, plan, el_by_field=EL)
    invariants = {law.generator_index: law for law in noether_invariant(
        IL, b.invset.H, b.action, b.frame, plan,
        generators=[e.action_index for e in b.generators if e.action_index])}
    return EL, originals, invariants


def suite_noether(b, plan, tol=1e-9):
    sig = b.sig
    out = []
    EL, originals, invariants = _laws(b, plan)
    for entry in b.generators:
        label = entry.gen.name or f"r{entry.index}"
        if entry.index not in originals:
            res = check_variational_symmetry(b.L, entry.gen, sig, plan)
            out.append(CheckReport(f"non-symmetry:{label}",
                                   "pass" if not res else "fail",
                                   res.max_residual, plan.n_points, plan.seed,
                                   note="generator must not be a variational symmetry"))
            continue
        law = originals[entry.index]
        res = offshell_residual(law, EL, entry.gen, sig, plan)
        out.append(_report(f"offshell-original:{label}", res, tol, plan))
        stored = b.expected.get("laws_original", {}).get(entry.index)
        if stored:
            comps = [law.components.a0] if law.components.a0 is not None else []
            comps += list(law.components.comps)
            names = (["A0"] if law.components.a0 is not None else [])
            names += [f"A{i+1}" for i in range(len(law.components.comps))]
            for cname, comp in zip(names, comps):
                if cname in stored:
                    out.append(identity_check(comp, parse(stored[cname], sig), plan,
                                              sig, tol=tol,
                                              check_id=f"law-stored:{label}:{cname}"))
    for r, law in invariants.items():
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
            for cname, s in stored.items():
                comp = law.components.a0 if cname == "A0" else law.components.comps[int(cname[1:]) - 1]
                out.append(identity_check(comp, inv.expand(parse(s, inv.kappa_sig)),
                                          plan, sig, tol=tol,
                                          check_id=f"law-stored-invariant:r{r}:{cname}"))
    if b.integrate_config is not None:
        out.extend(integration_checks(b))
    # negative control: constants lie in the kernel of the difference
    # divergence, so perturb with a field value instead
    entry = b.generators[0]
    law = originals[entry.index]
    from .calculus import DivergenceTuple
    from .expr import FieldVar
    bump = Const(1e-2) * Var(FieldVar(sig.base_fields[0], 0, (0,) * sig.lattice_dim))
    broken = type(law)(entry.index, "original",
                       DivergenceTuple(law.components.a0,
                                       tuple(add(c, bump) for c in law.components.comps)),
                       measure="dx")
    res = offshell_residual(broken, EL, entry.gen, sig, plan)
    out.append(CheckReport("negative-control:perturbed-law",
                           "pass" if res > tol else "fail", res,
                           plan.n_points, plan.seed,
                           note="perturbed components must break the identity"))
    return out


def integration_checks(b, drift_tols=None):
    """Conservation drift of the monitored sums at the default configuration."""
    from .flows import integrate_lattice_flow, monitor_conserved
    cfg = b.integrate_config
    d = cfg["defaults"]
    if drift_tols is None:
        drift_tols = {"norm": 1e-8, "energy": 1e-6}
    state0 = cfg["initial_state"](d["n_sites"], d["h"])
    traj = integrate_lattice_flow(cfg["rhs"], state0, d["x_span"], d["dt"],
                                  monitors=cfg["monitors"])
    drifts = monitor_conserved(traj)
    out = []
    for label in sorted(drifts):
        tol = drift_tols.get(label, 1e-6)
        out.append(CheckReport(f"integration-drift:{label}",
                               "pass" if drifts[label] <= tol else "fail",
                               drifts[label], 1, 0, note=cfg.get("note", "")))
    return out


def suite_equivariance(b, plan, tol=1e-8):
    sig = b.sig
    frame, action, inv = b.frame, b.action, b.invset
    out = list(verify_frame(frame, plan, sig, tol=tol))
    probe = b.L
    ie = invariantize(frame, probe, sig)
    out.append(identity_check(ie, invariantize(frame, ie, sig),
                              plan.with_(n_points=20), sig, tol=tol,
                              check_id="iota-projection"))
    out.append(_report("iota-invariance",
                       _invariance_residual(ie, action, sig, plan), tol, plan))
    # replacement rule on each generating invariant
    xr = invariantize(frame, XVar(), sig) if sig.has_x else None
    for kname, kdef in inv.kappa_defs.items():
        rules = {fv: invariantize(frame, Var(fv), sig) for fv in fieldvars(kdef)}
        out.append(identity_check(kdef, substitute(kdef, rules, x_repl=xr),
                                  plan.with_(n_points=20), sig, tol=tol,
                                  check_id=f"replacement-rule:{kname}"))
    for i in range(sig.lattice_dim):
        K = maurer_cartan(frame, i, sig)
        worst = _worst([_invariance_residual(comp, action, sig, plan, n_points=10)
                        for comp in K])
        out.append(_report(f"maurer-cartan-invariance:{i+1}", worst, tol, plan))
    if sig.lattice_dim == 2:
        lhs = mc_element(frame, (1, 1), sig)
        rhs = mc_concatenated(frame, 0, 1, sig)
        worst = _worst([residual_stats(l, r, plan.with_(n_points=15).assignments([l, r], sig))
                        for l, r in zip(lhs, rhs)])
        out.append(_report("maurer-cartan-concatenation", worst, tol, plan))
    if sig.differential:
        dc = frame.dcal_inv
        step = tuple(1 if k == 0 else 0 for k in range(sig.lattice_dim))
        lhs = deriv_op(shift(ie, step, sig), sig, dc)
        rhs = shift(deriv_op(ie, sig, dc), step, sig)
        out.append(identity_check(lhs, rhs, plan.with_(n_points=20), sig, tol=tol,
                                  check_id="dcal-shift-commutation"))
        out.append(CheckReport("projectable-frame",
                               "pass" if frame.projectable else "fail",
                               0.0, 1, plan.seed))
    # equivariant law forms
    EL, originals, invariants = _laws(b, plan)
    ksig = inv.kappa_sig
    for r, law in invariants.items():
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
                            inv.expand(coeff), want, plan.with_(n_points=25), sig,
                            tol=tol, check_id=f"equivariant-coeff:r{r}:{cname}:{sym}"))
                    else:
                        # the display omits this term; it must die against the
                        # vanishing adjoint component it multiplies
                        from .noether import _adj_var, _expand_adj
                        term = coeff * _adj_var(int(sym[3:]), sig.lattice_dim)
                        expanded = _expand_adj(term, frame, r - 1, sig)
                        out.append(identity_check(
                            expanded, Const(0), plan.with_(n_points=25), sig,
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
    from .expr import FieldVar
    raw = Var(FieldVar(sig.base_fields[0], 0, (0,) * sig.lattice_dim))
    bad = _invariance_residual(add(ie, raw), action, sig, plan, n_points=10)
    out.append(CheckReport("negative-control:noninvariant",
                           "pass" if bad > tol else "fail", bad,
                           plan.n_points, plan.seed,
                           note="non-invariant expression must fail the invariance test"))
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
    kw = {} if tol is None else {"tol": tol}
    if name == "all":
        out = []
        for fn in SUITES.values():
            out.extend(fn(b, plan, **kw))
        return out
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](b, plan, **kw)
