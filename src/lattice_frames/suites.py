"""Named verification suites over the catalog examples.

This module is the one place where a :class:`~lattice_frames.sampling.CheckReport`
of a suite is built and named: the frames and laws it checks come back from
their modules as expressions, pairs of sides or residuals.  Each suite runs
deterministic checks, one report per ``check`` call; the CLI ``verify``
command is a thin wrapper over these.  Every suite carries one deliberately
perturbed identity that must fail (negative control).  A check that raises
:class:`~lattice_frames.expr.ExprError` reports one failed
``<check_id>:error`` and the rest of its suite still runs.  The laws are
built inside a block check of their own, so an error there reports one
failed ``invariant-laws:error`` or ``equivariant-laws:error`` and the checks
that need no invariant law still run; other work several checks share is
built before them, and an error there reports ``<suite>:error``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

from .actions import (
    SYMMETRY_TOL,
    adjoint_matrix,
    check_variational_symmetry,
    invariance_residual,
)
from .calculus import DivergenceTuple, euler_lagrange, unit_step
from .expr import (
    Const,
    ExprError,
    FieldVar,
    Var,
    XVar,
    add,
    fieldvars,
    mul,
    run_memo,
    shift,
    substitute,
)
from .flows import integrate_lattice_flow, monitor_conserved
from .frames import (
    invariantize,
    maurer_cartan,
    mc_concatenated,
    mc_element,
    right_equivariance_residual,
    syzygy_operator_sides,
)
from .noether import (
    _adj_index,
    _adj_var,
    _expand_adj,
    compare_laws,
    divergence_equivalence_sides,
    equivariant_coefficients,
    equivariant_form,
    euler_kappa,
    invariant_euler_lagrange,
    noether_invariant,
    noether_original,
    offshell_residual,
)
from .parser import parse
from .sampling import CheckReport, identity_check, residual_stats

__all__ = ["SUITES", "run_suite", "suite_names"]

# the conservation drift each monitored sum may show, 1e-6 for one not named
DRIFT_TOLS = {"norm": 1e-8, "energy": 1e-6}


# the reports these build are named by the ``check`` that runs them
def _report(residual, tol, plan, note=""):
    """``plan`` is the one the residual's point set was drawn from."""
    return CheckReport.from_residual("", residual, tol, plan.n_points, plan.seed, note=note)


def _must_fail(residual, tol, plan, note):
    """A negative control: passes only when the residual is finite and above ``tol``."""
    ok = math.isfinite(residual) and residual > tol
    return CheckReport("", "pass" if ok else "fail", float(residual),
                       plan.n_points, plan.seed, note=note)


def _must_differ(lhs, rhs, plan, sig, tol):
    """A negative control: the perturbed identity ``lhs == rhs`` must fail."""
    bad = identity_check(lhs, rhs, plan, sig, tol=tol, check_id="nc")
    return _must_fail(bad.max_residual, tol, plan, note="perturbed identity must fail")


def _worst(residuals):
    """Largest residual; unlike Python's ``max``, a NaN is kept and fails."""
    return float(np.max(residuals))


def suite_syzygy(b, plan, check, tol=1e-10):
    inv = b.invset
    sig = inv.orig_sig
    for name, lhs, rhs in inv.syzygies:
        check(f"syzygy:{name}", lambda: identity_check(
            inv.expand(lhs), inv.expand(rhs), plan, sig, tol=tol))
    # recurrence targets against direct invariantization
    for target, stored in b.expected.get("recurrences", {}).items():
        fv = parse(target, sig).fv
        kexpr = inv.recurrence(fv)
        check(f"recurrence:{target}", lambda: identity_check(
            inv.expand(kexpr), invariantize(b.frame, Var(fv)), plan, sig, tol=tol))
        check(f"recurrence-stored:{target}", lambda: identity_check(
            inv.expand(kexpr), inv.expand(parse(stored, inv.kappa_sig)), plan, sig, tol=tol))
    # negative control: a perturbed syzygy must fail
    name, lhs, rhs = inv.syzygies[0]
    check(f"negative-control:{name}+1e-3", lambda: _must_differ(
        inv.expand(add(lhs, Const(1e-3))), inv.expand(rhs), plan, sig, tol))


def suite_invariant_el(b, plan, check, tol=1e-9):
    inv = b.invset
    sig = inv.orig_sig
    ksig = inv.kappa_sig
    # expand(L_kappa) must equal L / J (and plainly L when J = 1)
    check("lagrangian-invariant-form", lambda: identity_check(
        inv.expand(b.L_kappa), mul(b.L, inv.frame.dcal_inv), plan, sig, tol=tol))
    for beta in inv.H:
        check(f"syzygy-operator:{beta}", lambda: identity_check(
            *syzygy_operator_sides(inv, beta), plan, sig, tol=tol))
    # Euler operators in kappa space against the stored forms
    for beta, s in b.expected.get("euler_kappa", {}).items():
        check(f"euler-kappa:{beta}", lambda: identity_check(
            inv.expand(euler_kappa(b, beta)), inv.expand(parse(s, ksig)), plan, sig, tol=tol))
    el_inv = invariant_euler_lagrange(b)
    for fname in el_inv:
        check(f"invariant-el:{fname}", lambda: identity_check(
            inv.expand(el_inv[fname]),
            invariantize(inv.frame, euler_lagrange(b.L, fname, sig)), plan, sig, tol=tol))
    for fname, s in b.expected.get("el_invariant", {}).items():
        check(f"invariant-el-stored:{fname}", lambda: identity_check(
            inv.expand(el_inv[fname]), inv.expand(parse(s, ksig)), plan, sig, tol=tol))
    check("divergence-equivalence", lambda: identity_check(
        *divergence_equivalence_sides(b), plan, sig, tol=tol))
    # original Euler-Lagrange expressions against the stored displays
    for fname, s in b.expected.get("el_original", {}).items():
        check(f"el-stored:{fname}", lambda: identity_check(
            euler_lagrange(b.L, fname, sig), parse(s, sig), plan, sig, tol=tol))
    # negative control
    el0 = euler_lagrange(b.L, sig.base_fields[0], sig)
    check("negative-control:el+1e-3",
          lambda: _must_differ(el0, add(el0, Const(1e-3)), plan, sig, tol))


def suite_noether(b, plan, check, tol=1e-9):
    sig = b.sig
    inv = b.invset
    EL = {f: euler_lagrange(b.L, f, sig) for f in sig.base_fields}
    # r = 1..R are the action's generators, with invariant forms; the others follow
    gens = dict(enumerate(b.generators, 1))
    symmetry = {r: check_variational_symmetry(b.L, gen, sig, plan) for r, gen in gens.items()}
    originals = {r: noether_original(b.L, gen, r, sig)
                 for r, gen in gens.items() if symmetry[r] <= SYMMETRY_TOL}
    for r, gen in gens.items():
        label = gen.name or f"r{r}"
        if r not in originals:
            check(f"non-symmetry:{label}", lambda: _must_fail(
                symmetry[r], SYMMETRY_TOL, plan,
                note="generator must not be a variational symmetry"))
            continue
        law = originals[r]
        check(f"offshell-original:{label}", lambda: _report(
            offshell_residual(law, EL, gen, sig, plan), tol, plan))
        stored = b.expected.get("laws_original", {}).get(r) or {}
        for cname, comp in law.components.named():
            if cname in stored:
                check(f"law-stored:{label}:{cname}", lambda: identity_check(
                    comp, parse(stored[cname], sig), plan, sig, tol=tol))

    def invariant_laws():
        for law in noether_invariant(b):
            r = law.generator_index
            check(f"offshell-invariant:r{r}", lambda: _report(
                offshell_residual(law, EL, gens[r], sig, plan), tol, plan))
            if r in originals:
                # evaluated once for both checks; an error is each check's own
                match = functools.cache(lambda: compare_laws(originals[r], law, plan, sig))
                check(f"law-div-match:r{r}", lambda: _report(match()[0], tol, plan))
                check(f"law-components-match:r{r}", lambda: _report(
                    _worst(match()[1]), tol, plan, note="dx-measure components agree pointwise"))
            named = dict(law.components.named())
            for cname, s in (b.expected.get("laws_invariant", {}).get(r) or {}).items():
                check(f"law-stored-invariant:r{r}:{cname}", lambda: identity_check(
                    named[cname], inv.expand(parse(s, inv.kappa_sig)), plan, sig, tol=tol))

    check("invariant-laws", invariant_laws)
    cfg = b.integrate_config
    if cfg is not None:
        # one flow for every monitor; an error is each check's own
        drifts = functools.cache(lambda: integration_drifts(cfg))
        for label in sorted(cfg["monitors"]):
            check(f"integration-drift:{label}", lambda: CheckReport.from_residual(
                "", drifts()[label], DRIFT_TOLS.get(label, 1e-6), 1, 0, note=cfg.get("note", "")))
    # negative control: constants lie in the kernel of the difference
    # divergence, so perturb the first law with a field value instead
    def perturbed_law():
        if not originals:
            raise ExprError(f"no generator of {b.name!r} is a variational symmetry")
        r, law = next(iter(originals.items()))
        bump = Const(1e-2) * Var(FieldVar(sig.base_fields[0], 0, (0,) * sig.lattice_dim))
        broken = replace(law, components=DivergenceTuple(
            law.components.a0, tuple(add(c, bump) for c in law.components.comps)))
        return _must_fail(offshell_residual(broken, EL, gens[r], sig, plan), tol, plan,
                          note="perturbed components must break the identity")

    check("negative-control:perturbed-law", perturbed_law)


def integration_drifts(cfg):
    """Conservation drift of each monitored sum over one flow at the default configuration."""
    d = cfg["defaults"]
    state0 = cfg["initial_state"](d["n_sites"], d["h"])
    return monitor_conserved(integrate_lattice_flow(cfg["rhs"], state0, d["x_span"], d["dt"],
                                                    monitors=cfg["monitors"]))


def suite_equivariance(b, plan, check, tol=1e-8):
    sig = b.sig
    frame, action, inv = b.frame, b.action, b.invset
    # the sampled counts at the default 50 points, scaled with the plan's
    p10, p15, p20, p25 = (replace(plan, n_points=max(1, plan.n_points * k // 50))
                          for k in (10, 15, 20, 25))

    def invariance(e, p):
        rng = np.random.default_rng(np.random.PCG64(plan.seed + 17))
        return invariance_residual(e, action, p, rng, n_group=20)

    for k, (zexpr, c) in enumerate(frame.normalization):
        check(f"{frame.name}:normalization-{k}", lambda: identity_check(
            invariantize(frame, zexpr), Const(c), plan, sig, tol=tol))
    eq_plan = replace(plan, n_points=max(10, plan.n_points // 3))
    check(f"{frame.name}:right-equivariance", lambda: _report(
        right_equivariance_residual(frame, eq_plan), tol, eq_plan))
    ie = invariantize(frame, b.L)
    check("iota-projection", lambda: identity_check(
        ie, invariantize(frame, ie), p20, sig, tol=tol))
    check("iota-invariance", lambda: _report(invariance(ie, p20), tol, p20))
    # replacement rule on each generating invariant
    xr = invariantize(frame, XVar()) if sig.has_x else None
    for kname, kdef in inv.kappa_defs.items():
        check(f"replacement-rule:{kname}", lambda: identity_check(
            kdef, substitute(kdef, {fv: invariantize(frame, Var(fv))
                                    for fv in fieldvars(kdef)}, x_repl=xr),
            p20, sig, tol=tol))
    for i in range(sig.lattice_dim):
        check(f"maurer-cartan-invariance:{i+1}", lambda: _report(
            _worst([invariance(comp, p10) for comp in maurer_cartan(frame, i)]), tol, p10))
    if sig.lattice_dim == 2:
        check("maurer-cartan-concatenation", lambda: _report(_worst([
            residual_stats(l, r, p15.assignments([l, r], sig))
            for l, r in zip(mc_element(frame, (1, 1)), mc_concatenated(frame, 0, 1))]),
            tol, p15))
    if sig.differential:
        step = unit_step(0, sig.lattice_dim)
        check("dcal-shift-commutation", lambda: identity_check(
            frame.dcal(shift(ie, step, sig), sig), shift(frame.dcal(ie, sig), step, sig),
            p20, sig, tol=tol))
        check("projectable-frame", lambda: CheckReport(
            "", "pass" if frame.projectable else "fail", 0.0, 1, plan.seed))
    # equivariant law forms
    ksig = inv.kappa_sig

    def equivariant_laws():
        for law in noether_invariant(b):
            r = law.generator_index
            eq = equivariant_form(law, plan)
            # the divergence residual and the component residuals together
            check(f"equivariant-match:r{r}", lambda: _report(
                _worst(np.hstack(compare_laws(law, eq, plan, sig))), tol, plan))
            expected = b.expected.get("equivariant_coeffs", {}).get(r)
            if expected:
                for cname, row in equivariant_coefficients(eq):
                    want_row = expected.get(cname, {})
                    for sym, coeff in sorted(row.items()):
                        if sym in want_row:
                            check(f"equivariant-coeff:r{r}:{cname}:{sym}", lambda: identity_check(
                                inv.expand(coeff), inv.expand(parse(want_row[sym], ksig)),
                                p25, sig, tol=tol))
                        else:
                            # the display omits this term; it must die against the
                            # vanishing adjoint component it multiplies
                            term = coeff * _adj_var(_adj_index(sym), sig.lattice_dim)
                            check(f"equivariant-zero-term:r{r}:{cname}:{sym}",
                                  lambda: identity_check(
                                      _expand_adj(term, frame, r - 1), Const(0),
                                      p25, sig, tol=tol))

    check("equivariant-laws", equivariant_laws)
    # adjoint representation property on random elements
    rng = np.random.default_rng(np.random.PCG64(plan.seed + 23))
    pairs = [(action.random_element(rng), action.random_element(rng)) for _ in range(10)]
    check("adjoint-representation-property", lambda: CheckReport.from_residual("", _worst([
        np.max(np.abs(adjoint_matrix(action, action.compose(g1, g2))
                      - adjoint_matrix(action, g2) @ adjoint_matrix(action, g1)))
        for g1, g2 in pairs]), tol, len(pairs), plan.seed))
    # negative control: the raw base-point field value is never invariant
    # under the catalog actions
    raw = Var(FieldVar(sig.base_fields[0], 0, (0,) * sig.lattice_dim))
    check("negative-control:noninvariant", lambda: _must_fail(
        invariance(add(ie, raw), p10), tol, p10,
        note="non-invariant expression must fail the invariance test"))


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

    Each suite is called once, with ``check(check_id, run)``: ``check``
    calls ``run()`` at once and records the one report it returns under
    ``check_id``, or nothing when it returns None.  A ``run`` that raises
    :class:`ExprError` records one failed ``<check_id>:error`` report
    carrying the message instead, and the suite goes on to its next check.
    A suite call, and a block of checks that shares the laws it builds, is
    a check of its own that returns None: an error in that shared work
    records ``<suite>:error`` or ``<block>:error`` after the reports already
    decided.  The suites share one :func:`~lattice_frames.expr.run_memo`.
    """
    kw = {} if tol is None else {"tol": tol}
    out = []

    def check(check_id, run):
        try:
            got = run()
        except ExprError as err:
            check_id += ":error"
            got = CheckReport("", "fail", math.nan, 0, plan.seed, note=str(err))
        if got is not None:
            out.append(replace(got, check_id=check_id))

    with run_memo():
        for suite in (SUITES if name == "all" else [name]):
            check(suite, lambda: SUITES[suite](b, plan, check=check, **kw))
    return out
