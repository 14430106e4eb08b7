import itertools
from dataclasses import replace

import numpy as np
import pytest

from lattice_frames import frames
from lattice_frames.actions import GroupAction, invariance_residual, transform
from lattice_frames.calculus import deriv_op
from lattice_frames.catalog import EXAMPLES, get_example
from lattice_frames.expr import (
    Assignment,
    Const,
    ExprError,
    FieldVar,
    ProblemSignature,
    Var,
    XVar,
    evaluate,
    fieldvars,
    mul,
    run_memo,
    shift,
    substitute,
)
from lattice_frames.frames import (
    invariantize,
    maurer_cartan,
    mc_concatenated,
    mc_element,
    right_equivariance_residual,
    syzygy_operator_sides,
)
from lattice_frames.parser import parse
from lattice_frames.sampling import identity_check, residual_stats
from lattice_frames.suites import SUITES, run_suite
from oracles import expr_trees, non_projectable_frame, reference_substitute


def fv(name, *K, d=0):
    return FieldVar(name, d, tuple(K))


def V(name, *K, d=0):
    return Var(fv(name, *K, d=d))


def frame_checks(frame, plan, sig, n_group=10):
    """The normalization reports, then the right-equivariance residual, of ``frame``."""
    reports = [identity_check(invariantize(frame, z), Const(c), plan, sig, tol=1e-8)
               for z, c in frame.normalization]
    return reports, right_equivariance_residual(frame, plan, n_group=n_group)


def syzygy_check(invset, syzygy, plan, tol):
    """Both sides of a kappa-space syzygy expanded to original variables and compared."""
    _, lhs, rhs = syzygy
    return identity_check(invset.expand(lhs), invset.expand(rhs), plan, invset.orig_sig, tol=tol)


def syzygy_operator_checks(invset, plan):
    """One report per row of H, named as the invariant-el suite names it."""
    return [identity_check(*syzygy_operator_sides(invset, beta), plan, invset.orig_sig,
                           check_id=f"syzygy-operator:{beta}") for beta in invset.H]


class TestSolveFrame:
    def test_toda_closed_form(self, toda, toda_plan):
        frame = toda.frame
        a_want = parse("-u[0,0]/(u[1,1]-u[0,0])", toda.sig)
        b_want = parse("1/(u[1,1]-u[0,0])", toda.sig)
        for got, want in zip(frame.param_exprs, (a_want, b_want)):
            assert residual_stats(got, want,
                                  toda_plan.assignments([got], toda.sig)) <= 1e-12

    def test_ex81_closed_form(self, ex81, ex81_plan):
        frame = ex81.frame
        a_want = parse("-u[0]/x", ex81.sig)
        b_want = parse("1/x", ex81.sig)
        for got, want in zip(frame.param_exprs, (a_want, b_want)):
            assert residual_stats(got, want,
                                  ex81_plan.assignments([got], ex81.sig)) <= 1e-12

    def test_nls_closed_form(self, nls, nls_plan):
        frame = nls.frame
        want = (parse("-x", nls.sig),
                parse("u[0]/sqrt(u[0]^2+v[0]^2)", nls.sig),
                parse("v[0]/sqrt(u[0]^2+v[0]^2)", nls.sig))
        for got, w in zip(frame.param_exprs, want):
            assert residual_stats(got, w, nls_plan.assignments([got], nls.sig)) <= 1e-12

    def test_verification_runs(self, toda, ex81, nls):
        for b in (toda, ex81, nls):
            reports, residual = frame_checks(b.frame, b.plan(), b.sig)
            assert all(r.passed for r in reports) and residual <= 1e-8, b.name

    @pytest.mark.parametrize("name", ["toda", "ex81", "nls"])
    def test_right_equivariance_matches_pointwise_reference(self, name):
        # the residual evaluated point by point, one group element at a time
        b = get_example(name)
        frame, action, sig, plan = b.frame, b.action, b.sig, b.plan(seed=7)
        rng = np.random.default_rng(np.random.PCG64(plan.seed + 1))
        pts = replace(plan, n_points=16).assignments(list(frame.param_exprs), sig)
        needed = set().union(*map(fieldvars, frame.param_exprs))
        worst = 0.0
        for _ in range(10):
            g = action.random_element(rng)
            for a in pts:
                values = {fv: evaluate(transform(Var(fv), action, g), a) for fv in needed}
                x = evaluate(transform(XVar(), action, g), a) if sig.has_x else a.x
                at = Assignment(values, x=x, params=a.params, base=a.base, alt=a.alt)
                lhs = [evaluate(p, at) for p in frame.param_exprs]
                rho = [evaluate(p, a) for p in frame.param_exprs]
                rhs = action.compose(rho, action.inverse(g))
                worst = max([worst] + [abs(lv - rv) / max(1.0, abs(lv), abs(rv))
                                       for lv, rv in zip(lhs, rhs)])
        assert right_equivariance_residual(frame, replace(plan, n_points=16)) == worst

    @pytest.mark.parametrize("name", ["toda", "ex81", "nls"])
    def test_transforms_each_parameter_once(self, name, monkeypatch):
        # one pull-back per normalization equation, one per frame parameter
        b = get_example(name)
        calls = []

        def counted(*args):
            calls.append(args)
            return transform(*args)

        monkeypatch.setattr(frames, "transform", counted)
        for n_group in (5, 20):
            calls.clear()
            reports, residual = frame_checks(b.frame, b.plan(), b.sig, n_group=n_group)
            assert all(r.passed for r in reports) and residual <= 1e-8
            assert len(calls) == len(b.frame.normalization) + len(b.frame.param_exprs)


class TestInvariantize:
    def test_toda_general_coordinate(self, toda, toda_plan):
        got = invariantize(toda.frame, V("u", 2, -1))
        want = parse("(u[2,-1]-u[0,0])/(u[1,1]-u[0,0])", toda.sig)
        r = identity_check(got, want, toda_plan, toda.sig, tol=1e-12)
        assert r.passed

    def test_normalized_coordinate_is_zero(self, toda, toda_plan):
        got = invariantize(toda.frame, V("u", 0, 0))
        r = identity_check(got, Const(0), toda_plan, toda.sig, tol=1e-12)
        assert r.passed

    def test_t_extension_sigma(self, toda, toda_plan):
        got = invariantize(toda.frame, V("u_t", 0, 0))
        want = toda.invset.sigma_defs["sigma"]
        r = identity_check(got, want, toda_plan, toda.sig, tol=1e-12)
        assert r.passed

    def test_projection_property(self, toda, ex81, nls):
        for b in (toda, ex81, nls):
            plan = b.plan(n_points=20, seed=6)
            ie = invariantize(b.frame, b.L)
            iie = invariantize(b.frame, ie)
            r = identity_check(ie, iie, plan, b.sig, tol=1e-8)
            assert r.passed, b.name

    def test_invariance_under_group(self, toda, ex81, nls):
        rng = np.random.default_rng(10)
        for b in (toda, ex81, nls):
            plan = b.plan(n_points=20, seed=7)
            ie = invariantize(b.frame, b.L)
            pts = plan.assignments([ie], b.sig)
            for a in pts:
                g = b.action.random_element(rng)
                te = transform(ie, b.action, g)
                lv, rv = evaluate(te, a), evaluate(ie, a)
                assert abs(lv - rv) <= 1e-8 * max(1.0, abs(rv)), b.name

    def test_generating_invariants_are_invariant(self, toda, ex81, nls):
        rng = np.random.default_rng(77)
        for b in (toda, ex81, nls):
            plan = b.plan(n_points=10, seed=14)
            for kname, kdef in b.invset.kappa_defs.items():
                pts = plan.assignments([kdef], b.sig)
                for a in pts:
                    g = b.action.random_element(rng)
                    tv = evaluate(transform(kdef, b.action, g), a)
                    cv = evaluate(kdef, a)
                    assert abs(tv - cv) <= 1e-9 * max(1.0, abs(cv)), (b.name, kname)

    def test_replacement_rule(self, toda, ex81, nls):
        for b in (toda, ex81, nls):
            plan = b.plan(n_points=20, seed=8)
            xr = invariantize(b.frame, XVar()) if b.sig.has_x else None
            for kname, kdef in b.invset.kappa_defs.items():
                rules = {w: invariantize(b.frame, Var(w)) for w in fieldvars(kdef)}
                rep = substitute(kdef, rules, x_repl=xr)
                r = identity_check(kdef, rep, plan, b.sig, tol=1e-8)
                assert r.passed, (b.name, kname)

    def test_jacobian_factor_ex81(self, ex81, ex81_plan):
        # iota(dx) = dx/x, so the invariant derivative is x D
        frame = ex81.frame
        assert frame.dcal_inv == XVar()
        got = frame.jacobian_factor
        want = parse("1/x", ex81.sig)
        assert residual_stats(got, want, ex81_plan.assignments([got], ex81.sig)) <= 1e-14

    def test_dcal_invariance(self, ex81, ex81_plan):
        # Dcal of an invariant stays invariant
        rng = np.random.default_rng(30)
        ie = invariantize(ex81.frame, ex81.L)
        de = ex81.frame.dcal(ie, ex81.sig)
        pts = replace(ex81_plan, n_points=15).assignments([de], ex81.sig)
        for a in pts:
            g = ex81.action.random_element(rng)
            td = transform(de, ex81.action, g)
            lv, rv = evaluate(td, a), evaluate(de, a)
            assert abs(lv - rv) <= 1e-8 * max(1.0, abs(rv))

    def test_dcal_shift_commutation(self, ex81, nls):
        for b in (ex81, nls):
            plan = b.plan(n_points=20, seed=9)
            ie = invariantize(b.frame, b.L)
            lhs = b.frame.dcal(shift(ie, (1,), b.sig), b.sig)
            rhs = shift(b.frame.dcal(ie, b.sig), (1,), b.sig)
            r = identity_check(lhs, rhs, plan, b.sig, tol=1e-8)
            assert r.passed, b.name

    def test_projectable_flags(self, toda, ex81, nls):
        assert toda.frame.projectable
        assert ex81.frame.projectable
        assert nls.frame.projectable

    def test_non_projectable_frame_fails_the_shift_commutation(self, ex81, ex81_plan):
        # a valid frame for ex81's action whose b depends on u: the
        # commutation identity, checked as the equivariance suite checks it, fails
        sig = ex81.sig
        frame = non_projectable_frame(ex81.action)
        reports, residual = frame_checks(frame, ex81_plan, sig)
        assert reports and all(r.passed for r in reports) and residual <= 1e-8
        assert not frame.projectable
        ie = invariantize(frame, ex81.L)
        lhs = frame.dcal(shift(ie, (1,), sig), sig)
        rhs = shift(frame.dcal(ie, sig), (1,), sig)
        r = identity_check(lhs, rhs, ex81.plan(n_points=20, seed=31337), sig, tol=1e-8)
        assert not r.passed and np.isfinite(r.max_residual) and r.max_residual > 1e-2

    def test_non_projectable_frame_fails_closed_in_every_suite(self, ex81):
        # the kappa expansion composes S_K Dcal^j, which equals Dcal^j S_K only
        # on a projectable frame: no law is built in the wrong order
        frame = non_projectable_frame(ex81.action)
        b = replace(ex81, invset=replace(ex81.invset, frame=frame))
        with pytest.raises(ExprError, match="not projectable"):
            b.invset.expand_var(FieldVar(b.invset.kappa_names[0], 1, (1,)))
        reports = run_suite(b, "all", b.plan(seed=31337))
        errors = [r.check_id for r in reports if r.check_id.endswith(":error")]
        assert all(not r.passed and "not projectable" in r.note
                   for r in reports if r.check_id in errors)
        # each check that expands a kappa symbol fails on its own; the laws are
        # built in a block check of their own, so the checks after them still run
        assert {"syzygy:shifted-k1:error", "negative-control:shifted-k1+1e-3:error",
                "invariant-el:u:error", "divergence-equivalence:error"} <= set(errors)
        assert [e for e in errors if e.removesuffix(":error") in SUITES] == []
        assert [e for e in errors if e.endswith("-laws:error")] == [
            "invariant-laws:error", "equivariant-laws:error"]
        passed = {r.check_id for r in reports if r.passed}
        assert {"offshell-original:v1", "offshell-original:v2", "law-stored:v1:A0",
                "law-stored:v2:A1", "negative-control:perturbed-law",
                "adjoint-representation-property", "negative-control:noninvariant"} <= passed
        assert (len(reports), len(passed)) == (39, 20)
        assert not {r.check_id: r for r in reports}["projectable-frame"].passed

    def test_a_bundle_holds_one_frame(self, ex81):
        # the bundle reads its frame from the invariant set: it has no copy to set
        with pytest.raises(TypeError):
            replace(ex81, frame=non_projectable_frame(ex81.action))

    def test_the_frame_checks_read_the_invariant_sets_frame(self, ex81):
        frame = non_projectable_frame(ex81.action)
        b = replace(ex81, invset=replace(ex81.invset, frame=frame))
        assert b.frame is frame and b.action is ex81.action and b.sig is ex81.sig
        reports = {r.check_id: r for r in run_suite(b, "equivariance", b.plan(seed=31337))}
        assert not reports["projectable-frame"].passed
        assert not reports["dcal-shift-commutation"].passed

    @pytest.mark.parametrize("name", ["toda", "ex81", "nls"])
    def test_catalog_frames_expand_every_kappa(self, name):
        b = get_example(name)
        inv, m = b.invset, b.sig.lattice_dim
        assert b.frame.projectable
        for k in inv.kappa_names:
            assert inv.expand_var(FieldVar(k, int(b.sig.differential), (1,) * m)) is not None

    def test_wrong_dcal_inv_in_x_alone_fails_the_suite(self, ex81):
        # x commutes with every shift, so dcal-shift-commutation passes for 2x
        # as for x; the checks that build on the invariant derivative fail
        frame = replace(ex81.frame, dcal_inv=mul(2, XVar()))
        b = replace(ex81, invset=replace(ex81.invset, frame=frame))
        reports = {r.check_id: r for r in run_suite(b, "all", b.plan(seed=31337))}
        assert reports["dcal-shift-commutation"].passed
        failed = {c for c, r in reports.items() if not r.passed}
        assert {"lagrangian-invariant-form", "syzygy:shifted-k1"} <= failed


class TestMaurerCartan:
    def test_affine_components_invariant(self, toda, toda_plan):
        rng = np.random.default_rng(11)
        for i in range(2):
            K = maurer_cartan(toda.frame, i)
            pts = replace(toda_plan, n_points=10).assignments(list(K), toda.sig)
            for a in pts:
                g = toda.action.random_element(rng)
                for comp in K:
                    tv = evaluate(transform(comp, toda.action, g), a)
                    cv = evaluate(comp, a)
                    assert abs(tv - cv) <= 1e-8 * max(1.0, abs(cv))

    def test_trivial_action_identity_element(self):
        sig = ProblemSignature(("u",), 1)
        trivial = GroupAction(
            name="trivial", sig=sig, param_names=(), identity_values=(),
            u_maps={"u": Var(FieldVar("u", 0, (0,)))},
            compose_fn=lambda g1, g2: (), inverse_fn=lambda g: ())
        from lattice_frames.frames import Frame
        frame = Frame("trivial-frame", trivial, (), ())
        assert maurer_cartan(frame, 0) == ()

    def test_concatenation(self, toda, toda_plan):
        lhs = mc_element(toda.frame, (1, 1))
        rhs = mc_concatenated(toda.frame, 0, 1)
        for l, r in zip(lhs, rhs):
            assert residual_stats(l, r, replace(toda_plan, n_points=15)
                                  .assignments([l, r], toda.sig)) <= 1e-10


def _recurrence_rows(b):
    """``(fv, recurrence)`` for every coordinate of ``b.sig`` with shifts in [-2, 2]^m
    and derivative order 0..3 that the catalog recurrence covers."""
    derivs = range(4) if b.sig.differential else range(1)
    for name in b.sig.fields:
        for K in itertools.product(range(-2, 3), repeat=b.sig.lattice_dim):
            for j in derivs:
                rec = b.invset.recurrence(FieldVar(name, j, K))
                if rec is not None:
                    yield FieldVar(name, j, K), rec


def _recurrence_check(b, coord, rec, plan):
    inv = b.invset
    return identity_check(inv.expand(rec), invariantize(b.frame, Var(coord)), plan,
                          b.sig, tol=1e-9, check_id=f"recurrence:{coord}")


class TestRecurrences:
    def test_toda_u21(self, toda, toda_plan):
        got = toda.invset.recurrence(fv("u", 2, 1))
        want = parse(toda.expected["recurrences"]["u[2,1]"], toda.invset.kappa_sig)
        lhs = toda.invset.expand(got)
        r = identity_check(lhs, toda.invset.expand(want), toda_plan, toda.sig, tol=1e-10)
        assert r.passed
        # and against direct invariantization
        r = identity_check(lhs, invariantize(toda.frame, V("u", 2, 1)),
                           toda_plan, toda.sig, tol=1e-10)
        assert r.passed

    def test_toda_normalized(self, toda, toda_plan):
        got = toda.invset.recurrence(fv("u", 1, 1))
        assert got == Const(1)

    def test_toda_far_target(self, toda, toda_plan):
        got = toda.invset.recurrence(fv("u", -2, 2))
        lhs = toda.invset.expand(got)
        rhs = invariantize(toda.frame, V("u", -2, 2))
        r = identity_check(lhs, rhs, toda_plan, toda.sig, tol=1e-9)
        assert r.passed, r.max_residual

    def test_ex81_syzygy_form(self, ex81, ex81_plan):
        # iota(u_{1;1}) = k1_{0;1}, which the syzygy rewrites as k1 + k2_{1;0} + k2
        got = ex81.invset.recurrence(fv("u", 1, d=1))
        inv = ex81.invset
        rhs = inv.expand(parse("k1[0;0] + k2[1;0] + k2[0;0]", inv.kappa_sig))
        r = identity_check(inv.expand(got), rhs, ex81_plan, ex81.sig, tol=1e-10)
        assert r.passed

    def test_unreachable(self, ex81):
        assert ex81.invset.recurrence(fv("u", 0, d=4)) is None

    def test_nls_table(self, nls, nls_plan):
        for name, k in (("u", 1), ("u", -1), ("v", 1), ("v", -1)):
            got = nls.invset.recurrence(fv(name, k))
            lhs = nls.invset.expand(got)
            rhs = invariantize(nls.frame, V(name, k))
            r = identity_check(lhs, rhs, nls_plan, nls.sig, tol=1e-9)
            assert r.passed, (name, k, r.max_residual)

    @pytest.mark.parametrize("name, n_rows", [("toda", 50), ("ex81", 30), ("nls", 12)])
    def test_every_row_matches_invariantization(self, name, n_rows):
        b = get_example(name)
        plan = b.plan(seed=7)
        reports = [_recurrence_check(b, c, rec, plan) for c, rec in _recurrence_rows(b)]
        assert len(reports) == n_rows
        assert [r.check_id for r in reports if not r.passed] == []

    def test_kappa_and_lambda_swapped_fail(self, toda):
        # negative control: every row the swap changes must fail
        plan = toda.plan(seed=7)
        swap = {"kappa": "lambda", "lambda": "kappa"}
        changed = []
        for coord, rec in _recurrence_rows(toda):
            bad = substitute(rec, {v: Var(FieldVar(swap[v.name], v.deriv, v.shift))
                                   for v in fieldvars(rec) if v.name in swap})
            if bad is not rec:
                changed.append(_recurrence_check(toda, coord, bad, plan))
        assert len(changed) == 47
        assert [r.check_id for r in changed if r.passed] == []


class TestProlongation:
    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_expand_var_commutes_shifts_and_the_invariant_derivative(self, name):
        # on a projectable frame S_K Dcal^j kappa = Dcal^j S_K kappa, node for node
        inv = EXAMPLES[name].invset
        sig, m = inv.orig_sig, inv.orig_sig.lattice_dim
        assert inv.frame.projectable
        n = 0
        for kname, base in {**inv.kappa_defs, **inv.sigma_defs}.items():
            for j in range(3 if sig.differential else 1):
                for K in itertools.product(range(-2, 3), repeat=m):
                    got = inv.expand_var(FieldVar(kname, j, K))
                    assert got is deriv_op(shift(base, K, sig), sig, j,
                                           inv.frame.dcal), (kname, j, K)
                    n += 1
        assert n == {"toda": 75, "ex81": 45, "nls": 75}[name]


def _commutation_reports(frame, plan):
    """Dcal S_k iota(e) against S_k Dcal iota(e) for 25 generated trees e, k = +-1.

    A draw that raises an ``ExprError`` (a tree singular on the whole chart,
    or a shift past the signature's radius) is skipped.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    sig = frame.action.sig
    reports = []

    @hypothesis.settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @hypothesis.given(e=expr_trees(sig, max_leaves=8), k=st.sampled_from([1, -1]))
    def check(e, k):
        try:
            ie = invariantize(frame, e)
            lhs = frame.dcal(shift(ie, (k,), sig), sig)
            rhs = shift(frame.dcal(ie, sig), (k,), sig)
            reports.append(identity_check(lhs, rhs, plan, sig, tol=1e-8))
        except ExprError:
            hypothesis.assume(False)

    check()
    return reports


class TestProjectableFrameOnGeneratedTrees:
    """The paper's projectable-frame theorem: Dcal commutes with the shifts."""

    @pytest.mark.parametrize("name", ["ex81", "nls"])
    def test_dcal_commutes_with_the_shifts(self, name):
        b = get_example(name)
        reports = _commutation_reports(b.frame, b.plan(n_points=20, seed=9))
        assert len(reports) >= 10
        assert all(r.passed for r in reports), [r.max_residual for r in reports]

    @pytest.mark.parametrize("name", ["ex81", "nls"])
    def test_non_projectable_frame_fails_on_a_draw(self, name):
        b = get_example(name)
        frame = non_projectable_frame(b.action)
        assert not frame.projectable
        reports = _commutation_reports(frame, b.plan(n_points=20, seed=9))
        assert any(not r.passed and 1e-2 < r.max_residual < np.inf for r in reports)


def _invariantized_trees(b, n=25):
    """``(e, iota(e))`` for ``n`` generated trees ``e`` whose iota(e) is finite on ``b``'s points.

    A draw whose iota(e) raises an ``ExprError`` or is not finite at every
    point of ``b.plan(n_points=20, seed=9)`` (a sqrt of a negative value, a
    ln or a division at 0, an overflow) is skipped: the catalog's chart
    guards are not widened for it.
    """
    hypothesis = pytest.importorskip("hypothesis")
    plan, out = b.plan(n_points=20, seed=9), []

    @hypothesis.settings(derandomize=True, max_examples=n, deadline=None, database=None)
    @hypothesis.given(e=expr_trees(b.sig, max_leaves=8))
    def draw(e):
        try:
            ie = invariantize(b.frame, e)
            finite = np.isfinite(evaluate(ie, plan.assignments([ie], b.sig))).all()
        except ExprError:
            finite = False
        hypothesis.assume(finite)
        out.append((e, ie))

    draw()
    return plan, out


class TestInvariantizationOnGeneratedTrees:
    """iota is a projection onto the invariants, on each catalog frame."""

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_iota_is_idempotent_and_invariant(self, name):
        b = get_example(name)
        rng = np.random.default_rng(5)
        with run_memo():
            plan, trees = _invariantized_trees(b)
            again = [identity_check(invariantize(b.frame, ie), ie, plan, b.sig, tol=1e-8)
                     for _, ie in trees]
            moved = [invariance_residual(ie, b.action, plan, rng, n_group=5) for _, ie in trees]
            # the control: a tree before iota is moved by the group
            raw = []
            for e, _ in trees:
                try:
                    raw.append(invariance_residual(e, b.action, plan, rng, n_group=5))
                except ExprError:   # e itself singular at a point
                    pass
        assert len(trees) == 25
        assert all(r.passed for r in again), [r.max_residual for r in again]
        assert max(moved) <= 1e-8, moved
        assert any(r > 1e-2 for r in raw), raw


    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_iota_of_each_coordinate_substituted_is_iota(self, name):
        # iota e by transform is e with iota of each coordinate substituted, built
        # by the package's walker and by the reference's unpruned walk alike
        b = get_example(name)
        with run_memo():
            _, trees = _invariantized_trees(b)
            for e, ie in trees:
                rules = {fv: invariantize(b.frame, Var(fv)) for fv in fieldvars(e)}
                x_repl = invariantize(b.frame, XVar()) if b.sig.has_x else None
                assert reference_substitute(e, rules, x_repl) is ie, e
                assert substitute(e, rules, x_repl) is ie, e


class TestSyzygies:
    def test_toda_syzygy(self, toda, toda_plan):
        r = syzygy_check(toda.invset, toda.invset.syzygies[0], toda_plan, tol=1e-10)
        assert r.passed

    def test_reflexive(self, toda, toda_plan):
        k = parse("kappa[0,0]", toda.invset.kappa_sig)
        r = syzygy_check(toda.invset, ("reflexive", k, k), toda_plan, tol=1e-15)
        assert r.passed and r.max_residual == 0.0

    def test_ex81(self, ex81, ex81_plan):
        r = syzygy_check(ex81.invset, ex81.invset.syzygies[0], ex81_plan, tol=1e-10)
        assert r.passed

    def test_nls_phi_syzygy(self, nls, nls_plan):
        r = syzygy_check(nls.invset, nls.invset.syzygies[0], nls_plan, tol=1e-9)
        assert r.passed


class TestSyzygyOperators:
    def test_toda_three_terms_each(self, toda, toda_plan):
        reports = syzygy_operator_checks(toda.invset, toda_plan)
        assert all(r.passed for r in reports)
        H = toda.invset.H
        assert len(H["kappa"]["sigma"].terms) == 3
        assert len(H["lambda"]["sigma"].terms) == 3

    def test_ex81_forms(self, ex81, ex81_plan):
        reports = syzygy_operator_checks(ex81.invset, ex81_plan)
        assert all(r.passed for r in reports)
        H = ex81.invset.H
        assert {(K, j) for _, K, j in H["k1"]["sigma"].terms} == {((0,), 1), ((0,), 0)}
        assert {(K, j) for _, K, j in H["k2"]["sigma"].terms} == {((1,), 0), ((0,), 0)}

    def test_nls_k1_row_is_identity(self, nls, nls_plan):
        reports = syzygy_operator_checks(nls.invset, nls_plan)
        assert all(r.passed for r in reports)
        row = nls.invset.H["k1"]
        assert row["sigma_v"] is None
        assert row["sigma_u"].terms == ((Const(1), (0,), 0),)

    def test_failure_reported(self, broken_toda, toda_plan):
        # the failed row does not stop the verification of the next one
        reports = syzygy_operator_checks(broken_toda.invset, toda_plan)
        assert [(r.check_id, r.status) for r in reports] == [
            ("syzygy-operator:kappa", "fail"), ("syzygy-operator:lambda", "pass")]
        assert reports[0].max_residual > 1e-3

