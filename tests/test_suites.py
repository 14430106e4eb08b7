"""Suite-level reporting: every check runs once, and no check aborts its suite."""

import math
from collections import Counter

import pytest

from lattice_frames import noether, suites
from lattice_frames.actions import SYMMETRY_TOL, invariance_residual
from lattice_frames.expr import Const, ExprError, SingularEvaluationError
from lattice_frames.frames import invariantize
from lattice_frames.sampling import CheckReport, identity_check
from lattice_frames.suites import SUITES, run_suite


def test_all_is_the_single_suites_in_order(ex81):
    plan = ex81.plan(n_points=15)
    single = [r.to_dict() for name in SUITES for r in run_suite(ex81, name, plan)]
    assert [r.to_dict() for r in run_suite(ex81, "all", plan)] == single


def test_raising_suite_reports_one_error_and_the_rest_still_run(ex81, monkeypatch):
    plan = ex81.plan(n_points=15)
    want = [r.to_dict() for r in run_suite(ex81, "all", plan)]

    calls = []

    def exhausted(*args, **kw):
        # the first identity of the run is the first syzygy
        calls.append(args)
        if len(calls) == 1:
            raise ExprError("guards rejected every candidate")
        return identity_check(*args, **kw)

    monkeypatch.setattr(suites, "identity_check", exhausted)
    err, *rest = run_suite(ex81, "all", plan)
    assert (err.check_id, err.status, err.note) == (
        "syzygy:shifted-k1:error", "fail", "guards rejected every candidate")
    assert math.isnan(err.max_residual) and (err.n_points, err.seed) == (0, plan.seed)
    # the rest of the syzygy suite, then every other suite
    assert want[0]["check_id"] == "syzygy:shifted-k1"
    assert [r.to_dict() for r in rest] == want[1:]


def test_raising_check_keeps_the_rest_of_its_suite(ex81, monkeypatch):
    plan = ex81.plan(seed=31337)
    want = [r.to_dict() for r in run_suite(ex81, "invariant-el", plan)]

    def singular(*args, **kw):
        raise SingularEvaluationError("division by zero")

    monkeypatch.setattr(suites, "divergence_equivalence_sides", singular)
    got = run_suite(ex81, "invariant-el", plan)
    assert len(got) == len(want) == 10
    at = [r["check_id"] for r in want].index("divergence-equivalence")
    assert want[at + 1:] and [r["check_id"] for r in want[at + 1:]] == [
        "el-stored:u", "negative-control:el+1e-3"]
    err = got[at]
    assert (err.check_id, err.status, err.note) == (
        "divergence-equivalence:error", "fail", "division by zero")
    assert math.isnan(err.max_residual) and (err.n_points, err.seed) == (0, 31337)
    assert [r.to_dict() for r in got[:at] + got[at + 1:]] == want[:at] + want[at + 1:]


def test_raising_shared_work_keeps_the_reports_before_it(ex81, monkeypatch):
    plan = ex81.plan(n_points=15)
    want = [r.to_dict() for r in run_suite(ex81, "invariant-el", plan)]

    def singular(*args, **kw):
        raise SingularEvaluationError("shared step")

    monkeypatch.setattr(suites, "invariant_euler_lagrange", singular)
    got = run_suite(ex81, "invariant-el", plan)
    # the checks before the invariant Euler-Lagrange expressions are built
    at = [r["check_id"] for r in want].index("invariant-el:u")
    assert [r.to_dict() for r in got[:-1]] == want[:at]
    assert [r["check_id"] for r in want[:at]][-1] == "euler-kappa:k2"
    assert (got[-1].check_id, got[-1].status, got[-1].note) == (
        "invariant-el:error", "fail", "shared step")


def test_raising_normalization_keeps_the_other_frame_checks(ex81, monkeypatch):
    plan = ex81.plan(seed=31337)
    want = [r.to_dict() for r in run_suite(ex81, "equivariance", plan)]
    z, c = ex81.frame.normalization[0]
    first = invariantize(ex81.frame, z)

    def singular(lhs, rhs, *args, **kw):
        if lhs is first and rhs == Const(c):
            raise SingularEvaluationError("division by zero")
        return identity_check(lhs, rhs, *args, **kw)

    monkeypatch.setattr(suites, "identity_check", singular)
    got = [r.to_dict() for r in run_suite(ex81, "equivariance", plan)]
    assert len(got) == len(want) == 14
    at = [r["check_id"] for r in want].index("ex81-scale:normalization-0")
    assert [r["check_id"] for r in want[at + 1:at + 3]] == [
        "ex81-scale:normalization-1", "ex81-scale:right-equivariance"]
    assert (got[at]["check_id"], got[at]["status"], got[at]["note"]) == (
        "ex81-scale:normalization-0:error", "fail", "division by zero")
    assert got[:at] + got[at + 1:] == want[:at] + want[at + 1:]


def test_raising_flow_fails_each_drift_check(nls, monkeypatch):
    plan = nls.plan(n_points=10)
    want = [r.to_dict() for r in run_suite(nls, "noether", plan)]

    def blown_up(cfg):
        raise ExprError("flow blew up")

    monkeypatch.setattr(suites, "integration_drifts", blown_up)
    got = [r.to_dict() for r in run_suite(nls, "noether", plan)]
    drift = [i for i, r in enumerate(want) if r["check_id"].startswith("integration-drift:")]
    assert [want[i]["check_id"] for i in drift] == [
        "integration-drift:energy", "integration-drift:norm"]
    assert [(got[i]["check_id"], got[i]["note"]) for i in drift] == [
        ("integration-drift:energy:error", "flow blew up"),
        ("integration-drift:norm:error", "flow blew up")]
    assert [r for i, r in enumerate(got) if i not in drift] == [
        r for i, r in enumerate(want) if i not in drift]
    assert got[-1]["check_id"] == "negative-control:perturbed-law" and got[-1]["status"] == "pass"


def test_drift_checks_share_one_flow(nls, monkeypatch):
    runs = []

    def counted(cfg, _fn=suites.integration_drifts):
        runs.append(cfg)
        return _fn(cfg)

    monkeypatch.setattr(suites, "integration_drifts", counted)
    reports = run_suite(nls, "noether", nls.plan(n_points=10))
    assert len(runs) == 1
    assert sum(r.check_id.startswith("integration-drift:") for r in reports) == 2


# the checks that read an invariant law, by the suite block that builds the laws
LAW_BLOCKS = {"invariant-laws": ("offshell-invariant:", "law-div-match:",
                                 "law-components-match:", "law-stored-invariant:"),
              "equivariant-laws": ("equivariant-",)}


def test_raising_law_construction_drops_only_the_law_checks(toda, monkeypatch):
    plan = toda.plan(n_points=10)
    want = [r.to_dict() for r in run_suite(toda, "all", plan)]

    def singular(*args, **kw):
        raise SingularEvaluationError("law construction")

    monkeypatch.setattr(suites, "noether_invariant", singular)
    got = [r.to_dict() for r in run_suite(toda, "all", plan)]
    # each block's checks give way to one error where the first of them stood
    expected = []
    for r in want:
        block = next((k for k, v in LAW_BLOCKS.items() if r["check_id"].startswith(v)), None)
        if block is None:
            expected.append(r)
        elif block + ":error" not in [e["check_id"] for e in expected]:
            expected.append({"check_id": block + ":error"})
    assert len(expected) < len(want) - 2
    assert [r["check_id"] for r in got] == [r["check_id"] for r in expected]
    assert [r for r in got if not r["check_id"].endswith("-laws:error")] == [
        r for r in expected if not r["check_id"].endswith("-laws:error")]
    assert [r["note"] for r in got if r["status"] == "fail"] == ["law construction"] * 2


def test_checks_sharing_an_evaluation_each_report_its_error(toda, monkeypatch):
    plan = toda.plan(n_points=10)
    want = [r.to_dict() for r in run_suite(toda, "noether", plan)]

    def singular(*args, **kw):
        raise SingularEvaluationError("division by zero")

    monkeypatch.setattr(suites, "compare_laws", singular)
    got = [r.to_dict() for r in run_suite(toda, "noether", plan)]
    shared = ("law-div-match:", "law-components-match:")
    assert [r["check_id"] for r in got] == [
        r["check_id"] + ":error" if r["check_id"].startswith(shared) else r["check_id"]
        for r in want]
    assert sum(r["check_id"].startswith(shared) for r in want) >= 2
    assert [r for r in got if not r["check_id"].endswith(":error")] == [
        r for r in want if not r["check_id"].startswith(shared)]


def test_noether_suite_runs_each_check_once(toda, monkeypatch):
    calls = Counter()
    for name in ("check_variational_symmetry", "offshell_residual"):
        def counted(*args, _fn=getattr(suites, name), _name=name, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)

        monkeypatch.setattr(suites, name, counted)
    run_suite(toda, "noether", toda.plan(n_points=10))
    # one classification per generator; one identity per law plus the control
    assert calls == {"check_variational_symmetry": 4, "offshell_residual": 6}


def test_perturbed_law_control_skips_a_leading_non_symmetry(toda, monkeypatch):
    # v1 is classified as no symmetry, so the control perturbs the law of v2
    check = suites.check_variational_symmetry
    monkeypatch.setattr(suites, "check_variational_symmetry", lambda L, gen, *args: (
        1.0 if gen is toda.generator(1) else check(L, gen, *args)))
    reports = {r.check_id: r for r in run_suite(toda, "noether", toda.plan(n_points=10))}
    assert reports["non-symmetry:v1"].passed and "offshell-original:v1" not in reports
    assert reports["negative-control:perturbed-law"].passed


def test_perturbed_law_control_without_a_symmetry_fails_closed(toda, monkeypatch):
    monkeypatch.setattr(suites, "check_variational_symmetry", lambda *args: math.nan)
    reports = {r.check_id: r for r in run_suite(toda, "noether", toda.plan(n_points=10))}
    err = reports["negative-control:perturbed-law:error"]
    assert (err.status, err.note) == (
        "fail", "no generator of 'toda' is a variational symmetry")
    assert "negative-control:perturbed-law" not in reports


def _nan_nc(identity_check):
    """identity_check whose negative-control probe ("nc") comes out NaN."""

    def patched(*args, check_id="identity", **kw):
        rep = identity_check(*args, check_id=check_id, **kw)
        if check_id == "nc":
            rep = CheckReport(check_id, "fail", math.nan, rep.n_points, rep.seed)
        return rep

    return patched


def _nan_non_symmetry(check):
    """check_variational_symmetry whose non-symmetry residuals come out NaN."""

    def patched(*args, **kw):
        res = check(*args, **kw)
        return res if res <= SYMMETRY_TOL else math.nan

    return patched


@pytest.mark.parametrize("suite, target, patch, check_id", [
    ("syzygy", "identity_check", _nan_nc, "negative-control:kappa-lambda+1e-3"),
    ("invariant-el", "identity_check", _nan_nc, "negative-control:el+1e-3"),
    ("noether", "check_variational_symmetry", _nan_non_symmetry, "non-symmetry:v3"),
])
def test_nan_negative_control_fails(toda, monkeypatch, suite, target, patch, check_id):
    monkeypatch.setattr(suites, target, patch(getattr(suites, target)))
    reports = {r.check_id: r for r in run_suite(toda, suite, toda.plan(n_points=10))}
    assert math.isnan(reports[check_id].max_residual)
    assert reports[check_id].status == "fail"


def _assert_equivariance_draws(toda, monkeypatch, points, n20, n10, n15, n25):
    """At ``--points points`` the equivariance checks draw, and report, samples of
    ``n20``, ``n10``, ``n15`` and ``n25`` points: 20, 10, 15 and 25 of every 50."""
    drawn = []

    def recording(e, action, plan, rng, **kw):
        drawn.append(plan.n_points)
        return invariance_residual(e, action, plan, rng, **kw)

    monkeypatch.setattr(suites, "invariance_residual", recording)
    reports = {r.check_id: r.n_points
               for r in run_suite(toda, "equivariance", toda.plan(n_points=points))}
    assert drawn == [n20] + [n10] * 5  # iota, two components per direction, control
    assert {k: reports[k] for k in (
        "iota-projection", "iota-invariance", "replacement-rule:kappa",
        "maurer-cartan-invariance:1", "maurer-cartan-invariance:2",
        "maurer-cartan-concatenation", "equivariant-coeff:r1:A1:adj1",
        "negative-control:noninvariant", "adjoint-representation-property")} == {
        "iota-projection": n20, "iota-invariance": n20, "replacement-rule:kappa": n20,
        "maurer-cartan-invariance:1": n10, "maurer-cartan-invariance:2": n10,
        "maurer-cartan-concatenation": n15, "equivariant-coeff:r1:A1:adj1": n25,
        "negative-control:noninvariant": n10, "adjoint-representation-property": 10}


def test_equivariance_checks_report_the_points_they_draw(toda, monkeypatch):
    _assert_equivariance_draws(toda, monkeypatch, 50, 20, 10, 15, 25)


def test_equivariance_samples_scale_with_points(toda, monkeypatch):
    # never fewer than one point; the 10 pairs of the adjoint property are not a sample
    _assert_equivariance_draws(toda, monkeypatch, 5, 2, 1, 1, 2)


@pytest.mark.parametrize("points, probe", [(50, 6), (5, 1)])
def test_equivariant_rewrite_probe_scales_with_points(toda, monkeypatch, points, probe):
    # the invariance probe of each equivariant coefficient: 6 points of every 50
    drawn = {}
    for module in (suites, noether):
        def recording(e, action, plan, rng, _module=module, **kw):
            drawn.setdefault(_module, []).append(plan.n_points)
            return invariance_residual(e, action, plan, rng, **kw)

        monkeypatch.setattr(module, "invariance_residual", recording)
    run_suite(toda, "equivariance", toda.plan(n_points=points))
    assert set(drawn[noether]) == {probe}
    assert max(drawn[suites] + drawn[noether]) <= points
