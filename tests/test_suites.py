"""Suite-level reporting: every check runs once, and no check aborts its suite."""

import dataclasses
import math
from collections import Counter

import pytest

from lattice_frames import suites
from lattice_frames.actions import SYMMETRY_TOL, invariance_residual
from lattice_frames.expr import ExprError
from lattice_frames.sampling import CheckReport
from lattice_frames.suites import SUITES, run_suite


def test_all_is_the_single_suites_in_order(ex81):
    plan = ex81.plan(n_points=15)
    single = [r.to_dict() for name in SUITES for r in run_suite(ex81, name, plan)]
    assert [r.to_dict() for r in run_suite(ex81, "all", plan)] == single


def test_raising_suite_reports_one_error_and_the_rest_still_run(ex81, monkeypatch):
    plan = ex81.plan(n_points=15)
    others = [r.to_dict() for name in list(SUITES)[1:] for r in run_suite(ex81, name, plan)]

    def exhausted(*args, **kw):
        raise ExprError("guards rejected every candidate")

    monkeypatch.setattr(suites, "verify_syzygy", exhausted)
    err, *rest = run_suite(ex81, "all", plan)
    assert (err.check_id, err.status, err.note) == (
        "syzygy:error", "fail", "guards rejected every candidate")
    assert math.isnan(err.max_residual) and err.n_points == 0
    assert [r.to_dict() for r in rest] == others


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


def test_perturbed_law_control_skips_a_leading_non_symmetry(toda):
    gens = [toda.generator(3)] + [e for e in toda.generators if e.index != 3]
    b = dataclasses.replace(toda, generators=gens)
    reports = {r.check_id: r for r in run_suite(b, "noether", b.plan(n_points=10))}
    assert reports["non-symmetry:v3"].passed
    assert reports["negative-control:perturbed-law"].passed


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


def test_equivariance_checks_report_the_points_they_draw(toda, monkeypatch):
    drawn = []

    def recording(e, action, sig, plan, rng, **kw):
        drawn.append(plan.n_points)
        return invariance_residual(e, action, sig, plan, rng, **kw)

    monkeypatch.setattr(suites, "invariance_residual", recording)
    reports = {r.check_id: r.n_points for r in run_suite(toda, "equivariance", toda.plan())}
    assert drawn == [20, 10, 10, 10, 10, 10]  # iota, two components per direction, control
    assert {k: reports[k] for k in (
        "iota-invariance", "maurer-cartan-invariance:1", "maurer-cartan-invariance:2",
        "maurer-cartan-concatenation", "negative-control:noninvariant")} == {
        "iota-invariance": 20, "maurer-cartan-invariance:1": 10,
        "maurer-cartan-invariance:2": 10, "maurer-cartan-concatenation": 15,
        "negative-control:noninvariant": 10}
