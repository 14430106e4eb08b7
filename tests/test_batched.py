"""Batched sampling and evaluation against their point-by-point definitions."""

import math

import numpy as np
import pytest

from lattice_frames.catalog import get_example
from lattice_frames.expr import (
    Assignment,
    Const,
    FieldVar,
    Pow,
    ProblemSignature,
    SingularEvaluationError,
    Var,
    evaluate,
    fieldvars,
    sqrt,
    stack,
)
from lattice_frames.sampling import (
    VARIATION_RANGE,
    Guard,
    SamplePlan,
    SamplingExhaustedError,
    identity_check,
    relative_residual,
    residual_stats,
)


def reference_assignments(plan, exprs, sig, extra_vars=()):
    """The sampler drawn and tested one candidate at a time."""
    names = set()
    for e in exprs:
        names |= fieldvars(e)
    for g in plan.guards:
        names |= fieldvars(g.expr)
    names |= set(extra_vars)
    names = sorted(names, key=lambda fv: (fv.name, fv.deriv, fv.shift))
    variation_names = set(sig.variations.values())
    rng = np.random.default_rng(np.random.PCG64(plan.seed))
    lo, hi = plan.value_range
    out = []
    rejected = 0
    while len(out) < plan.n_points:
        if rejected > plan.max_rejections:
            raise SamplingExhaustedError(
                f"guards rejected {rejected} candidates (accepted {len(out)}/{plan.n_points})")
        values = {}
        for fv in names:
            if fv.name in variation_names:
                values[fv] = rng.uniform(*VARIATION_RANGE)
            else:
                off = plan.offsets(fv) if plan.offsets is not None else 0.0
                values[fv] = off + rng.uniform(lo, hi)
        x = rng.uniform(*plan.x_range)
        params = {p: rng.uniform(*plan.param_ranges.get(p, (0.5, 1.5))) for p in sig.params}
        base = tuple(int(rng.integers(plan.base_range[0], plan.base_range[1] + 1))
                     for _ in range(sig.lattice_dim))
        a = Assignment(values, x=x, params=params, base=base)
        if all(g.ok(a) for g in plan.guards):
            out.append(a)
        else:
            rejected += 1
    return out


def as_tuples(points):
    return [(list(a.values.items()), a.x, list(a.params.items()), a.base, a.alt)
            for a in points]


def probe_exprs(b):
    """The Lagrangian plus the base-point variation slot of every field."""
    zero = (0,) * b.sig.lattice_dim
    return [b.L] + [Var(FieldVar(w, 0, zero)) for w in b.sig.variations.values()]


@pytest.mark.parametrize("name", ["toda", "ex81", "nls"])
@pytest.mark.parametrize("seed", [2024, 7])
def test_catalog_points_match_reference(name, seed):
    b = get_example(name)
    plan = b.plan(seed=seed)
    exprs = probe_exprs(b)
    got = plan.assignments(exprs, b.sig)
    want = reference_assignments(plan, exprs, b.sig)
    assert as_tuples(got) == as_tuples(want)
    assert all(type(v) is float for a in got for v in a.values.values())


SIG1 = ProblemSignature(("u",), 1)
U0 = Var(FieldVar("u", 0, (0,)))
U1 = Var(FieldVar("u", 0, (1,)))


def singular_plan(**kw):
    # sqrt(u[0]) is singular for about half the candidates, so every block
    # falls back to Guard.ok one candidate at a time
    guards = (Guard(sqrt(U0), "pos", 0.3), Guard(U1 - U0, "abs", 0.1))
    return SamplePlan(guards=guards, **kw)


@pytest.mark.parametrize("seed", [2024, 7])
def test_singular_guard_fallback_matches_reference(seed):
    plan = singular_plan(n_points=40, seed=seed)
    got = plan.assignments([U0 * U1], SIG1)
    want = reference_assignments(plan, [U0 * U1], SIG1)
    assert as_tuples(got) == as_tuples(want)
    assert all(a.values[U0.fv] >= 0.09 for a in got)


@pytest.mark.parametrize("max_rejections", [0, 5, 17])
def test_exhaustion_at_the_same_candidate(max_rejections):
    plan = singular_plan(n_points=40, seed=3, max_rejections=max_rejections)
    with pytest.raises(SamplingExhaustedError) as want:
        reference_assignments(plan, [U0], SIG1)
    with pytest.raises(SamplingExhaustedError) as got:
        plan.assignments([U0], SIG1)
    assert str(got.value) == str(want.value)


def test_exhaustion_with_masked_guards_matches_reference():
    plan = SamplePlan(n_points=30, seed=11, max_rejections=40,
                      guards=(Guard(U0, "pos", 1.2),))
    with pytest.raises(SamplingExhaustedError) as want:
        reference_assignments(plan, [U0], SIG1)
    with pytest.raises(SamplingExhaustedError) as got:
        plan.assignments([U0], SIG1)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", ["toda", "ex81", "nls"])
def test_stacked_evaluation_equals_pointwise(name):
    b = get_example(name)
    pts = b.plan(n_points=30).assignments([b.L], b.sig)
    batched = evaluate(b.L, stack(pts))
    pointwise = np.array([evaluate(b.L, a) for a in pts])
    assert batched.tobytes() == pointwise.tobytes()


@pytest.mark.parametrize("n", [-3, -2, -1, 2, 3, 4])
def test_pow_scalar_and_array_agree_bitwise(n):
    rng = np.random.default_rng(n + 100)
    xs = rng.uniform(-3.0, 3.0, 4000)
    xs = xs[xs != 0.0]
    e = Pow(U0, n)
    arr = evaluate(e, Assignment({U0.fv: xs}))
    scal = np.array([evaluate(e, Assignment({U0.fv: float(x)})) for x in xs])
    assert arr.tobytes() == scal.tobytes()


def test_pow_overflow_is_singular_and_names_the_node():
    e = Pow(U0, 100000)
    with pytest.raises(SingularEvaluationError) as err:
        evaluate(e, Assignment({U0.fv: 1.5}))
    assert err.value.subexpr is e
    assert "u[0]^100000" in str(err.value)
    with pytest.raises(SingularEvaluationError):
        evaluate(e, Assignment({U0.fv: np.array([0.5, 1.5])}))
    assert evaluate(e, Assignment({U0.fv: 0.5})) == 0.0


class TestFailClosed:
    def test_nan_residual_fails(self):
        plan = SamplePlan(n_points=5, seed=1)
        r = identity_check(Const(math.nan), Const(1), plan, SIG1)
        assert r.status == "fail"
        assert math.isnan(r.max_residual)

    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_nan_at_any_point_is_kept(self, where):
        pts = SamplePlan(n_points=5, seed=1).assignments([U0], SIG1)
        pts[where].values[U0.fv] = math.nan
        assert math.isnan(residual_stats(U0, U0, pts))
        assert math.isnan(relative_residual(pts, lambda a: (evaluate(U0, a), [])))

    def test_empty_point_set_fails(self):
        plan = SamplePlan(n_points=0, seed=1)
        r = identity_check(U0, U0, plan, SIG1)
        assert r.status == "fail"
        assert r.n_points == 0
        assert math.isnan(residual_stats(U0, U0, []))

    def test_finite_residual_unchanged(self):
        pts = SamplePlan(n_points=5, seed=1).assignments([U0], SIG1)
        want = max(abs(2 * a.values[U0.fv] - a.values[U0.fv])
                   / max(1.0, abs(2 * a.values[U0.fv]), abs(a.values[U0.fv])) for a in pts)
        assert residual_stats(Const(2) * U0, U0, pts) == want
