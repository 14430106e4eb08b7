"""Batched sampling and evaluation against their point-by-point definitions."""

import dataclasses
import math

import numpy as np
import pytest

from lattice_frames import expr, sampling
from lattice_frames.calculus import euler_lagrange
from lattice_frames.catalog import get_example
from lattice_frames.expr import (
    Assignment,
    Const,
    FieldVar,
    Param,
    Pow,
    ProblemSignature,
    SingularEvaluationError,
    Var,
    children,
    evaluate,
    fieldvars,
    power,
    sqrt,
)
from lattice_frames.sampling import (
    BASE_RANGE,
    VARIATION_RANGE,
    X_RANGE,
    Guard,
    PointSet,
    SamplePlan,
    SamplingExhaustedError,
    identity_check,
    relative_residual,
    residual_stats,
)
from lattice_frames.suites import run_suite


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
        x = rng.uniform(*X_RANGE)
        params = {p: rng.uniform(*plan.param_ranges.get(p, (0.5, 1.5))) for p in sig.params}
        base = tuple(int(rng.integers(BASE_RANGE[0], BASE_RANGE[1] + 1))
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
@pytest.mark.parametrize("seed", [2024, 7, 31337])
def test_catalog_points_match_reference(name, seed):
    b = get_example(name)
    plan = b.plan(seed=seed)
    exprs = probe_exprs(b)
    got = plan.assignments(exprs, b.sig)
    want = reference_assignments(plan, exprs, b.sig)
    assert as_tuples(got) == as_tuples(want)
    assert all(type(v) is float for a in got for v in a.values.values())


class CountingGenerator(np.random.Generator):
    """A Generator that counts its ``uniform`` and ``integers`` calls."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.calls = 0

    def uniform(self, *args, **kwargs):
        self.calls += 1
        return super().uniform(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self.calls += 1
        return super().integers(*args, **kwargs)


def loop_block(rng, lows, highs, size, m, b_lo, b_hi):
    """``size`` candidates drawn one ``uniform`` and ``m`` ``integers`` calls at a time."""
    rows = np.empty((size, len(lows)))
    bases = np.empty((size, m), dtype=np.int64)
    for i in range(size):
        rows[i] = rng.uniform(lows, highs)
        for d in range(m):
            bases[i, d] = rng.integers(b_lo, b_hi + 1)
    return rows, bases


def assert_same_blocks(got_rng, want_rng, lows, highs, sizes, m, base_range=(-2, 2)):
    """Draw blocks of ``sizes`` from both, as block and loop; the calls the blocks made."""
    for size in sizes:
        rows, bases = sampling._draw_block(got_rng, lows, highs, size, m, *base_range)
        want_rows, want_bases = loop_block(want_rng, lows, highs, size, m, *base_range)
        assert rows.tobytes() == want_rows.tobytes()
        assert bases.dtype == np.int64 and np.array_equal(bases, want_bases)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    calls = got_rng.calls
    assert got_rng.random() == want_rng.random()
    assert got_rng.integers(-2, 3) == want_rng.integers(-2, 3)
    return calls


@pytest.mark.parametrize("m", [1, 2, 3])
def test_block_draw_matches_per_candidate_loop(m):
    # consecutive blocks on one generator, so that a held 32-bit half
    # crosses a block boundary whenever a block makes an odd number of draws
    lows = np.array([-2.0, -1.0, -2.0, 0.5, 0.5])
    highs = np.array([2.0, 1.0, 2.0, 2.0, 1.5])
    for seed in range(100):
        got = CountingGenerator(np.random.PCG64(seed))
        want = np.random.default_rng(np.random.PCG64(seed))
        assert assert_same_blocks(got, want, lows[seed % 3:], highs[seed % 3:],
                                  [0, 1, 2, 3, 0, 4, 7, 1, 1], m) == 0


def test_block_draw_falls_back_when_lemire_rejects():
    # the held half is 0, which the 32-bit Lemire draw of span 5 rejects
    lows, highs = np.array([-2.0, 0.5]), np.array([2.0, 2.0])
    for seed in range(20):
        got = CountingGenerator(np.random.PCG64(seed))
        want = np.random.default_rng(np.random.PCG64(seed))
        for rng in (got, want):
            state = rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, 0
            rng.bit_generator.state = state
        # the first block is drawn one call at a time, the second as a block
        assert assert_same_blocks(got, want, lows, highs, [3, 4], 2) == 3 * (1 + 2)


@pytest.mark.parametrize("base_range, calls", [
    ((-1, 0), 0), ((-3, 3), 0), ((0, 2**32 - 1), 0),
    ((0, 0), 7 * (1 + 2)),        # draws no 32-bit half
    ((0, 2**32), 7 * (1 + 2)),    # numpy's 64-bit path
])
def test_block_draw_matches_loop_for_any_base_range(base_range, calls):
    lows, highs = np.array([-2.0, 0.5]), np.array([2.0, 2.0])
    for seed in range(10):
        got = CountingGenerator(np.random.PCG64(seed))
        want = np.random.default_rng(np.random.PCG64(seed))
        assert assert_same_blocks(got, want, lows, highs, [3, 4], 2, base_range) == calls


def test_block_draw_of_an_infinite_range_raises_as_uniform_does():
    rng = np.random.default_rng(np.random.PCG64(1))
    with pytest.warns(RuntimeWarning), pytest.raises(OverflowError, match="Range exceeds"):
        sampling._draw_block(rng, np.array([-1e308]), np.array([1e308]), 3, 1, -2, 2)


def test_sampling_draws_from_pcg64(monkeypatch):
    # the block draw reads PCG64's words and 32-bit buffer directly
    generators = []
    draw_block = sampling._draw_block

    def recording(rng, *args):
        generators.append(type(rng.bit_generator))
        return draw_block(rng, *args)

    monkeypatch.setattr(sampling, "_draw_block", recording)
    b = get_example("toda")
    b.plan(n_points=10).assignments([b.L], b.sig)
    assert generators and set(generators) == {np.random.PCG64}


SIG1 = ProblemSignature(("u",), 1)
U0 = Var(FieldVar("u", 0, (0,)))
U1 = Var(FieldVar("u", 0, (1,)))


def singular_plan(**kw):
    # sqrt(u[0]) is singular for about half the candidates, so every block
    # has candidates that the mask of the lowered guard call rejects
    guards = (Guard(sqrt(U0), "pos", 0.3), Guard(U1 - U0, "abs", 0.1))
    return SamplePlan(guards=guards, **kw)


@pytest.mark.parametrize("seed", [2024, 7])
def test_singular_guard_fallback_matches_reference(seed):
    plan = singular_plan(n_points=40, seed=seed)
    got = plan.assignments([U0 * U1], SIG1)
    want = reference_assignments(plan, [U0 * U1], SIG1)
    assert as_tuples(got) == as_tuples(want)
    assert all(a.values[U0.fv] >= 0.09 for a in got)


def test_singular_parameter_guard_falls_back_to_reference():
    # sqrt(a - 1) is singular when binding a block whose a column dips below 1
    sig = ProblemSignature(("u",), 1, params=("a",))
    guards = (Guard(sqrt(Param("a") - 1), "pos", 0.2), Guard(U1 - U0, "abs", 0.1))
    plan = SamplePlan(n_points=30, seed=11, guards=guards)
    got = plan.assignments([U0 * U1], sig)
    want = reference_assignments(plan, [U0 * U1], sig)
    assert as_tuples(got) == as_tuples(want)
    assert all(a.params["a"] >= 1.04 for a in got)


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


@pytest.mark.parametrize("guards", [
    (Guard(Const(0.5), "pos", 0.3), Guard(U1 - U0, "abs", 0.1), Guard(Const(-1), "abs", 0.5)),
    # every guard constant: each value is broadcast to the block
    (Guard(Const(0.5), "pos", 0.3),),
    (),
])
def test_constant_guards_are_broadcast_as_the_reference_does(guards):
    plan = SamplePlan(n_points=20, seed=5, guards=guards)
    got = plan.assignments([U0 * U1], SIG1)
    assert as_tuples(got) == as_tuples(reference_assignments(plan, [U0 * U1], SIG1))


@pytest.mark.parametrize("constant", [Guard(Const(0.1), "pos", 0.3), Guard(sqrt(Const(-1.0)))])
def test_failing_constant_guard_exhausts_as_the_reference_does(constant):
    plan = SamplePlan(n_points=20, seed=5, max_rejections=7,
                      guards=(Guard(U1 - U0, "abs", 0.1), constant))
    with pytest.raises(SamplingExhaustedError) as want:
        reference_assignments(plan, [U0], SIG1)
    with pytest.raises(SamplingExhaustedError) as got:
        plan.assignments([U0], SIG1)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", ["toda", "ex81", "nls"])
def test_stacked_evaluation_equals_pointwise(name):
    b = get_example(name)
    pts = b.plan(n_points=30).assignments([b.L], b.sig)
    batched = evaluate(b.L, pts)
    pointwise = np.array([evaluate(b.L, a) for a in pts])
    assert batched.tobytes() == pointwise.tobytes()


@pytest.mark.parametrize("name", ["toda", "ex81", "nls"])
def test_point_set_columns_are_contiguous_arrays(name):
    b = get_example(name)
    pts = b.plan(n_points=12).assignments([b.L], b.sig)
    assert isinstance(pts, PointSet) and len(pts) == 12
    for col in [*pts.values.values(), pts.x, *pts.params.values(), pts.alt]:
        assert col.dtype == np.float64 and col.shape == (12,)
        assert col.flags.c_contiguous
    assert [col.shape for col in pts.base] == [(12,)] * b.sig.lattice_dim
    assert len(SamplePlan(n_points=0).assignments([U0], SIG1)) == 0


@pytest.mark.parametrize("n_points", [10, 50])
def test_sampling_builds_no_assignment_per_point(n_points, monkeypatch):
    # one point set, of the accepted points: a candidate block is tested on
    # its columns, read by position
    b = get_example("toda")
    built = []
    post_init = Assignment.__post_init__

    def counting(self):
        built.append(type(self))
        post_init(self)

    monkeypatch.setattr(Assignment, "__post_init__", counting)
    pts = b.plan(n_points=n_points).assignments([b.L], b.sig)
    assert len(pts) == n_points
    assert built == [PointSet]


def columns(pts):
    return [*pts.values.values(), pts.x, *pts.params.values(), *pts.base, pts.alt]


def counting_pcg64(monkeypatch):
    """The seeds of every PCG64 made while the test runs."""
    seeds, pcg64 = [], np.random.PCG64

    def counting(seed):
        seeds.append(seed)
        return pcg64(seed)

    monkeypatch.setattr(np.random, "PCG64", counting)
    return seeds


def counting_sorts(monkeypatch):
    """The left operand of every ``FieldVar.__lt__`` call made after this."""
    compared, lt = [], FieldVar.__lt__

    def counting(a, b):
        compared.append(a)
        return lt(a, b)

    monkeypatch.setattr(FieldVar, "__lt__", counting)
    return compared


def run_tables(kind):
    """The keys of the run memo's tables of ``kind``."""
    return [key for key in expr._RUN.get() if key[0] == kind]


class TestMemo:
    def test_memo_belongs_to_one_run(self):
        b = get_example("toda")
        plan = b.plan()
        assert not hasattr(plan, "memo")
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.n_points = 10
        with expr.run_memo():
            assert run_tables("points") == []
            plan.assignments([b.L], b.sig)
            assert len(run_tables("guards")) == len(run_tables("points")) == 1
            # a plan made anew with the same numbers asks the same run
            b.plan().assignments([b.L], b.sig)
            assert len(run_tables("points")) == 1
        assert expr._RUN.get() is None
        with expr.run_memo():
            assert run_tables("guards") == run_tables("points") == []

    @pytest.mark.parametrize("name", ["toda", "ex81", "nls"])
    def test_hit_is_read_only_and_equals_a_cold_draw(self, name, monkeypatch):
        b = get_example(name)
        cold = b.plan(n_points=12).assignments([b.L], b.sig)
        seeds = counting_pcg64(monkeypatch)
        with expr.run_memo():
            plan = b.plan(n_points=12)
            first = plan.assignments([b.L], b.sig)
            hit = dataclasses.replace(plan, seed=plan.seed).assignments([b.L], b.sig)
            assert seeds == [plan.seed]  # the hit seeded no generator
            assert hit is first and hit.held
            # the lowered guards and one point set
            assert len(run_tables("guards")) == len(run_tables("points")) == 1
            fv = next(iter(hit.values))
            for mapping, key in ((hit.values, fv), (hit.params, "p")):
                with pytest.raises(TypeError):
                    mapping[key] = np.zeros(12)
                with pytest.raises(AttributeError):
                    mapping.clear()
            for name in ("values", "params", "x", "alt"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(hit, name, getattr(cold, name))
        for col in columns(hit):
            with pytest.raises(ValueError):
                col[0] = 0.0
        assert list(hit.values) == list(cold.values) and list(hit.params) == list(cold.params)
        assert [c.tobytes() for c in columns(hit)] == [c.tobytes() for c in columns(cold)]
        assert not cold.held  # a set drawn outside a run is the caller's own

    @pytest.mark.parametrize("name", ["toda", "ex81", "nls"])
    def test_outside_a_run_each_request_draws_again(self, name, monkeypatch):
        b = get_example(name)
        seeds = counting_pcg64(monkeypatch)
        first = b.plan(n_points=12).assignments([b.L], b.sig)
        again = b.plan(n_points=12).assignments([b.L], b.sig)
        assert seeds == [b.plan().seed] * 2
        assert list(again.values) == list(first.values)
        assert [c.tobytes() for c in columns(again)] == [c.tobytes() for c in columns(first)]
        assert all(a is not c for a, c in zip(columns(again), columns(first)))

    # a request smaller than a set of its stream the run holds draws nothing
    @pytest.mark.parametrize("name, draws", [("toda", 4), ("ex81", 12), ("nls", 11)])
    def test_each_point_set_is_drawn_once_per_run(self, name, draws, monkeypatch):
        lowered, compile_exprs = [], sampling.compile_exprs

        def counting_compile(exprs):
            lowered.append(exprs)
            return compile_exprs(exprs)

        seeds = counting_pcg64(monkeypatch)
        monkeypatch.setattr(sampling, "compile_exprs", counting_compile)
        b = get_example(name)
        reports = run_suite(b, "all", b.plan(seed=2024))
        assert reports and all(r.passed for r in reports)
        # every draw seeds its generator with the plan's seed; the group
        # elements and probes of the suites use seed + k for some k > 0
        assert seeds.count(2024) == draws
        assert lowered == [[g.expr for g in b.plan_kw["guards"]]]

    @pytest.mark.parametrize("name", ["toda", "ex81", "nls"])
    @pytest.mark.parametrize("n, larger", [(1, 50), (6, 50), (49, 50)])
    def test_smaller_request_is_a_held_prefix(self, name, n, larger, monkeypatch):
        b = get_example(name)
        cold = b.plan(n_points=n).assignments([b.L], b.sig)
        with expr.run_memo():
            full = b.plan(n_points=larger).assignments([b.L], b.sig)
            seeds = counting_pcg64(monkeypatch)
            part = b.plan(n_points=n).assignments([b.L], b.sig)
            assert seeds == []  # the slice seeded no generator
            assert part.held and len(part) == n and part is not full
            assert b.plan(n_points=n).assignments([b.L], b.sig) is part
            assert len(run_tables("points")) == 1
            fv = next(iter(part.values))
            for mapping, key in ((part.values, fv), (part.params, "p")):
                with pytest.raises(TypeError):
                    mapping[key] = np.zeros(n)
            for attr in ("values", "params", "x", "alt"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(part, attr, getattr(cold, attr))
        for col, whole in zip(columns(part), columns(full)):
            assert np.shares_memory(col, whole)
            with pytest.raises(ValueError):
                col[0] = 0.0
        assert list(part.values) == list(cold.values) and list(part.params) == list(cold.params)
        assert [c.tobytes() for c in columns(part)] == [c.tobytes() for c in columns(cold)]

    def test_larger_request_after_a_smaller_draws_afresh(self, monkeypatch):
        b = get_example("toda")
        cold = b.plan(n_points=50).assignments([b.L], b.sig)
        seeds = counting_pcg64(monkeypatch)
        with expr.run_memo():
            small = b.plan(n_points=10).assignments([b.L], b.sig)
            full = b.plan(n_points=50).assignments([b.L], b.sig)
            assert seeds == [b.plan().seed] * 2
            # each size keeps its own set; a size between them is a slice of the largest
            assert b.plan(n_points=10).assignments([b.L], b.sig) is small
            assert np.shares_memory(b.plan(n_points=20).assignments([b.L], b.sig).x, full.x)
            assert len(seeds) == 2
        assert [c.tobytes() for c in columns(full)] == [c.tobytes() for c in columns(cold)]
        assert [c.tobytes() for c in columns(small)] == [c[:10].tobytes() for c in columns(cold)]

    # with max_rejections 0 the smaller request exhausts too; with 5 it is drawn
    @pytest.mark.parametrize("max_rejections, n", [(0, 1), (5, 6)])
    def test_exhausted_request_holds_nothing(self, max_rejections, n, monkeypatch):
        plan = singular_plan(n_points=40, seed=3, max_rejections=max_rejections)
        small = dataclasses.replace(plan, n_points=n)

        def outcome():
            try:
                return as_tuples(small.assignments([U0], SIG1))
            except SamplingExhaustedError as err:
                return str(err)

        cold = outcome()
        seeds = counting_pcg64(monkeypatch)
        with expr.run_memo():
            with pytest.raises(SamplingExhaustedError):
                plan.assignments([U0], SIG1)
            assert [expr._RUN.get()[key][0] for key in run_tables("points")] == [{}]
            assert outcome() == cold
        assert seeds == [3, 3]  # the smaller request drew afresh
        assert isinstance(cold, str) == (max_rejections == 0)

    def test_hit_walks_no_tree(self, monkeypatch):
        b = get_example("toda")
        plan = b.plan()
        exprs = [b.L, euler_lagrange(b.L, "u", b.sig)]
        walked = []

        def counting_children(node):
            walked.append(node)
            return children(node)

        with expr.run_memo():
            plan.assignments(exprs, b.sig)
            monkeypatch.setattr(expr, "children", counting_children)
            plan.assignments(exprs, b.sig)
        assert walked == []

    def test_hit_sorts_nothing(self, monkeypatch):
        # every variable of these expressions is a guard variable, so both
        # requests ask for the point set of the guard variables
        b = get_example("toda")
        plan = b.plan(n_points=12)
        guards = [g.expr for g in plan.guards]
        with expr.run_memo():
            first = plan.assignments(guards[:1], b.sig)
            compared = counting_sorts(monkeypatch)
            hit = plan.assignments(guards[1:3], b.sig)
            assert len(run_tables("points")) == 1
        assert hit is first and hit.held
        assert compared == []

    def test_a_variable_outside_the_guards_draws_a_new_set(self, monkeypatch):
        b = get_example("toda")
        plan = b.plan(n_points=12)
        guards = [g.expr for g in plan.guards]
        guard_vars = set().union(*map(fieldvars, guards))
        outside = next(fv for fv in (FieldVar("u", 0, (k, 0)) for k in range(9))
                       if fv not in guard_vars)
        cold = plan.assignments([Var(outside)], b.sig)
        with expr.run_memo():
            first = plan.assignments(guards[:1], b.sig)
            compared = counting_sorts(monkeypatch)
            drawn = plan.assignments([guards[0], Var(outside)], b.sig)
            again = plan.assignments([Var(outside)], b.sig)
            assert len(run_tables("points")) == 2
        # the new variable set is sorted once, on its first request
        assert drawn is not first and drawn.held and again is drawn and compared
        assert list(drawn.values) == list(cold.values) == sorted(guard_vars | {outside})
        assert [c.tobytes() for c in columns(drawn)] == [c.tobytes() for c in columns(cold)]

    def test_outside_a_run_nothing_is_kept(self, monkeypatch):
        lowered, compile_exprs = [], sampling.compile_exprs

        def counting_compile(exprs):
            lowered.append(exprs)
            return compile_exprs(exprs)

        monkeypatch.setattr(sampling, "compile_exprs", counting_compile)
        b = get_example("toda")
        plan = b.plan(n_points=12)
        first = plan.assignments([b.L], b.sig)
        compared = counting_sorts(monkeypatch)
        again = plan.assignments([b.L], b.sig)
        # the guards are lowered and the variables sorted again
        assert len(lowered) == 2 and compared
        assert again is not first and not again.held and expr._RUN.get() is None

    def test_fieldvars_is_a_new_set_each_call(self):
        b = get_example("toda")
        first = fieldvars(b.L)
        want = set(first)
        first.clear()
        first.add(FieldVar("u_t", 0, (0, 0)))
        assert fieldvars(b.L) == want and fieldvars(b.L) is not fieldvars(b.L)


@pytest.mark.parametrize("n", [-3, -2, -1, 2, 3, 4])
def test_pow_scalar_and_array_agree_bitwise(n):
    rng = np.random.default_rng(n + 100)
    xs = rng.uniform(-3.0, 3.0, 4000)
    xs = xs[xs != 0.0]
    e = Pow(U0, n)
    arr = evaluate(e, Assignment({U0.fv: xs}))
    scal = np.array([evaluate(e, Assignment({U0.fv: float(x)})) for x in xs])
    assert arr.tobytes() == scal.tobytes()


def test_constant_power_folds_by_the_evaluate_rule():
    # Python's 1.1 ** 7 is 1.9487171000000012; np.power gives 1.948717100000001
    folded = power(Const(1.1), 7)
    assert isinstance(folded, Const)
    unfolded = evaluate(Pow(Const(1.1), 7), Assignment({}))
    assert np.float64(folded.value).tobytes() == unfolded.tobytes()
    assert folded.value != 1.1 ** 7


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
        pts.values[U0.fv] = pts.values[U0.fv].copy()  # the drawn columns are read-only
        pts.values[U0.fv][where] = math.nan
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
