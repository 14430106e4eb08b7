"""Lowered (compiled) evaluation and the compiled lattice flow against their references.

The reference flow below is the RK4 loop as it was before lowering: every
right-hand side and monitor goes through ``evaluate`` on ``np.roll``-shifted
arrays, with the same RK4 arithmetic.  The compiled flow must reproduce it
bit for bit.
"""

import ast
import itertools
import sys
from collections import Counter

import numpy as np
import pytest

import oracles
from lattice_frames import expr, flows
from lattice_frames.catalog import get_example
from lattice_frames.expr import (
    Alt,
    Assignment,
    Const,
    ExprError,
    FieldVar,
    Lowering,
    Param,
    ProblemSignature,
    Prod,
    SingularEvaluationError,
    Sum,
    Var,
    XVar,
    add,
    compile_exprs,
    evaluate,
    fieldvars,
    ln_abs,
    neg,
    power,
    sqrt,
    substitute,
)
from lattice_frames.flows import (
    BlowUpError,
    LatticeState,
    eval_on_lattice,
    integrate_lattice_flow,
)


def var(name, k=0):
    return Var(FieldVar(name, 0, (k,)))


def reference_flow(rhs, state0, x_span, dt, monitors, blow_up=1e6):
    """The per-step loop before lowering: ``evaluate`` on ``np.roll``-shifted arrays.

    A field norm above ``blow_up``, or one that is not finite, raises the
    flow's :class:`BlowUpError`, before the state is recorded.
    """
    params = state0.params

    def on_lattice(e, fields, x):
        n = len(next(iter(fields.values())))
        values = {}
        for fv in fieldvars(e):
            k = fv.shift[0]
            values[fv] = np.roll(fields[fv.name], -k) if k else fields[fv.name]
        v = evaluate(e, Assignment(values, x=x, params=params, alt=(-1.0) ** np.arange(n)))
        return v if np.ndim(v) else np.full(n, float(v))

    def f(fields, x):
        return {name: on_lattice(e, fields, x) for name, e in rhs.items()}

    names = list(rhs)
    y = {k: v.copy() for k, v in state0.fields.items()}
    x0, x1 = x_span
    x = x0
    n_steps = int(round((x1 - x0) / dt))
    xs = np.empty(n_steps + 1)
    sums = {label: np.empty(n_steps + 1) for label in monitors}

    def record(i):
        xs[i] = x
        for label, dens in monitors.items():
            sums[label][i] = float(np.sum(on_lattice(dens, y, x)))

    record(0)
    for i in range(1, n_steps + 1):
        k1 = f(y, x)
        k2 = f({n: y[n] + 0.5 * dt * k1[n] for n in names}, x + 0.5 * dt)
        k3 = f({n: y[n] + 0.5 * dt * k2[n] for n in names}, x + 0.5 * dt)
        k4 = f({n: y[n] + dt * k3[n] for n in names}, x + dt)
        for n in names:
            y[n] = y[n] + (dt / 6.0) * (k1[n] + 2.0 * k2[n] + 2.0 * k3[n] + k4[n])
        x = x0 + i * dt
        norms = [float(np.abs(y[n]).max()) for n in names]
        if not all(v <= blow_up for v in norms):
            raise BlowUpError(f"field norm {np.max(norms):.3e} at x = {x:.6g}")
        record(i)
    return xs, sums, y


def assert_same_trajectory(rhs, state0, x_span, dt, monitors):
    traj = integrate_lattice_flow(rhs, state0, x_span, dt, monitors=monitors)
    xs, sums, final = reference_flow(rhs, state0, x_span, dt, monitors or {})
    assert (traj.xs == xs).all()
    assert set(traj.monitor_sums) == set(sums)
    for label, series in sums.items():
        assert (traj.monitor_sums[label] == series).all(), label
    assert set(traj.final.fields) == set(final)
    for name, values in final.items():
        assert (traj.final.fields[name] == values).all(), name


# 129 and 1000 sites: numpy's pairwise summation of a row recurses, and a
# block of states holds fewer rows than the trajectory has states; from 3000
# sites on, BLOCK_VALUES // n_sites is under 2, and a block holds two states
@pytest.mark.parametrize("n_sites", [1, 2, 16, 33, 129, 1000, 3000, 5000])
def test_nls_flow_matches_reference(nls, n_sites):
    cfg = nls.integrate_config
    state0 = cfg["initial_state"](n_sites, 0.5)
    assert_same_trajectory(cfg["rhs"], state0, (0.0, 0.05), 1e-3, cfg["monitors"])


@pytest.mark.parametrize("with_monitors", [False, True])
@pytest.mark.parametrize("n_sites", [1, 16])
def test_nls_flow_without_or_with_a_constant_monitor_matches_reference(nls, n_sites,
                                                                        with_monitors):
    cfg = nls.integrate_config
    state0 = cfg["initial_state"](n_sites, 0.5)
    monitors = {**cfg["monitors"], "const": Const(2.5)} if with_monitors else None
    assert_same_trajectory(cfg["rhs"], state0, (0.0, 0.05), 1e-3, monitors)


def test_rhs_singular_only_at_the_final_state_integrates():
    # the last step's k4 is taken at 0.5 + 0.1 = 0.6, the final state at 6 * 0.1 > 0.6,
    # where no right-hand side is needed; the monitor is regular there
    u = var("u")
    rhs = {"u": sqrt(Const(0.6) - XVar()) * u}
    state0 = LatticeState({"u": np.linspace(0.0, 1.0, 4)}, 0.0, {})
    assert 0.5 + 0.1 < 6 * 0.1
    assert_same_trajectory(rhs, state0, (0.0, 0.6), 0.1, {"square": u * u})
    traj = integrate_lattice_flow(rhs, state0, (0.0, 0.6), 0.1, monitors={"square": u * u})
    with pytest.raises(SingularEvaluationError, match="^sqrt of a negative value$"):
        eval_on_lattice(rhs["u"], traj.final)


def counted_calls(monkeypatch):
    """The calls of each integration's lowered functions, and of ``flows._on_lattice``."""
    calls = Counter()
    lowered_steps, on_lattice = flows._lowered_steps, flows._on_lattice

    def counted(name, fn):
        return lambda *args: calls.update([name]) or fn(*args)

    monkeypatch.setattr(flows, "_lowered_steps", lambda *args: [
        counted(name, fn) for name, fn in zip(("start", "fast", "checked"), lowered_steps(*args))])
    monkeypatch.setattr(flows, "_on_lattice", counted("_on_lattice", on_lattice))
    return calls


def test_steps_that_overflow_are_taken_again_without_evaluate(monkeypatch):
    # the monitor's product overflows while u[0] > 1.341e4, quietly, in the
    # block audit, where the monitors are computed: no fast step raises, none is
    # taken again, and nothing is evaluated through evaluate
    calls = counted_calls(monkeypatch)
    u = var("u")
    rhs = {"u": Const(-1000.0)}
    monitors = {"big": u * u * Const(1e300), "u": u}
    state0 = LatticeState({"u": np.array([1.36e4, 1.0])}, 0.0, {})
    assert_same_trajectory(rhs, state0, (0.0, 1.0), 0.05, monitors)
    calls.clear()
    traj = integrate_lattice_flow(rhs, state0, (0.0, 1.0), 0.05, monitors=monitors)
    assert np.isinf(traj.monitor_sums["big"][:3]).all()
    assert np.isfinite(traj.monitor_sums["big"][-3:]).all()
    assert calls["_on_lattice"] == 0 and calls["start"] == 1
    assert calls["checked"] == 0 and calls["fast"] == 1


def test_monitor_sum_that_overflows_is_recorded_as_the_reference_does():
    # each density stays finite (u^2 * 1e300 < 1.8e308) while their lattice sum
    # overflows from u = 9482 on, about step 10, quietly, in the block sums
    u = var("u")
    rhs = {"u": Const(1000.0)}
    monitors = {"big": u * u * Const(1e300)}
    state0 = LatticeState({"u": np.array([9e3, 9e3])}, 0.0, {})
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert_same_trajectory(rhs, state0, (0.0, 1.0), 0.05, monitors)
        traj = integrate_lattice_flow(rhs, state0, (0.0, 1.0), 0.05, monitors=monitors)
    big = traj.monitor_sums["big"]
    assert np.isfinite(big[:9]).all() and np.isinf(big[11:]).all()


def test_overflowed_monitor_sum_stays_on_the_lowered_path(nls, monkeypatch):
    # every lattice sum of 1e308 overflows while each density is finite: the
    # block sums overflow quietly, and every step is a fast one
    calls = counted_calls(monkeypatch)
    cfg = nls.integrate_config
    state0 = cfg["initial_state"](16, 0.5)
    monitors = {**cfg["monitors"], "big": Const(1e308)}
    for x1 in (0.01, 0.03):
        calls.clear()
        with pytest.warns(RuntimeWarning, match="overflow"):   # from the test's reference
            assert_same_trajectory(cfg["rhs"], state0, (0.0, x1), 1e-3, monitors)
        assert calls == {"start": 1, "fast": 1}


@pytest.mark.parametrize("monitor, message", [
    # singular from the start, in a node of parameters alone
    (var("u") + Const(1) / Param("a"), "division by zero"),
    # a power that overflows after some steps
    (power(var("u") * Const(1e150), 2), "non-finite value of "),
])
def test_singular_monitor_raises_the_reference_error(monitor, message):
    rhs = {"u": Const(1000.0)}
    state0 = LatticeState({"u": np.array([1.3e4, 1.0])}, 0.0, {"a": 0.0})
    with pytest.raises(SingularEvaluationError) as want:
        reference_flow(rhs, state0, (0.0, 1.0), 0.05, {"m": monitor})
    with pytest.raises(SingularEvaluationError) as got:
        integrate_lattice_flow(rhs, state0, (0.0, 1.0), 0.05, monitors={"m": monitor})
    assert str(got.value) == str(want.value) and str(got.value).startswith(message)
    assert got.value.subexpr is want.value.subexpr


def test_singular_stage_raises_the_reference_error(nls):
    # at h = 1e-150, u[0]^2 overflows in the second stage of the first step:
    # the step taken again tests each stage, and evaluate raises at the second
    cfg = nls.integrate_config
    state0 = cfg["initial_state"](16, 1e-150)
    with pytest.raises(SingularEvaluationError) as want:
        reference_flow(cfg["rhs"], state0, (0.0, 0.01), 1e-3, cfg["monitors"])
    with pytest.raises(SingularEvaluationError) as got:
        integrate_lattice_flow(cfg["rhs"], state0, (0.0, 0.01), 1e-3, monitors=cfg["monitors"])
    assert str(got.value) == str(want.value) == "non-finite value of u[0]^2"
    assert got.value.subexpr is want.value.subexpr


@pytest.mark.parametrize("n_sites", [1, 5])
def test_flow_reading_x_alt_and_a_parameter_matches_reference(n_sites):
    u, w, a = var("u"), var("w"), Param("a")
    rhs = {
        "u": a * var("u", 1) * XVar() + Alt() * var("w", -2) - ln_abs(u * u + 1),
        "w": sqrt(u * u + 1) - w / a + power(w * w + 2, -1) * XVar() + power(a, 3),
    }
    monitors = {"mixed": Alt() * u * XVar() + w ** 3, "param": a * 2}
    n = np.arange(n_sites)
    state0 = LatticeState({"u": np.cos(n + 0.3), "w": np.sin(2.0 * n + 1.0)},
                          0.0, {"a": 1.3897})  # 1.3897 ** 3 != np.power(1.3897, 3.0)
    assert_same_trajectory(rhs, state0, (0.25, 0.45), 0.01, monitors)


@pytest.mark.parametrize("rhs, fields, monitors, message", [
    ({"u": var("w") * var("u")}, ("u", "w"), {},
     "the right-hand side reads field 'w', which it does not evolve"),
    ({"u": var("u"), "v": var("u")}, ("u",), {},
     "the right-hand side evolves field 'v', which the state lacks"),
    ({"u": var("u")}, ("u",), {"m": var("u") * var("w")},
     "monitor 'm' reads field 'w', which the state lacks"),
    # binding fails, and evaluate raises its error, the monitors' first
    ({"u": Param("b") * var("u")}, ("u",), {}, "parameter 'b' has no value"),
    ({"u": Param("b") * var("u")}, ("u",), {"m": Param("c") * var("u")},
     "parameter 'c' has no value"),
])
def test_ill_formed_flow_raises_naming_the_field(rhs, fields, monitors, message):
    state0 = LatticeState({name: np.ones(3) for name in fields}, 0.0, {})
    with pytest.raises(ExprError) as err:
        integrate_lattice_flow(rhs, state0, (0.0, 0.1), 0.05, monitors=monitors)
    assert str(err.value) == message


def test_trajectory_longer_than_a_block_matches_reference():
    # 601 states at 16 sites fill two blocks of states and part of a third
    u, w = var("u"), var("u", 1)
    rhs = {"u": w - Const(2) * u + var("u", -1) + Const(0.5) * u * w}
    monitors = {"square": u * u, "product": Alt() * u * w + XVar(), "const": Const(0.1)}
    state0 = LatticeState({"u": np.sin(0.4 * np.arange(16)) + 0.3}, 0.0, {})
    assert 2 * (flows.BLOCK_VALUES // 16) < 601 < 3 * (flows.BLOCK_VALUES // 16)
    assert_same_trajectory(rhs, state0, (0.0, 0.6), 1e-3, monitors)


# a difference signature of lattice dimension 1 that reads x: the flow's fields
FLOW_SIG = ProblemSignature(("u", "v"), 1, has_x=True, params=("a",))


def outcome(run):
    """``("value", result)`` of ``run()``, or ``("error", type, message, subexpr)``."""
    try:
        return "value", run()
    except ExprError as err:
        return "error", type(err), str(err), getattr(err, "subexpr", None)


def assert_same_outcome(rhs, state0, x_span, dt, monitors, blow_up=1e6):
    """The reference's trajectory bit for bit, or its error: type, message and node.

    Returns the reference's outcome (see :func:`outcome`).
    """
    got = outcome(lambda: integrate_lattice_flow(rhs, state0, x_span, dt, monitors=monitors,
                                                 blow_up=blow_up))
    with np.errstate(all="ignore"):
        want = outcome(lambda: reference_flow(rhs, state0, x_span, dt, monitors, blow_up))
    if want[0] == "error":
        assert got[:3] == want[:3] and got[3] is want[3], (got, want)
        return want
    assert got[0] == "value", got
    traj, (xs, sums, final) = got[1], want[1]
    assert traj.xs.tobytes() == xs.tobytes()
    for label, series in sums.items():
        assert traj.monitor_sums[label].tobytes() == series.tobytes(), label
    for name, values in final.items():
        assert traj.final.fields[name].tobytes() == values.tobytes(), name
    return want


def test_generated_flows_match_the_reference_or_raise_alike():
    # generated right-hand sides and monitor: the same trajectory bit for bit,
    # or the same error in the reference's order; a has no value in one draw in
    # three, and one draw in two has a blow-up bound of 2.0, which a growing field passes
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    trees = oracles.expr_trees(FLOW_SIG, max_leaves=8)
    n = np.arange(5)
    fields = {"u": 1.5 + 0.5 * np.cos(n + 0.3), "v": 1.2 - 0.4 * np.sin(2.0 * n + 1.0)}

    @hypothesis.settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @hypothesis.given(ru=trees, rv=trees, monitor=trees,
                      params=st.sampled_from([{"a": 0.7}, {"a": -1.3}, {}]),
                      blow_up=st.sampled_from([1e6, 2.0]))
    def check(ru, rv, monitor, params, blow_up):
        state0 = LatticeState(fields, 0.0, params)
        assert_same_outcome({"u": ru, "v": rv}, state0, (0.0, 0.2), 0.05, {"m": monitor}, blow_up)

    check()


# the rows of a block of states at 16 sites
ROWS = flows.BLOCK_VALUES // 16
# u grows as e^x from at most 1.1, so a bound or a chart is left in the middle of a block
GROWING = LatticeState({"u": 1.0 + 0.1 * np.cos(np.arange(16.0))}, 0.0, {})


def error_state(want, dt):
    """The state index of the x at which the reference's error names, from its message."""
    return round(float(want[2].rsplit("x = ", 1)[1]) / dt)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("blow_up", [3.0, 50.0])
def test_blow_up_in_the_middle_of_a_block_raises_the_reference_error(blow_up, sign):
    # the norm crosses 3 near state 100 of the first block, 50 near state 382, in the
    # second; a field that grows negative blows up alike
    state0 = LatticeState({"u": sign * GROWING.fields["u"]}, 0.0, {})
    want = assert_same_outcome({"u": var("u")}, state0, (0.0, 6.0), 0.01, {"u": var("u")}, blow_up)
    assert want[:2] == ("error", BlowUpError)
    assert 0 < error_state(want, 0.01) % ROWS < ROWS - 1, want


def test_blow_up_at_a_singular_new_state_raises_the_reference_error():
    # the right-hand side is singular at x = 0.06, state 6, and no stage reads that x:
    # the fourth stage of the step from state 5 is at 0.05 + 0.01.  The fast step stops
    # there, and the step taken again tests the norm of the new state, e^0.06 > 1.056,
    # before the right-hand side there
    assert 5 * 0.01 + 0.01 != 6 * 0.01
    rhs = {"u": var("u") + Const(1e-300) / (XVar() - Const(6 * 0.01))}
    state0 = LatticeState({"u": np.ones(2)}, 0.0, {})
    want = assert_same_outcome(rhs, state0, (0.0, 0.2), 0.01, {"u": var("u")}, blow_up=1.056)
    assert want[:3] == ("error", BlowUpError, "field norm 1.062e+00 at x = 0.06")


def test_initial_norm_above_the_bound_is_not_tested():
    # the reference tests the norm of each new state: 5 > 4.9 at x = 0 passes, and
    # one step of u' = -100 u takes it to 5 * 0.375
    state0 = LatticeState({"u": np.array([5.0, -1.0, 2.0])}, 0.0, {})
    want = assert_same_outcome({"u": Const(-100) * var("u")}, state0, (0.0, 0.05), 0.01,
                               {"u": var("u")}, blow_up=4.9)
    assert want[0] == "value"


@pytest.mark.parametrize("monitor, message", [
    # u crosses 3 near state 64 of 256: the monitor's sqrt is singular from there on
    (sqrt(Const(3) - var("u")), "sqrt of a negative value"),
    # x is 100/64 exactly at state 100, read from the block's column of x
    (var("u") / (XVar() - Const(100 / 64)), "division by zero"),
    # (u * 1e154)^2 overflows where u > 1.34, near state 13: a power's overflow test
    (power(var("u") * Const(1e154), 2), "non-finite value of "),
])
def test_monitor_singular_in_the_middle_of_a_block_raises_the_reference_error(monitor, message):
    monitors = {"u": var("u"), "m": monitor}
    want = assert_same_outcome({"u": var("u")}, GROWING, (0.0, 4.0), 1 / 64, monitors)
    assert want[:2] == ("error", SingularEvaluationError) and want[2].startswith(message)


@pytest.mark.parametrize("singular_x, first", [(150 / 64, "monitor"), (40 / 64, "step")])
def test_the_first_fault_of_a_block_wins(singular_x, first):
    # the monitor is singular from about state 64 on; the right-hand side at x =
    # singular_x, a fourth stage: where the fast step stops at state 149, the audit of
    # the states before it raises the monitor's error; at state 39, the step's
    rhs = {"u": var("u") + Const(1e-300) / (XVar() - Const(singular_x))}
    want = assert_same_outcome(rhs, GROWING, (0.0, 4.0), 1 / 64, {"m": sqrt(Const(3) - var("u"))})
    message = {"monitor": "sqrt of a negative value", "step": "division by zero"}[first]
    assert want[:3] == ("error", SingularEvaluationError, message)


def test_monitors_whose_nodes_share_audit_buffers_match_reference():
    # the audit's node buffers are shared where values are not needed at once: a
    # fold of three terms reads its last term after writing its first difference, and
    # a one-term sum, which a node may hold, is another name for its term's buffer
    u, w = var("u"), var("w")
    monitors = {"fold": (u * w - var("w", 1) * u + var("u", 1) * w) * u,
                "copy": Prod((Sum((u * var("u", 1),)), w - var("w", 1))),
                "log": ln_abs(u * w + Const(2)) - sqrt(u * u + w * w)}
    n = np.arange(6)
    state0 = LatticeState({"u": np.cos(n + 0.3), "w": np.sin(2.0 * n + 1.0)}, 0.0, {})
    assert_same_trajectory({"u": w, "w": -u}, state0, (0.0, 0.1), 0.01, monitors)


def test_pooled_slots_are_shared_only_by_values_never_read_together():
    # t1 is read last where t2 is written, so t2 takes a slot of its own; t3 takes
    # t1's; t4 copies t3, which holds its slot until t4 is read, with t5 in t2's
    lines = ["_multiply(t0, t0, t1)", "_add(t1, t0, t2)", "_negative(t2, t3)", "t4 = t3",
             "_add(t0, t0, t5)", "_multiply(t4, t5, t6)"]
    slots = flows._pooled(lines, ["t1", "t2", "t3", "t5", "t6"])
    assert slots == {"t1": 0, "t2": 1, "t3": 0, "t5": 1, "t6": 2}


@pytest.mark.parametrize("n_steps", [ROWS - 1, ROWS, ROWS + 1])
def test_trajectory_that_ends_at_a_block_edge_matches_reference(nls, n_steps):
    # the last state ends the first block, opens the second, or is the second's second
    cfg = nls.integrate_config
    state0 = cfg["initial_state"](16, 0.5)
    assert_same_trajectory(cfg["rhs"], state0, (0.0, n_steps * 1e-3), 1e-3, cfg["monitors"])


def test_flow_that_evolves_no_field_records_its_monitors():
    # no field norm to check: the fields stay, and the monitors are recorded at every step
    u = var("u")
    state0 = LatticeState({"u": np.arange(3.0)}, 0.0, {})
    assert_same_trajectory({}, state0, (0.0, 0.03), 0.01, {"square": u * u, "x": XVar()})


def test_constant_monitor_and_parameter_rhs_broadcast():
    rhs = {"u": var("u", 1) - var("u"), "c": Param("a")}
    monitors = {"const": Const(2.5), "param": Param("a")}
    state0 = LatticeState({"u": np.linspace(0.0, 1.0, 7), "c": np.zeros(7)},
                          0.0, {"a": 0.7})
    assert_same_trajectory(rhs, state0, (0.0, 0.1), 0.01, monitors)


def interned_rhs():
    # two right-hand sides built apart are one node
    rhs = {"u": var("u") * var("v", 1), "v": var("u") * var("v", 1)}
    assert rhs["u"] is rhs["v"]
    return rhs


# right-hand sides whose values alias an input or each other, or are no array at all
ALIASING_FLOWS = {
    "bare-field": lambda: {"u": var("v"), "v": -var("u")},
    "constant": lambda: {"u": Const(1.5), "v": var("u", 1) - var("v")},
    "interned": interned_rhs,
    "three-field": lambda: {"u": var("v", 1) - var("w", -1),
                            "v": var("w") * var("u") + Const(0.25),
                            "w": -(var("u", 1) * var("v"))},
}


@pytest.mark.parametrize("n_sites", [1, 2, 16, 1000])
@pytest.mark.parametrize("case", list(ALIASING_FLOWS))
def test_aliasing_right_hand_sides_match_reference(case, n_sites):
    rhs = ALIASING_FLOWS[case]()
    n = np.arange(n_sites)
    state0 = LatticeState({"u": np.cos(0.3 * n + 0.1), "v": np.sin(0.7 * n + 0.2),
                           "w": 0.5 + 0.1 * np.cos(n)}, 0.0, {})
    before = {name: values.copy() for name, values in state0.fields.items()}
    monitors = {"square": var("u") * var("u") + var("v") * var("v"), "v": var("v")}
    assert_same_trajectory(rhs, state0, (0.0, 0.05), 1e-2, monitors)
    first = integrate_lattice_flow(rhs, state0, (0.0, 0.05), 1e-2, monitors=monitors)
    second = integrate_lattice_flow(rhs, state0, (0.0, 0.05), 1e-2, monitors=monitors)
    # the initial state is read, never written, and each integration starts from it
    for name, values in before.items():
        assert state0.fields[name].tobytes() == values.tobytes(), name
    for name in state0.fields:
        assert first.final.fields[name].tobytes() == second.final.fields[name].tobytes(), name
    for label in monitors:
        assert first.monitor_sums[label].tobytes() == second.monitor_sums[label].tobytes()
    # the final fields own their values, so no later integration writes them
    for values in first.final.fields.values():
        assert values.base is None and values.flags.owndata


@pytest.mark.parametrize("where", ["third stage", "new state"])
def test_overflow_late_in_a_step_resumes_from_the_last_good_state(where, monkeypatch):
    # u*u*s overflows where s = 1e298 / ((x - 0.5)^2 + 1e-10) is near 1e308: at
    # x = 0.5 only (dt = 1/8 keeps every x exact), in the step from x = 0.375.
    # In the right-hand side it overflows in the third stage, after the first
    # two stages and the third's first nodes wrote their buffers; in a monitor,
    # at the new state, after the right-hand side there was written.  Taken
    # again with overflow quiet, 1 / (1 + inf) is 0, and a monitor sum inf.
    u = var("u")
    big = u * u * (Const(1e298) / (power(XVar() - Const(0.5), 2) + Const(1e-10)))
    rhs = -u + Const(0.1) * var("u", 1)
    if where == "third stage":
        rhs, monitors = {"u": rhs + Const(1) / (Const(1) + big)}, {"u": u}
    else:
        rhs, monitors = {"u": rhs}, {"u": u, "big": big}
    state0 = LatticeState({"u": np.array([3.0, 2.5, 3.5])}, 0.0, {})
    retaken = []
    lowered_steps = flows._lowered_steps

    def recording(*args):
        start, fast, checked = lowered_steps(*args)

        def checked_(y, k, x, i):
            retaken.append((i, x, y.copy()))
            return checked(y, k, x, i)
        return start, fast, checked_

    monkeypatch.setattr(flows, "_lowered_steps", recording)
    assert_same_trajectory(rhs, state0, (0.0, 1.0), 0.125, monitors)
    if where == "new state":
        # the monitors are computed in the block audit, quietly: no step is taken again
        assert retaken == []
        return
    # one step is taken again, from the state the fast step started it from, whole
    [(i, x, y)] = retaken
    assert (i, x) == (3, 0.375)
    _, _, want = reference_flow(rhs, state0, (0.0, 0.375), 0.125, {})
    assert y[0].tobytes() == want["u"].tobytes()


U = var("u")
A = Param("a")
B = Param("b")
# every singular case is evaluated with these parameters; b is a column, as the sampler binds it
PARAMS = {"a": 0.0, "b": np.array([2.0, 0.5, 1.5])}

SINGULAR_CASES = [
    ("division by zero", Const(1) / U, [1.0, 0.0, 2.0]),
    ("ln of zero", ln_abs(U), [1.0, 0.0]),
    ("sqrt of a negative value", sqrt(U), [1.0, -1.0]),
    ("zero base with negative exponent", power(U, -2), [0.0, 3.0]),
    ("non-finite value of u[0]^2", power(U, 2), [1e200]),
    # the denominator is checked before the numerator is evaluated
    ("division by zero", ln_abs(U) / (U - U), [0.0, 1.0]),
    # singular nodes of parameters and constants alone, checked when binding
    ("division by zero", U + Const(1) / A, [1.0, 2.0]),
    ("zero base with negative exponent", U * power(A, -1), [1.0]),
    ("ln of zero", U - ln_abs(Const(0)), [1.0]),
    ("sqrt of a negative value", U * sqrt(Const(-1.0)), [1.0]),
    # a power that overflows at one of finite points
    ("non-finite value of u[0]^2", power(U, 2), [1.0, 1e200, 2.0]),
    # a parameter-only node singular at one point of a parameter column
    ("sqrt of a negative value", U * sqrt(B - 1), [1.0, 2.0, 3.0]),
]


def at_point(params, i):
    """The parameters of point ``i``: a column gives its entry, a scalar itself."""
    return {p: v[i] if np.ndim(v) else v for p, v in params.items()}


def raises(e, a):
    try:
        evaluate(e, a)
    except SingularEvaluationError:
        return True
    return False


@pytest.mark.parametrize("message, e, values", SINGULAR_CASES)
def test_singular_nodes_match_evaluate(message, e, values):
    bind, variables = compile_exprs([e])
    assert variables == (U.fv,)
    arr = np.array(values)
    with pytest.raises(SingularEvaluationError) as want:
        evaluate(e, Assignment({U.fv: arr}, params=PARAMS))
    # the flow raises through evaluate at the lattice, as eval_on_lattice does
    with pytest.raises(SingularEvaluationError) as got:
        eval_on_lattice(e, LatticeState({"u": arr}, 0.0, PARAMS))
    assert str(want.value) == message
    assert str(got.value) == str(want.value)
    assert got.value.subexpr is want.value.subexpr
    _, bad = bind(PARAMS)([arr], 0.0, 1.0)
    pointwise = [raises(e, Assignment({U.fv: v}, params=at_point(PARAMS, i)))
                 for i, v in enumerate(values)]
    assert np.broadcast_to(bad, arr.shape).tolist() == pointwise


def test_parameter_only_error_is_raised_in_evaluate_order():
    # evaluate meets the field's zero denominator first, and so does the
    # flow, although the bound call tests the parameter-only denominator
    # once, when binding
    e = Const(1) / U + Const(1) / A
    arr = np.array([0.0, 1.0])
    with pytest.raises(SingularEvaluationError) as want:
        evaluate(e, Assignment({U.fv: arr}, params=PARAMS))
    with pytest.raises(SingularEvaluationError) as got:
        eval_on_lattice(e, LatticeState({"u": arr}, 0.0, PARAMS))
    assert want.value.subexpr is got.value.subexpr is U
    assert str(got.value) == str(want.value) == "division by zero"
    bind, _ = compile_exprs([e])
    _, bad = bind(PARAMS)([arr], 0.0, 1.0)
    assert np.broadcast_to(bad, arr.shape).tolist() == [True, True]


def test_quiet_overflow_matches_evaluate():
    e = U * U + Const(1)
    bind, _ = compile_exprs([e, U])
    arr = np.array([1e200, 2.0])
    got, bad = bind({})([arr], 0.0, 1.0)
    assert (got[0] == evaluate(e, Assignment({U.fv: arr}))).all()
    assert got[0][0] == np.inf and got[1] is arr
    assert bad is False   # a product that overflows is not singular


def test_an_overflow_is_computed_once(monkeypatch):
    # one pass with overflow quiet: evaluate steps the product that overflows once
    arr = np.array([1e200, 2.0])
    steps = []
    rule = expr._RULES[Prod]
    monkeypatch.setattr(rule, "step", lambda *args, step=rule.step: steps.append(1) or step(*args))
    got = evaluate(U * U + Const(1), Assignment({U.fv: arr}))
    assert len(steps) == 1 and got.tolist() == [np.inf, 5.0]


def test_a_bound_call_that_overflows_computes_once(monkeypatch):
    # one pass with overflow quiet: the bound call computes the power that overflows once
    calls = []
    monkeypatch.setitem(expr._LOWERED_GLOBALS, "_power",
                        lambda *args: calls.append(args) or np.power(*args))
    bind, _ = compile_exprs([power(U, 2) + Const(1)])
    (got,), bad = bind({})([np.array([1e200, 2.0])], 0.0, 1.0)
    assert len(calls) == 1
    assert got.tolist() == [np.inf, 5.0] and bad.tolist() == [True, False]


DD_SIG = ProblemSignature(("u",), 1, differential=True, has_x=True, params=("a",))


def test_generated_lists_match_pointwise_evaluate():
    # the values bit for bit where evaluate returns, the mask set exactly where it raises,
    # at scales where powers and products overflow
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = Counter()

    @hypothesis.settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @hypothesis.given(exprs=st.lists(oracles.expr_trees(DD_SIG, max_leaves=8), min_size=1,
                                     max_size=3),
                      scale=st.sampled_from([1.0, 1e100, 1e200]),
                      a=st.sampled_from([0.7, -1.3]), alt=st.sampled_from([1.0, -1.0]))
    def check(exprs, scale, a, alt):
        bind, variables = compile_exprs(exprs)
        columns = scale * np.random.default_rng(len(variables)).uniform(-2, 2, (len(variables), 5))
        columns[:, 0] = 0.0
        params = {"a": scale * a}
        got, bad = bind(params)(list(columns), 0.75, alt)
        got = [np.broadcast_to(np.asarray(g, dtype=float), (5,)) for g in got]
        bad = np.broadcast_to(bad, (5,))
        seen["masked"] += bool(bad.any())
        seen["non-finite"] += not all(np.isfinite(g).all() for g in got)
        for i in range(5):
            point = Assignment(dict(zip(variables, columns[:, i])), x=0.75, params=params, alt=alt)
            try:
                want = [evaluate(e, point) for e in exprs]
            except SingularEvaluationError:
                assert bad[i], (exprs, i)
                continue
            assert not bad[i], (exprs, i)
            for g, w, e in zip(got, want, exprs):
                assert g[i].tobytes() == np.float64(w).tobytes(), (e, i)

    check()
    assert seen["masked"] and seen["non-finite"], seen


def test_parameter_overflow_falls_back_to_evaluate():
    e = U * A ** 2
    params = {"a": 1e200}
    arr = np.array([1.0, 2.0])
    with pytest.raises(SingularEvaluationError) as want:
        evaluate(e, Assignment({U.fv: arr}, params=params))
    fn = compile_exprs([e])[0](params)   # the prelude overflows: no error, a set mask
    assert np.all(fn([arr], 0.0, 1.0)[1])
    with pytest.raises(SingularEvaluationError) as got:
        eval_on_lattice(e, LatticeState({"u": arr}, 0.0, params))
    assert str(got.value) == str(want.value) == "non-finite value of a^2"
    assert got.value.subexpr is want.value.subexpr


def test_missing_parameter_raises_as_evaluate():
    for e in (U * Param("b"), U + Const(1) / Param("b")):
        with pytest.raises(expr.MissingVariableError, match="parameter 'b' has no value"):
            evaluate(e, Assignment({U.fv: np.ones(2)}))
        bind, _ = compile_exprs([e])
        # the prelude lacks b: binding raises evaluate's error
        with pytest.raises(expr.MissingVariableError, match="^parameter 'b' has no value$"):
            bind({})


def test_structurally_equal_subtrees_are_lowered_once(monkeypatch):
    calls = []

    def counting_power(*args):
        calls.append(args)
        return np.power(*args)

    # two independent builds of one cube, inside two expressions
    first = power(var("u", 0) + var("u", 1), 3) * var("v")
    second = ln_abs(power(var("u", 0) + var("u", 1), 3)) + Const(2.5)
    assert "_power" in expr._LOWERED_GLOBALS   # setitem would add a missing key
    monkeypatch.setitem(expr._LOWERED_GLOBALS, "_power", counting_power)
    bind, variables = compile_exprs([first, second])
    fn = bind({})
    rng = np.random.default_rng(5)
    values = [rng.uniform(0.5, 1.5, 9) for _ in variables]
    got, bad = fn(values, 0.0, 1.0)
    assert len(calls) == 1
    a = Assignment(dict(zip(variables, values)))
    for g, e in zip(got, (first, second)):
        assert g.tobytes() == evaluate(e, a).tobytes()


def test_later_negated_terms_are_subtracted():
    a, b, c = var("a"), var("b"), var("c")
    # a leading -a stays a negation; -c reads c and is subtracted, with no line of its own
    e = -a + b - c
    lowering = Lowering([e, b - a])
    lines = [line for line, _ in lowering.body]
    negations = [line for line in lines if "_negative(" in line]
    assert len(negations) == 1 and sum("_subtract(" in line for line in lines) == 2
    # a Neg term that another node reads keeps its line
    assert sum("_negative(" in line for line, _ in Lowering([b - c, (-c) * a]).body) == 1
    # every sign of zero at every input: the values equal evaluate's bit for bit
    columns = np.array(list(itertools.product([0.0, -0.0, 1.5], repeat=3))).T
    values = dict(zip((a.fv, b.fv, c.fv), columns))
    bind, variables = compile_exprs([e, b - a, b - c])
    got, _ = bind({})([values[fv] for fv in variables], 0.0, 1.0)
    for g, want in zip(got, (e, b - a, b - c)):
        assert g.tobytes() == evaluate(want, Assignment(values)).tobytes()


def test_a_state_with_no_field_raises_an_expr_error():
    with pytest.raises(ExprError, match="^a lattice state with no field has no number of sites$"):
        integrate_lattice_flow({}, LatticeState({}), (0.0, 0.03), 0.01)
    with pytest.raises(ExprError, match="^a lattice state with no field has no number of sites$"):
        eval_on_lattice(Const(1), LatticeState({}))


def test_overflowing_product_is_a_blow_up():
    state = LatticeState({"u": np.full(4, 1e200)}, 0.0, {})
    with pytest.raises(BlowUpError, match=r"^field norm inf at x = "):
        integrate_lattice_flow({"u": U * U}, state, (0.0, 0.1), 0.05, blow_up=1e300)


def test_no_tree_walk_or_roll_per_step(nls, monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("evaluate", "fieldvars"):
        original = getattr(expr, name)
        wrapped = counting(name, original)
        for mname, mod in list(sys.modules.items()):
            if mname.startswith("lattice_frames") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapped)
    monkeypatch.setattr(np, "roll", counting("roll", np.roll))

    cfg = nls.integrate_config
    state0 = cfg["initial_state"](16, 0.5)

    def count(x_span):
        calls.clear()
        integrate_lattice_flow(cfg["rhs"], state0, x_span, 1e-3, monitors=cfg["monitors"])
        return dict(calls)

    assert count((0.0, 0.01)) == count((0.0, 0.1))


def test_error_state_and_step_builder_once_per_integration(nls, monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    class CountedErrstate(np.errstate):
        # an error state entered by `with`, or by a call of a function decorated
        # after the patch, such as the audit, which each integration decorates: numpy
        # enters a decorated function's state without calling __enter__
        def __enter__(self):
            calls["with"] += 1
            return super().__enter__()

        def __call__(self, fn):
            return counting(fn.__name__, super().__call__(fn))

    monkeypatch.setattr(np, "errstate", CountedErrstate)
    assert "_quiet_overflow" in vars(expr)
    # expr's quiet state is decorated at import: its calls are counted here
    monkeypatch.setattr(expr, "_quiet_overflow", counting("quiet", expr._quiet_overflow))
    # the flow enters the quiet state of expr for its first state and each checked step
    monkeypatch.setattr(flows, "_quiet_overflow", counting("flows_quiet", flows._quiet_overflow))
    monkeypatch.setattr(flows, "_lowered_steps", counting("build", flows._lowered_steps))
    cfg = nls.integrate_config
    state0 = cfg["initial_state"](16, 0.5)

    def count(x_span):
        calls.clear()
        integrate_lattice_flow(cfg["rhs"], state0, x_span, 1e-3, monitors=cfg["monitors"])
        return dict(calls)

    # at 16 sites a block holds 256 states: 11 states fill one block, 1001 four
    short, long = count((0.0, 0.01)), count((0.0, 1.0))
    assert short.pop("audit") == 1 and long.pop("audit") == 4
    assert short == long
    assert short["build"] == 1 and short["with"] == 1 and short["flows_quiet"] == 1


def test_equal_mask_tests_are_one_line():
    a, b, d = var("a"), var("b"), var("d") - Const(1.0)
    exprs = [a / d, b / d]
    lowering = Lowering(exprs)
    tests = [line for line, _ in lowering.body if line.startswith("m = ")]
    assert len(tests) == 1 and lowering.results[0] != lowering.results[1]
    bind, variables = compile_exprs(exprs)
    values = {a.fv: np.array([1.0, 2.0, 3.0]), b.fv: np.array([0.0, 1.0, 4.0]),
              var("d").fv: np.array([2.0, 1.0, 0.5])}
    _, bad = bind({})([values[fv] for fv in variables], 0.0, 1.0)
    pointwise = [any(raises(e, Assignment({fv: v[i] for fv, v in values.items()}))
                     for e in exprs) for i in range(3)]
    assert bad.tolist() == pointwise == [False, True, False]


def test_nls_right_hand_side_tests_its_denominator_once(nls):
    # both fields divide by h^2; the powers' overflow tests are of distinct nodes
    lowering = Lowering(list(nls.integrate_config["rhs"].values()))
    tests = [line for line, overflow in lowering.prelude + lowering.body
             if line.startswith("m = ") and not overflow]
    assert len(tests) == 1 and "_equal(" in tests[0] and tests[0].endswith(", 0))")


def test_no_singular_check_per_step(nls, monkeypatch):
    # the checks of h^2 and the constant denominators run once per binding:
    # the prelude reduces its mask once, and the flow reduces no mask per step
    calls = []
    np_any = np.any

    def counting_any(*args, **kwargs):
        calls.append(args)
        return np_any(*args, **kwargs)

    assert "_any" in expr._LOWERED_GLOBALS   # setitem would add a missing key
    monkeypatch.setitem(expr._LOWERED_GLOBALS, "_any", counting_any)
    monkeypatch.setattr(np, "any", counting_any)
    cfg = nls.integrate_config
    state0 = cfg["initial_state"](16, 0.5)

    def count(x_span):
        calls.clear()
        integrate_lattice_flow(cfg["rhs"], state0, x_span, 1e-3, monitors=cfg["monitors"])
        return len(calls)

    assert count((0.0, 0.01)) == count((0.0, 0.1))


@pytest.mark.parametrize("mask", [
    True, False, np.True_, np.False_, np.array(True), np.array(False),
    np.array([False, False, True]), np.zeros(3, dtype=bool),
    np.array([[False, False], [False, True]]), np.zeros((2, 2), dtype=bool),
    np.zeros(0, dtype=bool), np.zeros((2, 0), dtype=bool),
], ids=repr)
def test_any_is_the_truth_of_np_any(mask):
    # the singular tests reduce their masks with one ufunc call, not numpy's wrapper
    got = expr._LOWERED_GLOBALS["_any"](mask)
    assert type(got) is bool and got == bool(np.any(mask))


# numbers that the lowered code binds as 0-d arrays, each read per point or alone
BINDING_CASES = [
    # integer constants, one that float64 rounds, and a negative zero
    Const(3) * U, U + Const(2**53 + 1), Prod((Const(-0.0), U)), Sum((U, Const(-0.0))),
    Const(7), Const(2**53 + 1), Const(-0.0),
    # exponents
    power(U, 2), power(U, 3), power(U, -2),
    # parameter-only subexpressions that a per-point node reads
    U * (A * A + Const(1)), U / power(A, 3), U - sqrt(A) * XVar(),
    # constants alone, as in a guard that reads no input
    ln_abs(Const(2.5)) - Const(1),
]


@pytest.mark.parametrize("a", [1.7, np.array([1.7, 0.3, 2.5, 1.1, 0.9])])
def test_bound_numbers_match_evaluate_bit_for_bit(a):
    values = {U.fv: np.array([-1.5, 0.3, 2.0, 1e-3, 7.25])}
    params = {"a": a}
    bind, variables = compile_exprs(BINDING_CASES)
    got, bad = bind(params)([values[fv] for fv in variables], 0.75, 1.0)
    assert not np.any(bad)
    want = Assignment(values, x=0.75, params=params)
    for g, e in zip(got, BINDING_CASES):
        w = evaluate(e, want)
        assert np.shape(g) == np.shape(w), e
        assert np.asarray(g, dtype=float).tobytes() == np.asarray(w, dtype=float).tobytes(), e


def recorded_compiles(monkeypatch):
    """``(source, bound, names)`` of each later :meth:`Lowering.compile` call."""
    calls = []
    compile_ = Lowering.compile

    def recording(self, functions, **names):
        calls.append((self.source(functions), self.bound, names))
        return compile_(self, functions, **names)

    monkeypatch.setattr(Lowering, "compile", recording)
    return calls


def scalar_operands(source, names):
    """The scalar operands of the arithmetic and tests of the functions bound per call.

    A numeric literal that is an operand of a ``BinOp`` or ``Compare``, and
    a global of ``names`` holding a Python or numpy scalar that is an
    operand of a ``BinOp``.  The step index ``i`` and the ``x`` arithmetic,
    which stay Python numbers, are exempt.
    """
    prelude = ast.parse(source).body[0].body[0]
    per_call = [node for node in prelude.body if isinstance(node, ast.FunctionDef)]
    exempt = {id(node) for fn in per_call for stmt in ast.walk(fn)
              if isinstance(stmt, ast.Assign) and [ast.unparse(t) for t in stmt.targets] == ["x"]
              for node in ast.walk(stmt)}
    found = []
    for node in [node for fn in per_call for node in ast.walk(fn) if id(node) not in exempt]:
        if isinstance(node, ast.BinOp):
            operands = [node.left, node.right]
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        else:
            continue
        if any(isinstance(o, ast.Name) and o.id == "i" for o in operands):
            continue
        for o in operands:
            literal = isinstance(o, ast.Constant) and type(o.value) in (int, float)
            scalar = (isinstance(node, ast.BinOp) and isinstance(o, ast.Name)
                      and isinstance(names.get(o.id), (int, float, np.number)))
            if literal or scalar:
                found.append(ast.unparse(node))
    return found


def unconverted_reads(source):
    """The prelude values that the functions bound per call read unconverted.

    A value is converted when the prelude assigns it ``_asarray`` of itself;
    the prelude mask ``bad`` is not a value, and a name the function
    assigns, such as its mask ``m``, is its own.
    """
    prelude = ast.parse(source).body[0].body[0]
    assigned, converted = {"bad"}, {"bad"}
    for node in ast.walk(ast.Module([s for s in prelude.body
                                     if not isinstance(s, ast.FunctionDef)], [])):
        if isinstance(node, ast.Assign):
            name = ast.unparse(node.targets[0])
            assigned.add(name)
            if ast.unparse(node.value) == f"_asarray({name})":
                converted.add(name)
    reads = set()
    for fn in [node for node in prelude.body if isinstance(node, ast.FunctionDef)]:
        names = [node for node in ast.walk(fn) if isinstance(node, ast.Name)]
        local = {node.id for node in names if isinstance(node.ctx, ast.Store)}
        reads |= {node.id for node in names if node.id in assigned - local}
    return sorted(reads - converted)


def test_lowered_code_takes_no_scalar_operand(nls, monkeypatch):
    # a ufunc converts a scalar operand on every call, a 0-d array it takes as it is
    calls = recorded_compiles(monkeypatch)
    cfg = nls.integrate_config
    integrate_lattice_flow(cfg["rhs"], cfg["initial_state"](16, 0.5), (0.0, 0.01), 1e-3,
                           monitors=cfg["monitors"])
    assert len(calls) == 1 and "_add(Y, _multiply(factor, source, _A), _A)" in calls[0][0]
    assert type(calls[0][2]["_half_a"]) is np.ndarray
    for name in ("toda", "ex81", "nls"):
        b = get_example(name)
        b.plan(n_points=5).assignments([b.L], b.sig)
    # a mask test of every rule, of per-point values
    compile_exprs([Const(1) / U, ln_abs(U), sqrt(U), power(U, -2) * A])
    assert len(calls) == 5
    numbers = 0
    for source, bound, names in calls:
        assert scalar_operands(source, names) == []
        assert unconverted_reads(source) == []
        for datum in bound.values():
            if type(datum) is not str:      # a parameter's name
                numbers += 1
                assert type(datum) is np.ndarray and datum.shape == ()
                assert datum.dtype == np.float64 and not datum.flags.writeable
    assert numbers > 0


def test_scalar_operands_are_found():
    # the test above would see a scalar come back
    source = Lowering([U]).source({"f": ("V, x, i", [
        "t0 = V[0] * 2.0", "m = V[0] == 0", "t1 = _s * V[0]", "x = x + 1.0", "j = i + 1"])})
    assert scalar_operands(source, {"_s": 0.5}) == ["V[0] * 2.0", "V[0] == 0", "_s * V[0]"]
    lowering = Lowering([U * (A + Const(1)), U * Const(2)])
    source = lowering.source({"f": ("V, x, alt", lowering.lines())})
    assert unconverted_reads(source) == []
    unconverted = source.replace("t3 = _asarray(t3)", "pass")
    assert unconverted != source and unconverted_reads(unconverted) == ["t3"]


UFUNCS = {name: ufunc for name, ufunc in expr._LOWERED_GLOBALS.items()
          if isinstance(ufunc, np.ufunc)}


def test_fast_step_computes_into_buffers_and_prints_its_stage_once(nls, monkeypatch):
    calls = recorded_compiles(monkeypatch)
    cfg = nls.integrate_config
    integrate_lattice_flow(cfg["rhs"], cfg["initial_state"](16, 0.5), (0.0, 0.01), 1e-3,
                           monitors=cfg["monitors"])
    [(source, _, _)] = calls
    prelude = ast.parse(source).body[0].body[0]
    functions = {fn.name: fn for fn in prelude.body if isinstance(fn, ast.FunctionDef)}
    [loop] = [node for node in ast.walk(functions["_fast"]) if isinstance(node, ast.While)]
    ufunc_calls = [node for node in ast.walk(loop) if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name) and node.func.id in UFUNCS]
    assert len(ufunc_calls) > 20
    for node in ufunc_calls:
        # every ufunc call passes its output buffer, positionally
        assert len(node.args) == UFUNCS[node.func.id].nin + 1, ast.unparse(node)
    for node in ast.walk(loop):
        # an assignment computes nothing but x and the step and row counters:
        # every other value is a name, a read of V, a choice of buffer, or a reduction
        if isinstance(node, ast.Assign):
            computed = [n for n in ast.walk(node.value) if isinstance(n, (ast.BinOp, ast.UnaryOp))]
            if computed:
                assert ast.unparse(node.targets[0]) in ("x", "r", "(i, Y, K, X)"), \
                    ast.unparse(node)
    # the stage lines are printed once, in a loop over the three stages, and the
    # right-hand side's nodes twice: in the stage and at the new state
    fast = ast.unparse(functions["_fast"])
    [stages] = [node for node in ast.walk(loop) if isinstance(node, ast.For)]
    assert fast.count("_add(Y, _multiply(factor, source, _A), _A)") == 1
    assert "_add(Y, _multiply(factor, source, _A), _A)" in ast.unparse(stages)
    lowering = Lowering([*cfg["rhs"].values(), *cfg["monitors"].values()], n_first=2)
    rhs_lines = lowering.lines(end=lowering.first_end, in_place=True)
    assert all(fast.count(line) == 2 for line in rhs_lines)
    assert source.count(rhs_lines[-1]) == 2 + 2 + 1    # fast, checked, start


def fast_loop(monkeypatch, rhs, state0, monitors):
    """The ``while`` loop of the ``_fast`` function that one integration compiles."""
    calls = recorded_compiles(monkeypatch)
    integrate_lattice_flow(rhs, state0, (0.0, 0.01), 1e-3, monitors=monitors)
    [(source, _, _)] = calls
    prelude = ast.parse(source).body[0].body[0]
    [fast] = [fn for fn in prelude.body if isinstance(fn, ast.FunctionDef) and fn.name == "_fast"]
    [loop] = [node for node in ast.walk(fast) if isinstance(node, ast.While)]
    return loop


def test_fast_step_writes_its_mask_tests_into_buffers(monkeypatch):
    # 1 / (u + 2) tests its denominator at every stage and at the new state
    u = var("u")
    rhs = {"u": Const(1) / (u + Const(2))}
    state0 = LatticeState({"u": np.linspace(0.0, 1.0, 5)}, 0.0, {})
    assert_same_trajectory(rhs, state0, (0.0, 0.01), 1e-3, {"u": u})
    loop = fast_loop(monkeypatch, rhs, state0, {"u": u})
    ufunc_calls = [node for node in ast.walk(loop) if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name) and node.func.id in UFUNCS]
    called = Counter(node.func.id for node in ufunc_calls)
    assert called["_equal"] == called["_logical_or"] == 2    # in the stage and at the new state
    for node in ufunc_calls:
        assert len(node.args) == UFUNCS[node.func.id].nin + 1, ast.unparse(node)
    assert "m = m |" not in ast.unparse(loop)


def test_fast_step_numpy_call_budget(nls, monkeypatch):
    # the numpy calls of one step: each ufunc, take and reduction, the stage's once
    # per stage, and each store into an array.  A step of the nls flow at the CLI's
    # 16 sites makes 58: 3 stages of 13 (the stage input's 2, the take, and 10 for
    # the right-hand sides, whose five packs of two nodes save 6 of their 16 calls),
    # the combination's 7, and 12 at the new state (the take, the 10, and the store
    # of x), 39 + 7 + 12.  The norm test and the monitors, 14 more, are the block
    # audit's.
    cfg = nls.integrate_config
    loop = fast_loop(monkeypatch, cfg["rhs"], cfg["initial_state"](16, 0.5), cfg["monitors"])
    numpy_names = set(UFUNCS) | {"_take", "_max"}

    def count(nodes, weight):
        total = 0
        for node in nodes:
            if isinstance(node, ast.For):
                total += count(node.body, 3 * weight)
                continue
            for n in ast.walk(node):
                called = isinstance(n, ast.Call) and getattr(n.func, "id", None) in numpy_names
                stored = isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Subscript)
                total += weight * (called + stored)
        return total

    assert count(loop.body, 1) == 58


def packs(rhs):
    """The member counts of the packs that the flow of ``rhs`` computes, in order."""
    return [len(members) for members in
            Lowering(list(rhs.values()), n_first=len(rhs)).in_place.packs.values()]


def mirrored(e, negated):
    """``e`` with u and v swapped, its terms negated where ``negated``, repeated, says."""
    image = substitute(e, {fv: Var(fv._replace(name={"u": "v", "v": "u"}[fv.name]))
                           for fv in fieldvars(e)})
    terms = image.terms if type(image) is Sum else (image,)
    return add(*[neg(t) if flag else t for t, flag in zip(terms, itertools.cycle(negated))])


def mirrored_fields(n_sites):
    n = np.arange(n_sites)
    return {"u": 1.5 + 0.5 * np.cos(n + 0.3), "v": 1.2 - 0.4 * np.sin(2.0 * n + 1.0)}


@pytest.mark.parametrize("n_sites", [1, 2, 16])
def test_mirrored_flows_match_the_reference_or_raise_alike(n_sites):
    # the right-hand side of v is that of u with u and v swapped and some terms
    # negated, as the method of lines makes them of psi = u + iv: most draws pack
    # nodes of both, and a packed quotient, power, log or root may be singular
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fields, packed = mirrored_fields(n_sites), []

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @hypothesis.given(ru=oracles.expr_trees(FLOW_SIG, max_leaves=10),
                      negated=st.lists(st.booleans(), min_size=1, max_size=3),
                      a=st.sampled_from([0.7, -1.3]), blow_up=st.sampled_from([1e6, 2.0]))
    def check(ru, negated, a, blow_up):
        rhs = {"u": ru, "v": mirrored(ru, negated)}
        packed.append(packs(rhs) != [])
        assert_same_outcome(rhs, LatticeState(fields, 0.0, {"a": a}), (0.0, 0.2), 0.05,
                            {"m": ru * rhs["v"]}, blow_up)

    check()
    assert sum(packed) >= 10, packed


U0, V0 = var("u"), var("v")
MIRRORED_CASES = {
    # u and v do not change, and the packed quotients are singular where x reaches
    # u = 0.06 at site 0, at state 6 alone (5 * 0.01 + 0.01 != 6 * 0.01), or v = 0.05
    # + 0.005 at site 0, in the second stage of the step from state 5
    "quotient at a state": (Alt() * ((U0 - U0) / (XVar() - U0)),
                            Alt() * ((V0 - V0) / (XVar() - V0)),
                            {"u": [6 * 0.01, 0.7], "v": [0.9, 0.8]}, "division by zero"),
    "quotient at a stage": (Alt() * ((U0 - U0) / (XVar() - V0)),
                            Alt() * ((V0 - V0) / (XVar() - U0)),
                            {"u": [0.7, 0.3], "v": [0.05 + 0.005, 0.8]}, "division by zero"),
    # v falls by about 5e5 in the first stage, and its packed square overflows
    "overflow": (power(U0 * Const(1e150), 2) * Const(1e-300) + var("v", 1),
                 -(power(V0 * Const(1e150), 2) * Const(1e-300)) + var("u", 1),
                 {"u": [1e3, 2.0], "v": [3.0, 1e4]}, "non-finite value of "),
    # a packed power of a negative exponent is singular at a zero base, u = -a at site 0
    "zero base": (power(U0 + Param("a"), -2) + var("v", -1),
                  power(V0 + Param("a"), -2) - var("u", 1),
                  {"u": [0.5, 1.0], "v": [2.0, 0.3]}, "zero base with negative exponent"),
    # the packed squares grow: the field norm passes 40
    "blow-up": (power(U0, 2) + V0 * var("v", 1) + XVar(), power(V0, 2) + U0 * var("u", 1) - XVar(),
                {"u": [3.0, 1.0], "v": [2.0, 0.5]}, "field norm "),
}


@pytest.mark.parametrize("n_sites", [1, 2, 16])
@pytest.mark.parametrize("case", MIRRORED_CASES)
def test_mirrored_flows_that_fail_in_a_packed_node_raise_the_reference_error(case, n_sites):
    ru, rv, values, message = MIRRORED_CASES[case]
    rhs = {"u": ru, "v": rv}
    assert packs(rhs)
    fields = {name: np.resize(np.array(v, dtype=float), n_sites) for name, v in values.items()}
    state0 = LatticeState(fields, 0.0, {"a": -0.5})
    want = assert_same_outcome(rhs, state0, (0.0, 0.5), 0.01, {"m": U0 * V0}, blow_up=40.0)
    assert want[0] == "error" and want[2].startswith(message), want


def test_three_fields_pack_in_threes():
    # du = v w + u (u^2 + v^2 + w^2) + the difference Laplacian of u, and so on in turn
    u, v, w = var("u"), var("v"), var("w")
    laplacian = {f: (var(f, -1) - Const(2) * var(f) + var(f, 1)) / power(Param("h"), 2)
                 for f in "uvw"}
    mass = power(u, 2) + power(v, 2) + power(w, 2)
    rhs = {"u": v * w + u * mass + laplacian["u"], "v": w * u + v * mass + laplacian["v"],
           "w": u * v + w * mass + laplacian["w"]}
    # the squares, the products of two fields, the fields times the mass, twice
    # the fields, the Laplacians' sums and their quotients
    assert packs(rhs) == [3] * 6
    for n_sites in (1, 2, 16):
        n = np.arange(n_sites)
        state0 = LatticeState({"u": 0.3 * np.cos(n), "v": 0.2 * np.sin(n + 1.0),
                               "w": 0.1 + 0.05 * n}, 0.0, {"h": 0.5})
        assert_same_outcome(rhs, state0, (0.0, 0.1), 1e-3, {"mass": mass})


def test_operands_in_another_order_do_not_pack():
    # u^2 and v^2 pack, in that order, and so do alt u^2 and alt v^2, which read their
    # rows in order; x v^2 (of u) and x u^2 (of v) read them in reverse, and u x and
    # x v have their field in another position: neither pair packs
    u, v = var("u"), var("v")
    rhs = {"u": Alt() * power(u, 2) + XVar() * power(v, 2) + u * XVar(),
           "v": Alt() * power(v, 2) + XVar() * power(u, 2) + XVar() * v}
    assert packs(rhs) == [2, 2]
    for n_sites in (1, 2, 16):
        n = np.arange(n_sites)
        state0 = LatticeState({"u": np.cos(n + 0.3), "v": np.sin(n)}, 0.0, {})
        assert_same_outcome(rhs, state0, (0.0, 0.2), 0.05, {"m": u * v})


def test_nls_right_hand_sides_pack_in_pairs(nls):
    # u^2 and v^2; v and u times their sum; 2v and 2u; the two difference Laplacians;
    # and those over h^2: five pairs, which save 6 of the 16 calls of a stage
    lowering = Lowering(list(nls.integrate_config["rhs"].values()), n_first=2)
    placed = lowering.in_place
    assert [len(members) for members in placed.packs.values()] == [2] * 5
    calls = [sum(line.count("(") for line in lowering.lines(end=lowering.first_end, in_place=put))
             for put in (False, True)]
    assert calls == [16, 10]
    # each window is two reads of the fields, and no pack reads another's rows in part
    assert all(len(slots) == 2 for slots in placed.windows.values()) and placed.views == {}


def test_right_hand_sides_of_no_common_shape_do_not_pack():
    u, v = var("u"), var("v")
    assert packs({"u": u * var("v", 1) + Const(1), "v": ln_abs(u + Const(2)) - sqrt(v)}) == []
    assert packs({"u": u * u}) == []


def test_a_pack_reads_some_rows_of_a_larger_pack():
    # u^2, v^2 and w^2 pack in three; of those, u^2 + 1 and v^2 + 1 pack in two,
    # reading the first two rows of the three
    u, v, w = var("u"), var("v"), var("w")
    rhs = {"u": (u * u + Const(1)) * v, "v": (v * v + Const(1)) * u, "w": w * w + u}
    lowering = Lowering(list(rhs.values()), n_first=3)
    assert list(lowering.in_place.views.values()) == [("p0", 0, 2)]
    for n_sites in (1, 2, 16):
        n = np.arange(n_sites)
        state0 = LatticeState({"u": np.cos(n + 0.3), "v": np.sin(n), "w": 0.5 - 0.1 * n},
                              0.0, {})
        assert_same_outcome(rhs, state0, (0.0, 0.2), 0.05, {"m": u * v})


# the template of every rule that computes, and the subtraction a sum prints for a Neg term
COMPUTING = sorted({rule.value for cls, rule in expr._RULES.items()
                    if cls not in (Const, Param, XVar, Alt, Var)} | {expr._RULES[Sum].minus})


@pytest.mark.parametrize("template", COMPUTING)
def test_in_place_forms_match_the_rule_values_bit_for_bit(template):
    # each template, given a buffer in its {out} slot, gives the bits it gives
    # without one, specials included, and writes them into that buffer
    rng = np.random.default_rng(5)
    specials = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e308, -1e-310, 5e-324]
    a = np.concatenate([specials, rng.normal(scale=1e3, size=22)])
    b = np.concatenate([specials[::-1], rng.normal(scale=1e-2, size=22)])
    names = {**expr._LOWERED_GLOBALS, "a": a, "b": b, "k": np.array(3.0)}
    with np.errstate(all="ignore"):
        want = eval(template.format("a", "b", k="k", out=""), names)
        out = names["out"] = np.empty_like(a)
        got = eval(template.format("a", "b", k="k", out=", out"), names)
    assert got is out and out.tobytes() == want.tobytes()


def test_python_int_parameters_keep_their_values():
    # evaluate keeps Python's exact int arithmetic; the lowered prelude converts
    # each parameter to float64, where int64 would wrap the product silently
    a, b = Param("a"), Param("b")
    params = {"a": 2**40 + 1, "b": 2**40 + 1}
    exprs = [a * b, -a + b, a * b - a]
    got = [evaluate(e, Assignment({}, params=params)) for e in exprs]
    assert got == [(2**40 + 1) ** 2, 0, (2**40 + 1) ** 2 - (2**40 + 1)]
    assert all(type(v) is int for v in got)
    bind, _ = compile_exprs(exprs)
    bound, _ = bind(params)([], 0.0, 1.0)
    assert [float(v) for v in bound] == [float(v) for v in got]
