import json

import numpy as np
import pytest

from lattice_frames.expr import Const, FieldVar, ProblemSignature, Var
from lattice_frames.flows import (
    BlowUpError,
    LatticeState,
    eval_on_lattice,
    integrate_lattice_flow,
    monitor_conserved,
    step_count,
)
from lattice_frames.sampling import (
    Guard,
    SamplePlan,
    SamplingExhaustedError,
    identity_check,
)


def fv(name, *K, d=0):
    return FieldVar(name, d, tuple(K))


SIG = ProblemSignature(("u",), 2)


class TestIdentityCheck:
    def test_syntactic_equality_zero_residual(self, toda, toda_plan):
        r = identity_check(toda.L, toda.L, toda_plan, toda.sig)
        assert r.passed and r.max_residual == 0.0

    def test_toda_syzygy(self, toda, toda_plan):
        inv = toda.invset
        name, lhs, rhs = inv.syzygies[0]
        r = identity_check(inv.expand(lhs), inv.expand(rhs), toda_plan, toda.sig,
                           tol=1e-10)
        assert r.passed

    def test_negative_control(self, toda, toda_plan):
        inv = toda.invset
        name, lhs, rhs = inv.syzygies[0]
        r = identity_check(inv.expand(lhs) + Const(1e-3), inv.expand(rhs),
                           toda_plan, toda.sig, tol=1e-10)
        assert not r.passed

    def test_deterministic_reports(self, toda):
        inv = toda.invset
        name, lhs, rhs = inv.syzygies[0]
        a = identity_check(inv.expand(lhs), inv.expand(rhs), toda.plan(seed=5),
                           toda.sig)
        b = identity_check(inv.expand(lhs), inv.expand(rhs), toda.plan(seed=5),
                           toda.sig)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
        c = identity_check(inv.expand(lhs), inv.expand(rhs), toda.plan(seed=6),
                           toda.sig)
        assert c.max_residual != a.max_residual or c.seed != a.seed

    def test_report_schema(self, toda, toda_plan):
        r = identity_check(toda.L, toda.L, toda_plan, toda.sig, check_id="c1")
        d = json.loads(json.dumps(r.to_dict()))
        assert set(d) == {"check_id", "status", "max_residual", "n_points", "seed"}


class TestSampling:
    def test_guards_respected(self):
        g = Guard(Var(fv("u", 0, 0)), "pos", 0.5)
        plan = SamplePlan(n_points=30, seed=1, guards=(g,))
        for a in plan.assignments([Var(fv("u", 0, 0))], SIG):
            assert a.values[fv("u", 0, 0)] >= 0.5

    def test_exhaustion(self):
        g = Guard(Var(fv("u", 0, 0)), "pos", 10.0)
        plan = SamplePlan(n_points=5, seed=1, guards=(g,), max_rejections=200)
        with pytest.raises(SamplingExhaustedError):
            plan.assignments([Var(fv("u", 0, 0))], SIG)

    def test_variation_range(self, toda):
        plan = toda.plan(n_points=20)
        pts = plan.assignments([Var(fv("u_t", 0, 0))], toda.sig)
        for a in pts:
            assert -1.0 <= a.values[fv("u_t", 0, 0)] <= 1.0


class TestLatticeFlow:
    def test_zero_initial_data(self, nls):
        cfg = nls.integrate_config
        state = LatticeState({"u": np.zeros(16), "v": np.zeros(16)}, 0.0, {"h": 0.5})
        traj = integrate_lattice_flow(cfg["rhs"], state, (0.0, 0.1), 1e-3,
                                      monitors=cfg["monitors"])
        assert np.all(traj.final.fields["u"] == 0.0)
        assert np.all(traj.final.fields["v"] == 0.0)
        assert monitor_conserved(traj)["norm"] == 0.0

    def test_norm_conservation(self, nls):
        cfg = nls.integrate_config
        d = cfg["defaults"]
        state0 = cfg["initial_state"](d["n_sites"], d["h"])
        traj = integrate_lattice_flow(cfg["rhs"], state0, d["x_span"], d["dt"],
                                      monitors=cfg["monitors"])
        drifts = monitor_conserved(traj)
        assert drifts["norm"] <= 1e-8
        assert drifts["energy"] <= 1e-6

    def test_dense_output_length(self, nls):
        cfg = nls.integrate_config
        state0 = cfg["initial_state"](16, 0.5)
        traj = integrate_lattice_flow(cfg["rhs"], state0, (0.0, 0.1), 1e-2,
                                      monitors=cfg["monitors"])
        assert len(traj.xs) == 11
        assert all(len(s) == 11 for s in traj.monitor_sums.values())

    def test_order_four_convergence(self, nls):
        # Richardson solution error in the truncation-dominated regime
        cfg = nls.integrate_config
        state0 = cfg["initial_state"](16, 0.5)

        def final(dt):
            t = integrate_lattice_flow(cfg["rhs"], state0, (0.0, 1.0), dt)
            return np.concatenate([t.final.fields["u"], t.final.fields["v"]])

        e1 = np.max(np.abs(final(0.04) - final(0.02)))
        e2 = np.max(np.abs(final(0.02) - final(0.01)))
        rate = np.log2(e1 / e2)
        assert 3.7 <= rate <= 4.3, rate

    def test_stability_flag(self, nls):
        cfg = nls.integrate_config
        state0 = cfg["initial_state"](16, 0.5)
        traj = integrate_lattice_flow(cfg["rhs"], state0, (0.0, 0.2), 0.1,
                                      monitors=cfg["monitors"])
        assert not traj.stability_ok

    def test_blow_up_detection(self, nls):
        sig = nls.sig
        u = Var(fv("u", 0))
        state = LatticeState({"u": np.ones(8), "v": np.ones(8)}, 0.0, {"h": 0.5})
        rhs = {"u": u * u * u * Const(50), "v": Const(0) * u}
        with pytest.raises(BlowUpError):
            integrate_lattice_flow(rhs, state, (0.0, 10.0), 0.05)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_blow_up_on_non_finite_data(self, nls, bad):
        cfg = nls.integrate_config
        state = cfg["initial_state"](16, 0.5)
        state.fields["v"][3] = bad
        with pytest.raises(BlowUpError):
            integrate_lattice_flow(cfg["rhs"], state, (0.0, 0.01), 1e-3)

    def test_blow_up_on_nan_without_powers(self):
        u = Var(fv("u", 1)) - Var(fv("u", 0))
        state = LatticeState({"u": np.array([0.0, np.nan, 1.0, 2.0])}, 0.0, {})
        with pytest.raises(BlowUpError):
            integrate_lattice_flow({"u": u}, state, (0.0, 0.1), 0.05)

    def test_constant_zero_monitor(self, nls):
        cfg = nls.integrate_config
        state0 = cfg["initial_state"](16, 0.5)
        traj = integrate_lattice_flow(cfg["rhs"], state0, (0.0, 0.05), 1e-3,
                                      monitors={"zero": Const(0)})
        assert monitor_conserved(traj)["zero"] == 0.0

    @pytest.mark.parametrize("x_span", [(0.0, -0.01), (0.1, 0.0)])
    def test_backward_span_is_refused(self, nls, x_span):
        cfg = nls.integrate_config
        state0 = cfg["initial_state"](8, 0.5)
        with pytest.raises(ValueError, match="no finite, non-negative step count"):
            integrate_lattice_flow(cfg["rhs"], state0, x_span, 0.01)

    @pytest.mark.parametrize("x_span, dt, message", [
        ((1.0, 1.0), 1e-3, "gives no step"),
        ((0.0, 1.0), 1e300, "gives no step"),
        ((0.0, 1.0), 0.6, "in 2 steps of 0.6 ends at x = 1.2"),
        ((0.0, 1.0), 0.4, "in 2 steps of 0.4 ends at x = 0.8"),
    ])
    def test_span_the_steps_miss_is_refused(self, x_span, dt, message):
        with pytest.raises(ValueError, match=message):
            step_count(x_span, dt)

    @pytest.mark.parametrize("x_span, dt, n_steps", [
        ((0.0, 1.0), 1e-3, 1000),
        ((0.0, 0.2), 0.002, 100),
        ((0.0, 0.2), 0.1, 2),
        ((0.0, 1e9), 1e-9, 10**18),
        ((0.0, 5e-323), 5e-324, 10),
    ])
    def test_span_the_steps_end_on_is_accepted(self, x_span, dt, n_steps):
        assert step_count(x_span, dt) == n_steps

    def test_eval_on_lattice_shifts_periodically(self):
        state = LatticeState({"u": np.arange(4.0)}, 0.0, {})
        sig1 = ProblemSignature(("u",), 1)
        out = eval_on_lattice(Var(FieldVar("u", 0, (1,))), state)
        assert np.allclose(out, [1.0, 2.0, 3.0, 0.0])

    def test_rejects_derivative_coordinates(self):
        state = LatticeState({"u": np.arange(4.0)}, 0.0, {})
        from lattice_frames.expr import ExprError
        with pytest.raises(ExprError):
            eval_on_lattice(Var(FieldVar("u", 1, (0,))), state)
