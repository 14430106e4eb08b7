from dataclasses import replace

import numpy as np
import pytest

from lattice_frames.calculus import (
    DivergenceTuple,
    LinDiffOp,
    apply_op,
    divergence,
    euler_lagrange,
    linear_by_parts,
    op_adjoint,
    staircase_components,
    substitute_slots,
)
from lattice_frames.expr import (
    Const,
    FieldVar,
    ProblemSignature,
    Var,
    add,
    mul,
    shift,
    t_derivative,
)
from lattice_frames.parser import parse
from lattice_frames.sampling import (
    SamplePlan,
    identity_check,
    residual_stats,
)
from oracles import finite_lattice_pairing, op_compose, op_json, random_lindiffop, sum_by_parts

SIG2 = ProblemSignature(("u", "u_t"), 2, variations={"u": "u_t"})
PLAN = SamplePlan(n_points=25, seed=77)


def fv(name, *K, d=0):
    return FieldVar(name, d, tuple(K))


def V(name, *K, d=0):
    return Var(fv(name, *K, d=d))


class TestApply:
    def test_forward_difference(self):
        op = LinDiffOp.from_terms([(Const(1), (1, 0), 0), (Const(-1), (0, 0), 0)])
        out = apply_op(op, V("u", 0, 0), SIG2)
        want = V("u", 1, 0) - V("u", 0, 0)
        assert residual_stats(out, want, PLAN.assignments([out], SIG2)) <= 1e-14

    def test_toda_H_reproduces_t_derivative(self, toda, toda_plan):
        inv = toda.invset
        op = LinDiffOp(tuple((inv.expand(c), K, j)
                             for c, K, j in inv.H["kappa"]["sigma"].terms))
        got = apply_op(op, inv.sigma_defs["sigma"], toda.sig)
        want = t_derivative(inv.kappa_defs["kappa"], toda.sig)
        r = identity_check(got, want, toda_plan, toda.sig, tol=1e-10)
        assert r.passed, r.max_residual

    def test_ex81_H1_gives_kappa1_dot(self, ex81, ex81_plan):
        inv = ex81.invset
        got = apply_op(inv.H["k1"]["sigma"], Var(fv("sigma", 0)), inv.kappa_sig)
        lhs = inv.expand(got)
        rhs = t_derivative(inv.kappa_defs["k1"], ex81.sig)
        r = identity_check(lhs, rhs, ex81_plan, ex81.sig, tol=1e-10)
        assert r.passed, r.max_residual


class TestCompose:
    def test_compose_matches_sequential_application(self, nls, nls_plan):
        rng = np.random.default_rng(3)
        sig = nls.sig
        op1 = random_lindiffop(rng, sig, radius=1, n_terms=2, max_deriv=2,
                               with_x_coeff=True)
        op2 = random_lindiffop(rng, sig, radius=1, n_terms=2, max_deriv=1,
                               with_x_coeff=True)
        composed = op_compose(op1, op2, sig)
        g = nls.L
        lhs = apply_op(composed, g, sig)
        rhs = apply_op(op1, apply_op(op2, g, sig), sig)
        assert residual_stats(lhs, rhs,
                              nls_plan.assignments([lhs, rhs], sig)) <= 1e-10

    def test_compose_difference_shifts_coefficients(self, toda, toda_plan):
        sig = toda.sig
        c = V("u", 0, 0)
        op1 = LinDiffOp.from_terms([(Const(1), (1, 0), 0)])
        op2 = LinDiffOp.from_terms([(c, (0, 1), 0)])
        composed = op_compose(op1, op2, sig)
        assert composed.terms == ((V("u", 1, 0), (1, 1), 0),)


class TestAdjoint:
    def test_constant_shift(self):
        op = LinDiffOp.from_terms([(Const(2.5), (1, 0), 0)])
        adj = op_adjoint(op, SIG2)
        assert adj.terms == ((Const(2.5), (-1, 0), 0),)

    def test_toda_H_adjoint_matches_stored(self, toda, toda_plan):
        ksig = toda.invset.kappa_sig
        adj = op_adjoint(toda.invset.H["kappa"]["sigma"], ksig)
        stored = {(tuple(K), j): s for s, K, j in toda.expected["H_adjoint_kappa"]}
        assert {(K, j) for _, K, j in adj.terms} == set(stored)
        for c, K, j in adj.terms:
            want = parse(stored[(K, j)], ksig)
            lhs, rhs = toda.invset.expand(c), toda.invset.expand(want)
            r = identity_check(lhs, rhs, toda_plan, toda.sig, tol=1e-10)
            assert r.passed, (K, j, r.max_residual)

    def test_involution(self, nls):
        # adjoint(adjoint(H)) g == H g numerically, including derivative terms
        rng = np.random.default_rng(1)
        sig = nls.sig
        plan = nls.plan(n_points=15, seed=31)
        op = random_lindiffop(rng, sig, radius=2, n_terms=3, max_deriv=2, with_x_coeff=True)
        gexpr = nls.L
        lhs = apply_op(op_adjoint(op_adjoint(op, sig), sig), gexpr, sig)
        rhs = apply_op(op, gexpr, sig)
        assert residual_stats(lhs, rhs, plan.assignments([lhs, rhs], sig)) <= 1e-10

    def test_serialization(self):
        op = LinDiffOp.from_terms([(Const(1), (1, 0), 0)])
        assert op_json(op) == '[{"coeff": "1", "K": [1, 0], "j": 0}]'


class TestEulerLagrange:
    def test_two_term_stencil(self):
        L = V("u", 0, 0) * V("u", 1, 0)
        el = euler_lagrange(L, "u", SIG2)
        want = V("u", 1, 0) + V("u", -1, 0)
        assert residual_stats(el, want, PLAN.assignments([el], SIG2)) <= 1e-14

    def test_toda_el_value(self, toda):
        from lattice_frames.expr import Assignment, evaluate
        e = parse(toda.expected["el_original"]["u"], toda.sig)
        a = Assignment({fv("u", 0, 0): 0.0, fv("u", 1, 1): 4.0, fv("u", -1, 1): 2.0,
                        fv("u", 1, -1): 1.0, fv("u", -1, -1): -1.0})
        assert evaluate(e, a) == pytest.approx(-2.25)

    def test_nls_el_pair(self, nls, nls_plan):
        for f in ("u", "v"):
            el = euler_lagrange(nls.L, f, nls.sig)
            want = parse(nls.expected["el_original"][f], nls.sig)
            r = identity_check(el, want, nls_plan, nls.sig, tol=1e-9)
            assert r.passed, (f, r.max_residual)

    def test_naturality_kills_shifts(self, toda, toda_plan):
        lhs = euler_lagrange(shift(toda.L, (1, 1), toda.sig), "u", toda.sig)
        rhs = euler_lagrange(toda.L, "u", toda.sig)
        r = identity_check(lhs, rhs, toda_plan, toda.sig, tol=1e-10)
        assert r.passed, r.max_residual


class TestDivergence:
    def test_simple_tuple(self):
        t = DivergenceTuple(None, (V("u", 0, 0), Const(0)))
        out = divergence(t, SIG2)
        want = V("u", 1, 0) - V("u", 0, 0)
        assert residual_stats(out, want, PLAN.assignments([out], SIG2)) <= 1e-14

    def test_euler_annihilates_dd_divergence(self, nls, nls_plan):
        # tuple with an A^0 component: E kills D A^0 + (S - id) A^1 too
        sig = nls.sig
        t = DivergenceTuple(V("u", 0) * V("v", 1), (V("u", -1) * V("u", 0),))
        for f in ("u", "v"):
            el = euler_lagrange(divergence(t, sig), f, sig)
            r = identity_check(el, Const(0), nls_plan, sig, tol=1e-10)
            assert r.passed, (f, r.max_residual)

    def test_euler_annihilates_divergences(self, toda, toda_plan):
        rng = np.random.default_rng(12)
        for k in range(20):
            comps = []
            for _ in range(2):
                K = tuple(int(rng.integers(-2, 3)) for _ in range(2))
                c = float(np.round(rng.uniform(-2, 2), 3))
                comps.append(mul(Const(c), Var(fv("u", *K))) * Var(fv("u", *K)))
            t = DivergenceTuple(None, tuple(comps))
            el = euler_lagrange(divergence(t, toda.sig), "u", toda.sig)
            r = identity_check(el, Const(0), replace(toda_plan, n_points=20), toda.sig,
                               tol=1e-10, check_id=f"ediv{k}")
            assert r.passed, (k, r.max_residual)


class TestSumByParts:
    def test_zero_offset(self):
        b = sum_by_parts(V("u", 0, 0), V("u", 0, 0), (0, 0), SIG2)
        assert all(c == Const(0) for c in b.comps)

    def test_unit_direction_identity(self, toda, toda_plan):
        f = g = V("u", 0, 0)
        b = sum_by_parts(f, g, (1, 0), toda.sig)
        lhs = f * shift(g, (1, 0), toda.sig) - shift(f, (-1, 0), toda.sig) * g
        rhs = divergence(b, toda.sig)
        r = identity_check(lhs, rhs, toda_plan, toda.sig, tol=1e-12)
        assert r.passed

    @pytest.mark.parametrize("K", [(1, 1), (2, -1), (-2, 3), (0, -3), (3, 0)])
    def test_residual_vanishes(self, toda, K):
        plan = toda.plan(n_points=50, seed=sum(K) + 100)
        f = toda.invset.kappa_defs["kappa"]
        g = toda.invset.kappa_defs["lambda"]
        b = sum_by_parts(f, g, K, toda.sig)
        lhs = f * shift(g, K, toda.sig) - shift(f, tuple(-k for k in K), toda.sig) * g
        rhs = divergence(b, toda.sig)
        r = identity_check(lhs, rhs, plan, toda.sig, tol=1e-10)
        assert r.passed, (K, r.max_residual)

    def test_staircase_telescopes(self, toda, toda_plan):
        g = toda.invset.kappa_defs["kappa"]
        K = (2, -1)
        comps = staircase_components(g, K, toda.sig)
        lhs = shift(g, K, toda.sig) - g
        rhs = divergence(DivergenceTuple(None, tuple(comps)), toda.sig)
        r = identity_check(lhs, rhs, toda_plan, toda.sig, tol=1e-12)
        assert r.passed


class TestVariationSplit:
    def test_single_term(self):
        L = V("u", 1, 0) ** 2
        coeffs, boundary = linear_by_parts(t_derivative(L, SIG2), ["u_t"], SIG2)
        el = euler_lagrange(L, "u", SIG2)
        assert residual_stats(coeffs["u_t"], el, PLAN.assignments([el], SIG2)) <= 1e-13

    def test_variation_identity(self, toda, toda_plan):
        # dL/dt = sum E(L) u' + Div(A) with fresh random slot values
        sig = toda.sig
        coeffs, boundary = linear_by_parts(t_derivative(toda.L, sig), ["u_t"], sig)
        lhs = t_derivative(toda.L, sig)
        rhs = add(mul(coeffs["u_t"], V("u_t", 0, 0)), divergence(boundary, sig))
        r = identity_check(lhs, rhs, toda_plan, sig, tol=1e-10)
        assert r.passed, r.max_residual

    def test_variation_identity_dd(self, nls, nls_plan):
        sig = nls.sig
        slots = {"u_t": "u", "v_t": "v"}
        coeffs, boundary = linear_by_parts(t_derivative(nls.L, sig), slots, sig)
        parts = [mul(coeffs[w], Var(fv(w, 0))) for w in slots]
        parts.append(divergence(boundary, sig))
        r = identity_check(t_derivative(nls.L, sig), add(*parts), nls_plan, sig, tol=1e-10)
        assert r.passed, r.max_residual
        for w, f in slots.items():
            el = euler_lagrange(nls.L, f, sig)
            r = identity_check(coeffs[w], el, nls_plan, sig, tol=1e-10)
            assert r.passed

    def test_independent_lagrangian(self):
        L = Const(7)
        coeffs, boundary = linear_by_parts(t_derivative(L, SIG2), ["u_t"], SIG2)
        assert coeffs == {}
        assert all(c == Const(0) for c in boundary.comps)

    def test_substitute_slots_prolongs(self, ex81, ex81_plan):
        sig = ex81.sig
        e = V("u_t", 1, d=1)
        out = substitute_slots(e, {"u_t": V("u", 0) ** 2}, sig)
        want = shift(mul(Const(2), V("u", 0), V("u", 0, d=1)), (1,), sig)
        r = identity_check(out, want, ex81_plan, sig, tol=1e-12)
        assert r.passed


class TestPairing:
    def test_pure_difference_exact(self):
        sig = ProblemSignature(("u",), 2)
        rng = np.random.default_rng(0)
        for k in range(20):
            op = random_lindiffop(rng, sig, radius=2, n_terms=4)
            r = finite_lattice_pairing(op, sig, seed=1000 + k)
            assert r.passed and r.max_residual <= 1e-12, (k, r.max_residual)

    def test_mixed_trapezoid(self):
        sig = ProblemSignature(("u",), 1, differential=True, has_x=True)
        rng = np.random.default_rng(1)
        for k in range(6):
            op = random_lindiffop(rng, sig, radius=2, n_terms=3, max_deriv=2,
                                  with_x_coeff=True)
            r = finite_lattice_pairing(op, sig, seed=2000 + k)
            assert r.passed and r.max_residual <= 1e-6, (k, r.max_residual)

    def test_zero_operator(self):
        sig = ProblemSignature(("u",), 2)
        op = LinDiffOp.from_terms([(Const(0), (1, 0), 0)])
        r = finite_lattice_pairing(op, sig, seed=3)
        assert r.passed and r.max_residual == 0.0

    def test_unit_shift_exact(self):
        sig = ProblemSignature(("u",), 2)
        op = LinDiffOp.from_terms([(Const(1), (1, 0), 0)])
        r = finite_lattice_pairing(op, sig, seed=4)
        assert r.passed and r.max_residual <= 1e-14
