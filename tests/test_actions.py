from dataclasses import fields, replace

import numpy as np
import pytest

from lattice_frames import actions
from lattice_frames.actions import (
    SYMMETRY_TOL,
    Generator,
    GroupAction,
    adjoint_matrix,
    check_variational_symmetry,
    invariance_residual,
    prolong_generator,
    transform,
)
from lattice_frames.catalog import get_example
from lattice_frames.expr import (
    Alt,
    Assignment,
    Const,
    ExprError,
    FieldVar,
    Param,
    Var,
    XVar,
    evaluate,
    fieldvars,
    partial,
    total_derivative,
)
from lattice_frames.frames import invariantize
from lattice_frames.sampling import identity_check, residual_stats


def fv(name, *K, d=0):
    return FieldVar(name, d, tuple(K))


def V(name, *K, d=0):
    return Var(fv(name, *K, d=d))


class TestTransform:
    def test_affine_on_shifted(self, toda, toda_plan):
        out = transform(V("u", 1, 0), toda.action, (Const(0.5), Const(2.0)))
        want = Const(2.0) * V("u", 1, 0) + Const(0.5)
        r = identity_check(out, want, toda_plan, toda.sig, tol=1e-12)
        assert r.passed

    def test_identity_params(self, toda, ex81, nls):
        for b in (toda, ex81, nls):
            plan = b.plan(n_points=10, seed=2)
            out = transform(b.L, b.action, b.action.identity_values)
            r = identity_check(out, b.L, plan, b.sig, tol=1e-12)
            assert r.passed, b.name

    def test_scaling_leaves_first_derivative(self, ex81, ex81_plan):
        out = transform(V("u", 0, d=1), ex81.action, (Const(0.7), Const(1.9)))
        r = identity_check(out, V("u", 0, d=1), ex81_plan, ex81.sig, tol=1e-12)
        assert r.passed

    def test_variation_slots_transform(self, toda, toda_plan):
        # slots transform through the Jacobian of the map: w -> b w
        out = transform(V("u_t", 0, 0), toda.action, (Const(0.3), Const(1.7)))
        r = identity_check(out, Const(1.7) * V("u_t", 0, 0), toda_plan, toda.sig, tol=1e-12)
        assert r.passed

    def test_group_axiom_composition(self, toda, ex81, nls):
        rng = np.random.default_rng(21)
        for b in (toda, ex81, nls):
            plan = b.plan(n_points=6, seed=13)
            pts = plan.assignments([b.L], b.sig)
            for a in pts:
                g1 = b.action.random_element(rng)
                g2 = b.action.random_element(rng)
                e1 = transform(transform(b.L, b.action, g1), b.action, g2)
                e2 = transform(b.L, b.action, b.action.compose(g2, g1))
                v1, v2 = evaluate(e1, a), evaluate(e2, a)
                assert abs(v1 - v2) <= 1e-10 * max(1, abs(v1)), b.name

    def test_singular_jacobian_rejected(self, ex81):
        from lattice_frames.expr import SingularEvaluationError
        with pytest.raises(SingularEvaluationError):
            out = transform(V("u", 0, d=1), ex81.action, (Const(0.0), Const(0.0)))
            evaluate(out, Assignment({fv("u", 0, d=1): 1.0}, x=1.0))


class TestProlongGenerator:
    def test_scaling_generator(self, toda):
        v2 = toda.action.generators[1]
        assert prolong_generator(v2, fv("u", 2, 1), toda.sig) == V("u", 2, 1)

    def test_alt_sign_flip(self, toda, toda_plan):
        v4 = toda.generator(4)
        out = prolong_generator(v4, fv("u", 1, 0), toda.sig)
        r = identity_check(out, -Alt(), toda_plan, toda.sig, tol=1e-14)
        assert r.passed

    def test_dd_prolongation(self, ex81, ex81_plan):
        v2 = ex81.action.generators[1]
        out = prolong_generator(v2, fv("u", 0, d=1), ex81.sig)
        want = -XVar() * V("u", 0, d=2)
        r = identity_check(out, want, ex81_plan, ex81.sig, tol=1e-12)
        assert r.passed


class TestVariationalSymmetry:
    def test_toda_v1_invariant(self, toda, toda_plan):
        res = check_variational_symmetry(toda.L, toda.action.generators[0],
                                         toda.sig, toda_plan)
        assert res <= SYMMETRY_TOL

    def test_toda_v3_not(self, toda, toda_plan):
        v3 = toda.generator(3)
        res = check_variational_symmetry(toda.L, v3, toda.sig, toda_plan)
        assert res > 1e-3 > SYMMETRY_TOL

    def test_toda_alt_invariant(self, toda, toda_plan):
        v4 = toda.generator(4)
        res = check_variational_symmetry(toda.L, v4, toda.sig, toda_plan)
        assert res <= SYMMETRY_TOL

    def test_nls_rotation_invariant(self, nls, nls_plan):
        res = check_variational_symmetry(nls.L, nls.action.generators[1],
                                         nls.sig, nls_plan)
        assert res <= SYMMETRY_TOL

    def test_nls_translation_invariant(self, nls, nls_plan):
        # xi != 0: the one-form condition v(L) + L D(xi) = 0 applies
        res = check_variational_symmetry(nls.L, nls.action.generators[0],
                                         nls.sig, nls_plan)
        assert res <= SYMMETRY_TOL

    def test_ex81_both_invariant(self, ex81, ex81_plan):
        for g in ex81.action.generators:
            res = check_variational_symmetry(ex81.L, g, ex81.sig, ex81_plan)
            assert res <= SYMMETRY_TOL, g.name


class TestInvarianceResidual:
    @pytest.mark.parametrize("name", ["toda", "ex81", "nls"])
    def test_invariant_passes_raw_field_fails(self, name):
        b = get_example(name)
        plan = b.plan(n_points=10)
        raw = Var(FieldVar(b.sig.base_fields[0], 0, (0,) * b.sig.lattice_dim))
        iota = invariantize(b.frame, raw)

        def residual(e):
            rng = np.random.default_rng(np.random.PCG64(plan.seed + 17))
            return invariance_residual(e, b.action, plan, rng, n_group=5)

        assert residual(iota) <= 1e-9
        assert residual(raw) > 1e-3

    def test_empty_point_set_is_nan(self, toda):
        rng = np.random.default_rng(0)
        res = invariance_residual(toda.L, toda.action,
                                  toda.plan(n_points=0), rng, n_group=5)
        assert np.isnan(res)

    @pytest.mark.parametrize("name", ["toda", "ex81", "nls"])
    def test_matches_pointwise_reference(self, name):
        # one numeric transform per group element, evaluated point by point
        b = get_example(name)
        plan = b.plan(n_points=12, seed=7)
        raw = Var(FieldVar(b.sig.base_fields[0], 0, (0,) * b.sig.lattice_dim))
        for e in (b.L, invariantize(b.frame, raw), raw):
            rng = np.random.default_rng(np.random.PCG64(plan.seed + 17))
            pts = plan.assignments([e], b.sig)
            worst = 0.0
            for _ in range(5):
                moved = transform(e, b.action, b.action.random_element(rng))
                for a in pts:
                    base = evaluate(e, a)
                    worst = max(worst, abs(evaluate(moved, a) - base) / max(1.0, abs(base)))
            rng = np.random.default_rng(np.random.PCG64(plan.seed + 17))
            got = invariance_residual(e, b.action, plan, rng, n_group=5)
            assert abs(got - worst) <= 1e-15, (name, got, worst)

    @pytest.mark.parametrize("n_group", [5, 20])
    def test_transforms_once(self, toda, toda_plan, monkeypatch, n_group):
        calls = []

        def counted(*args):
            calls.append(args)
            return transform(*args)

        monkeypatch.setattr(actions, "transform", counted)
        rng = np.random.default_rng(0)
        res = invariance_residual(toda.L, toda.action, toda_plan, rng, n_group)
        assert res <= 1e-9
        assert len(calls) == 1


class TestGroupAction:
    def test_parameter_named_like_problem_parameter_rejected(self, nls):
        assert "h" in nls.sig.params
        with pytest.raises(ValueError, match="h"):
            GroupAction(name="clash", sig=nls.sig, param_names=("h",),
                        identity_values=(0.0,), u_maps={"u": V("u", 0)})

    def test_x_map_reading_a_field_rejected(self, ex81):
        # S_K x~ would differ from x~, and each shifted coordinate would be
        # prolonged with the x~ of its own site
        with pytest.raises(ValueError, match=r"u\[0\]"):
            replace(ex81.action, x_map=XVar() + Param("a") * V("u", 0))

    @pytest.mark.parametrize("name", ["toda", "ex81", "nls"])
    def test_catalog_actions_build(self, name):
        action = get_example(name).action
        copy = replace(action)
        assert all(getattr(copy, f.name) is getattr(action, f.name) for f in fields(action))
        hash(action)   # raises TypeError for a generated __hash__ over the dict fields
        assert action.x_map is None or not fieldvars(action.x_map)


class TestAdjointMatrix:
    def test_affine_values(self, toda):
        A = adjoint_matrix(toda.action, (0.5, 2.0))
        assert np.allclose(A, [[2.0, 0.0], [-0.5, 1.0]])

    def test_identity_element(self, toda, ex81, nls):
        for b in (toda, ex81, nls):
            A = adjoint_matrix(b.action, b.action.identity_values)
            assert np.allclose(A, np.eye(b.action.group_dim)), b.name

    def test_nls_abelian_identity_everywhere(self, nls):
        rng = np.random.default_rng(5)
        for _ in range(5):
            g = nls.action.random_element(rng)
            assert np.allclose(adjoint_matrix(nls.action, g), np.eye(2))

    def test_chart_violation(self, toda):
        with pytest.raises(ExprError):
            adjoint_matrix(toda.action, (0.0, -1.0))

    def test_representation_property(self, toda, ex81):
        rng = np.random.default_rng(6)
        for b in (toda, ex81):
            for _ in range(10):
                g1 = b.action.random_element(rng)
                g2 = b.action.random_element(rng)
                A12 = adjoint_matrix(b.action, b.action.compose(g1, g2))
                prod = adjoint_matrix(b.action, g2) @ adjoint_matrix(b.action, g1)
                assert np.allclose(A12, prod), b.name


def _adjoint_Q_identity_residual(b, plan, n_elements=10):
    """(du~/du) Q_r = Q~_s a^s_r(g) at random points and elements."""
    sig = b.sig
    action = b.action
    gens = action.generators
    rng = np.random.default_rng(np.random.PCG64(plan.seed + 2))
    pts = replace(plan, n_points=8).assignments(
        [Var(fv(f, *(0,) * sig.lattice_dim)) for f in sig.base_fields] + [b.L], sig)
    worst = 0.0
    for a in pts:
        g = action.random_element(rng)
        A = adjoint_matrix(action, g)
        for f in sig.base_fields:
            base = fv(f, *(0,) * sig.lattice_dim)
            ut = transform(Var(base), action, g)
            for r in range(len(gens)):
                lhs = sum(evaluate(partial(ut, fv(f2, *(0,) * sig.lattice_dim)), a)
                          * evaluate(gens[r].q_of(f2), a) for f2 in sig.base_fields)
                rhs = sum(evaluate(transform(gens[s].q_of(f), action, g), a)
                          * A[r, s] for s in range(len(gens)))
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return worst


def _prolonged_adjoint_identity_residual(b, plan, target):
    """Same identity at a shifted (prolonged) coordinate."""
    sig = b.sig
    action = b.action
    gens = action.generators
    rng = np.random.default_rng(np.random.PCG64(plan.seed + 4))
    pts = replace(plan, n_points=8).assignments([Var(target), b.L], sig)
    worst = 0.0
    for a in pts:
        g = action.random_element(rng)
        A = adjoint_matrix(action, g)
        ut = transform(Var(target), action, g)
        for r in range(len(gens)):
            lhs = sum(evaluate(partial(ut, fv2), a)
                      * evaluate(prolong_generator(gens[r], fv2, sig), a)
                      for fv2 in fieldvars(Var(target)))
            rhs = sum(evaluate(transform(prolong_generator(gens[s], target, sig),
                                         action, g), a) * A[r, s]
                      for s in range(len(gens)))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return worst


class TestLemmaIdentities:
    def test_adjoint_Q_identity(self, toda, ex81, nls):
        for b in (toda, ex81, nls):
            assert _adjoint_Q_identity_residual(b, b.plan()) <= 1e-10, b.name

    def test_prolonged_adjoint_identity(self, toda):
        assert _prolonged_adjoint_identity_residual(
            toda, toda.plan(), fv("u", 1, 1)) <= 1e-10

    def test_xi_identity(self, ex81, nls):
        # J_x xi_r = xi~_s a^s_r(g)
        for b in (ex81, nls):
            sig, action = b.sig, b.action
            gens = action.generators
            rng = np.random.default_rng(8)
            pts = b.plan(n_points=8, seed=18).assignments([b.L], sig)
            for a in pts:
                g = action.random_element(rng)
                A = adjoint_matrix(action, g)
                from lattice_frames.expr import substitute
                Jx = substitute(total_derivative(action.x_map, sig), {},
                                param_rules={p: Const(val) for p, val
                                             in zip(action.param_names, g)})
                for r in range(len(gens)):
                    xi = gens[r].xi
                    lhs = evaluate(Jx, a) * (evaluate(xi, a) if xi is not None else 0.0)
                    rhs = sum(evaluate(transform(gens[s].xi, action, g), a) * A[r, s]
                              for s in range(len(gens)) if gens[s].xi is not None)
                    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs)), b.name

    def test_xi_depends_on_x_only(self, toda, ex81, nls):
        for b in (toda, ex81, nls):
            for g in b.action.generators:
                if g.xi is not None:
                    assert not fieldvars(g.xi), (b.name, g.name)


class TestGeneratorsMatchMaps:
    """Q_r = eta_r - xi_r u_{1;0}: the registered characteristics agree with
    the epsilon-derivative of the transformation maps along each parameter
    direction, prolonged coordinates included."""

    @staticmethod
    def _fd_residual(b, paths, targets, plan):
        sig = b.sig
        eps = 1e-6
        cases = []
        for r, path in enumerate(paths):
            gen = b.action.generators[r]
            for target in targets:
                up = transform(Var(target), b.action, path(eps))
                dn = transform(Var(target), b.action, path(-eps))
                v_expr = prolong_generator(gen, target, sig)
                if gen.xi is not None:
                    raised = FieldVar(target.name, target.deriv + 1, target.shift)
                    v_expr = v_expr + gen.xi * Var(raised)
                cases.append((up, dn, v_expr))
        exprs = [e for case in cases for e in case]
        pts = replace(plan, n_points=8).assignments(exprs, sig)
        worst = 0.0
        for up, dn, v_expr in cases:
            for a in pts:
                fd = (evaluate(up, a) - evaluate(dn, a)) / (2 * eps)
                exact = evaluate(v_expr, a)
                worst = max(worst, abs(fd - exact) / max(1.0, abs(exact)))
        return worst

    def test_ex81(self, ex81, ex81_plan):
        paths = [lambda e: (e, 1.0), lambda e: (0.0, 1.0 + e)]
        targets = [fv("u", 0), fv("u", 1), fv("u", 0, d=1), fv("u", 1, d=1)]
        assert self._fd_residual(ex81, paths, targets, ex81_plan) <= 1e-7

    def test_nls(self, nls, nls_plan):
        paths = [lambda e: (e, 1.0, 0.0),
                 lambda e: (0.0, float(np.cos(e)), float(np.sin(e)))]
        targets = [fv("u", 0), fv("v", 0), fv("u", 1), fv("u", 0, d=1),
                   fv("v", 0, d=1)]
        assert self._fd_residual(nls, paths, targets, nls_plan) <= 1e-7

    def test_toda(self, toda, toda_plan):
        paths = [lambda e: (e, 1.0), lambda e: (0.0, 1.0 + e)]
        targets = [fv("u", 0, 0), fv("u", 1, 1), fv("u", -1, 2)]
        assert self._fd_residual(toda, paths, targets, toda_plan) <= 1e-7
