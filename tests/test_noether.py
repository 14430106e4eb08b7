from dataclasses import replace

import numpy as np
import pytest

from lattice_frames.actions import Generator, GroupAction
from lattice_frames.calculus import DivergenceTuple, euler_lagrange
from lattice_frames.expr import (
    Const,
    ExprError,
    FieldVar,
    Var,
    add,
    fieldvars,
    mul,
    shift,
    substitute,
    total_derivative,
)
from lattice_frames.flows import integrate_lattice_flow, monitor_conserved
from lattice_frames.frames import invariantize
from lattice_frames.noether import (
    ConservationLaw,
    _expand_adj,
    compare_laws,
    equivariant_coefficients,
    equivariant_form,
    euler_kappa,
    invariant_euler_lagrange,
    law_dx_components,
    noether_invariant,
    noether_original,
    divergence_equivalence_sides,
    offshell_residual,
)
from lattice_frames.parser import parse
from lattice_frames.sampling import identity_check
from lattice_frames.suites import DRIFT_TOLS, run_suite
from oracles import expr_trees


def fv(name, *K, d=0):
    return FieldVar(name, d, tuple(K))


def V(name, *K, d=0):
    return Var(fv(name, *K, d=d))


def invariant_el_check(IL, el_inv, fname, plan):
    """``el_inv[fname]`` against the invariantization of the original E_fname(L)."""
    inv = IL.invset
    sig = inv.orig_sig
    return identity_check(inv.expand(el_inv[fname]),
                          invariantize(inv.frame, euler_lagrange(IL.L, fname, sig)),
                          plan, sig, check_id=f"invariant-el:{fname}")


def divergence_equivalence_check(IL, plan, tol):
    """Div(A_u) dx against Div(A_H + A_kappa) iota(dx) with fresh variation slots."""
    return identity_check(*divergence_equivalence_sides(IL), plan,
                          IL.invset.orig_sig, tol=tol)


class TestEulerKappa:
    def test_toda(self, toda, toda_plan):
        IL = toda
        ksig = toda.invset.kappa_sig
        for beta, s in toda.expected["euler_kappa"].items():
            got = toda.invset.expand(euler_kappa(IL, beta))
            want = toda.invset.expand(parse(s, ksig))
            r = identity_check(got, want, toda_plan, toda.sig, tol=1e-10)
            assert r.passed, beta

    def test_independent_invariant_gives_zero(self, toda):
        IL = toda
        e = euler_kappa(IL, "kappa_t")
        assert e == Const(0)

    def test_ex81(self, ex81, ex81_plan):
        IL = ex81
        ksig = ex81.invset.kappa_sig
        for beta, s in ex81.expected["euler_kappa"].items():
            got = ex81.invset.expand(euler_kappa(IL, beta))
            want = ex81.invset.expand(parse(s, ksig))
            r = identity_check(got, want, ex81_plan, ex81.sig, tol=1e-10)
            assert r.passed, beta


class TestInvariantEulerLagrange:
    def test_toda_matches_stored_and_iota(self, toda, toda_plan):
        IL = toda
        el = invariant_euler_lagrange(IL)
        reports = [invariant_el_check(IL, el, f, toda_plan) for f in el]
        assert all(r.passed for r in reports)
        stored = parse(toda.expected["el_invariant"]["u"], toda.invset.kappa_sig)
        r = identity_check(toda.invset.expand(el["u"]), toda.invset.expand(stored),
                           toda_plan, toda.sig, tol=1e-10)
        assert r.passed, r.max_residual

    def test_ex81_display(self, ex81, ex81_plan):
        IL = ex81
        el = invariant_euler_lagrange(IL)
        reports = [invariant_el_check(IL, el, f, ex81_plan) for f in el]
        assert all(r.passed for r in reports)
        stored = parse(ex81.expected["el_invariant"]["u"], ex81.invset.kappa_sig)
        r = identity_check(ex81.invset.expand(el["u"]), ex81.invset.expand(stored),
                           ex81_plan, ex81.sig, tol=1e-9)
        assert r.passed

    def test_nls_pair(self, nls, nls_plan):
        from lattice_frames.catalog.nls import K1, phi_at
        IL = nls
        inv = nls.invset
        el = invariant_euler_lagrange(IL)
        reports = [invariant_el_check(IL, el, f, nls_plan) for f in el]
        assert all(r.passed for r in reports)
        H = parse("h", inv.kappa_sig)
        want_u = parse(nls.expected["el_invariant"]["u"], inv.kappa_sig)
        want_v = K1(1, 0) + phi_at(0) / (H ** 2 * K1(0, 0)) - phi_at(-1) / (H ** 2 * K1(0, 0))
        for f, want in (("u", want_u), ("v", want_v)):
            r = identity_check(inv.expand(el[f]), inv.expand(want), nls_plan,
                               nls.sig, tol=1e-9)
            assert r.passed, (f, r.max_residual)

    def test_verification_failure_reported(self, broken_toda, toda_plan):
        IL = broken_toda
        el = invariant_euler_lagrange(IL)
        reports = [invariant_el_check(IL, el, f, toda_plan) for f in el]
        assert set(el) == {"u"}
        assert [(r.check_id, r.status) for r in reports] == [("invariant-el:u", "fail")]
        # the rest of the suite still reports
        ids = {r.check_id: r.status
               for r in run_suite(broken_toda, "invariant-el", replace(toda_plan, n_points=10))}
        assert ids["invariant-el:u"] == ids["syzygy-operator:kappa"] == "fail"
        assert ids["syzygy-operator:lambda"] == ids["negative-control:el+1e-3"] == "pass"
        assert "lagrangian-invariant-form" in ids and "divergence-equivalence" in ids
        assert "invariant-el:error" not in ids


class TestNoetherOriginal:
    def test_ex81_r1_components(self, ex81, ex81_plan):
        law = noether_original(ex81.L, ex81.generator(1), 1, ex81.sig)
        want = ex81.expected["laws_original"][1]
        r0 = identity_check(law.components.a0, parse(want["A0"], ex81.sig),
                            ex81_plan, ex81.sig, tol=1e-9)
        r1 = identity_check(law.components.comps[0], parse(want["A1"], ex81.sig),
                            ex81_plan, ex81.sig, tol=1e-9)
        assert r0.passed and r1.passed

    def test_ex81_r2_includes_L_xi(self, ex81, ex81_plan):
        gen = ex81.generator(2)
        law = noether_original(ex81.L, gen, 2, ex81.sig)
        want = ex81.expected["laws_original"][2]
        r0 = identity_check(law.components.a0, parse(want["A0"], ex81.sig),
                            ex81_plan, ex81.sig, tol=1e-9)
        r1 = identity_check(law.components.comps[0], parse(want["A1"], ex81.sig),
                            ex81_plan, ex81.sig, tol=1e-9)
        assert r0.passed and r1.passed
        # negative control: dropping the L*xi term must break the identity
        EL = {"u": euler_lagrange(ex81.L, "u", ex81.sig)}
        broken = ConservationLaw(2, "original",
                                 DivergenceTuple(add(law.components.a0,
                                                     mul(Const(-1), mul(ex81.L, gen.xi))),
                                                 law.components.comps))
        res = offshell_residual(broken, EL, gen, ex81.sig, ex81_plan)
        assert res > 1e-3

    def test_toda_all_three_characteristics(self, toda, toda_plan):
        EL = {"u": euler_lagrange(toda.L, "u", toda.sig)}
        for idx in (1, 2, 4):
            gen = toda.generator(idx)
            law = noether_original(toda.L, gen, idx, toda.sig)
            res = offshell_residual(law, EL, gen, toda.sig, toda_plan)
            assert res <= 1e-10, (idx, res)

    def test_non_symmetry_reported(self, toda):
        # no law is built for v3; the suite reports its classification instead
        reports = run_suite(toda, "noether", toda.plan(n_points=10))
        (rep,) = [r for r in reports if r.check_id.startswith("non-symmetry:")]
        assert rep.check_id == "non-symmetry:v3" and rep.passed
        assert rep.max_residual > 1e-3
        assert not any(r.check_id.endswith(":v3") for r in reports if r is not rep)


class TestNoetherInvariant:
    def test_toda_forms_agree(self, toda, toda_plan):
        EL = {"u": euler_lagrange(toda.L, "u", toda.sig)}
        IL = toda
        originals = {i: noether_original(toda.L, toda.generator(i), i, toda.sig)
                     for i in (1, 2)}
        laws = noether_invariant(IL)
        for law in laws:
            idx = law.generator_index
            res = offshell_residual(law, EL, toda.generator(idx), toda.sig, toda_plan)
            assert res <= 1e-9
            dv, comps = compare_laws(originals[idx], law, toda_plan, toda.sig)
            assert dv <= 1e-9
            assert max(comps) <= 1e-9

    def test_nls_r2_norm_law(self, nls, nls_plan):
        from lattice_frames.catalog.nls import phi_at
        IL = nls
        inv = nls.invset
        law = noether_invariant(IL)[1]
        H = parse("h", inv.kappa_sig)
        want_a0 = inv.expand(parse("k1[0;0]^2/2", inv.kappa_sig))
        want_a1 = inv.expand(phi_at(-1) / H ** 2)
        r0 = identity_check(law.components.a0, want_a0, nls_plan, nls.sig, tol=1e-9)
        r1 = identity_check(law.components.comps[0], want_a1, nls_plan, nls.sig, tol=1e-9)
        assert r0.passed and r1.passed

    def test_trivial_generator_zero_components(self, toda, toda_plan):
        # a zero characteristic contributes nothing
        trivial = GroupAction(
            name="trivial-affine", sig=toda.sig, param_names=("a", "b"),
            identity_values=(0.0, 1.0), u_maps=toda.action.u_maps,
            compose_fn=toda.action.compose_fn, inverse_fn=toda.action.inverse_fn,
            generators=(Generator({"u": Const(0)}, name="zero"),
                        toda.action.generators[1]),
            adjoint_rep=toda.action.adjoint_rep, chart_fn=toda.action.chart_fn,
            sample_fn=toda.action.sample_fn)
        frame = replace(toda.frame, action=trivial)
        IL = replace(toda, invset=replace(toda.invset, frame=frame))
        law = noether_invariant(IL)[0]
        for comp in law.components.comps:
            r = identity_check(comp, Const(0), toda_plan, toda.sig, tol=1e-12)
            assert r.passed

    def test_invariant_law_needs_L_xi_term(self, ex81, ex81_plan):
        # dropping L^kappa iota(xi_s) a^s_2 from the invariant r=2 law must
        # break the off-shell identity by much more than the tolerance
        IL = ex81
        inv = ex81.invset
        law = noether_invariant(IL)[1]
        gen = ex81.generator(2)
        EL = {"u": euler_lagrange(ex81.L, "u", ex81.sig)}
        assert offshell_residual(law, EL, gen, ex81.sig, ex81_plan) <= 1e-9
        lk = inv.expand(IL.L_kappa)
        xi_term = mul(lk, invariantize(ex81.frame, gen.xi))
        broken = ConservationLaw(
            2, "invariant",
            DivergenceTuple(add(law.components.a0, mul(Const(-1), xi_term)),
                            law.components.comps),
            frame=law.frame)
        res = offshell_residual(broken, EL, gen, ex81.sig, ex81_plan)
        assert res > 1e-3, res

    def test_measure_conversion(self, ex81, ex81_plan):
        # invariant components carry iota-dx; dx components gain the factor J
        IL = ex81
        law = noether_invariant(IL)[0]
        assert law.measure == "iota-dx"
        dx = law_dx_components(law)
        want = parse(ex81.expected["laws_original"][1]["A1"], ex81.sig)
        r = identity_check(dx.comps[0], want, ex81_plan, ex81.sig, tol=1e-9)
        assert r.passed


class TestEquivariantForm:
    def test_toda_r2_coefficients(self, toda, toda_plan):
        IL = toda
        inv = toda.invset
        law = noether_invariant(IL)[1]
        eq = equivariant_form(law, toda_plan)
        dv, comps = compare_laws(law, eq, toda_plan, toda.sig)
        assert max([dv] + comps) <= 1e-9
        expected = toda.expected["equivariant_coeffs"][2]
        found = dict(equivariant_coefficients(eq))
        for comp_name, want_row in expected.items():
            for sym, s in want_row.items():
                got = inv.expand(found[comp_name][sym])
                want = inv.expand(parse(s, inv.kappa_sig))
                r = identity_check(got, want, toda_plan, toda.sig, tol=1e-9)
                assert r.passed, (comp_name, sym, r.max_residual)

    def test_abelian_equivariant_equals_invariant(self, nls, nls_plan):
        IL = nls
        laws = noether_invariant(IL)
        for law in laws:
            eq = equivariant_form(law, nls_plan)
            dv, comps = compare_laws(law, eq, nls_plan, nls.sig)
            assert max([dv] + comps) <= 1e-10

    def test_unshifted_symbols_unchanged(self, toda, toda_plan):
        # a law whose display has no shifted adjoint symbols rewrites to itself
        IL = toda
        law = noether_invariant(IL)[0]
        eq = equivariant_form(law, toda_plan)
        assert eq.form == "equivariant"
        dv, comps = compare_laws(law, eq, toda_plan, toda.sig)
        assert max([dv] + comps) <= 1e-10


class TestFormalInvariantDerivative:
    """Dcal of a tree with adjoint symbols, taken with the symbols as jet variables, commutes
    with their expansion: adj<s>_{j;K} stands for S_K D^j a^s_r(rho), like any field."""

    @staticmethod
    def _e():
        # adj1 u + adj2_{0;1} u_{1;1} + adj1_{1;0} u: a shifted and a differentiated symbol
        return (V("adj1", 0) * V("u", 0) + V("adj2", 1) * V("u", 1, d=1)
                + V("adj1", 0, d=1) * V("u", 0))

    @pytest.mark.parametrize("r", [0, 1])
    def test_formal_dcal_then_expand_is_dcal_of_the_expansion(self, ex81, ex81_plan, r):
        sig, frame = ex81.sig, ex81.frame
        got = _expand_adj(frame.dcal(self._e(), sig), frame, r)
        want = frame.dcal(_expand_adj(self._e(), frame, r), sig)
        rep = identity_check(got, want, ex81_plan, sig, tol=1e-12)
        assert rep.passed, rep.max_residual

    @pytest.mark.parametrize("name", ["ex81", "nls"])
    def test_dcal_commutes_with_the_expansion_on_generated_trees(self, name, request):
        # a generated tree times one shifted and differentiated adjoint symbol
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        b = request.getfixturevalue(name)
        sig, frame, R = b.sig, b.frame, b.action.group_dim
        plan = b.plan(n_points=8)
        evaluated = []

        @hypothesis.settings(derandomize=True, max_examples=40, deadline=None, database=None)
        @hypothesis.given(tree=expr_trees(sig, max_leaves=6), s=st.integers(1, R),
                          j=st.integers(0, 2), k=st.integers(-1, 1), r=st.integers(0, R - 1))
        def check(tree, s, j, k, r):
            e = mul(tree, V(f"adj{s}", k, d=j))
            try:
                got = _expand_adj(frame.dcal(e, sig), frame, r)
                want = frame.dcal(_expand_adj(e, frame, r), sig)
                rep = identity_check(got, want, plan, sig, tol=1e-9)
            except ExprError:
                hypothesis.assume(False)
            evaluated.append(rep.max_residual)
            assert rep.passed, (e, s, j, k, r, rep.max_residual)

        check()
        assert len(evaluated) >= 20, len(evaluated)

    def test_plain_derivative_of_the_symbols_fails(self, ex81, ex81_plan):
        # negative control: the plain D of the symbols is not Dcal of the expansion (dcal_inv = x)
        sig, frame = ex81.sig, ex81.frame
        bad = _expand_adj(total_derivative(self._e(), sig), frame, 1)
        want = frame.dcal(_expand_adj(self._e(), frame, 1), sig)
        rep = identity_check(bad, want, ex81_plan, sig, tol=1e-12)
        assert rep.max_residual > 1e-2


class TestDivergenceEquivalence:
    def test_all_examples(self, toda, ex81, nls):
        for b in (toda, ex81, nls):
            r = divergence_equivalence_check(b, b.plan(), tol=1e-9)
            assert r.passed, (b.name, r.max_residual)

    def test_constant_kappa_lagrangian(self, toda, toda_plan):
        IL = replace(toda, L=Const(3), L_kappa=Const(3))
        r = divergence_equivalence_check(IL, toda_plan, tol=1e-14)
        assert r.passed and r.max_residual == 0.0


class TestNlsFlowConservesDerivedLaws:
    """The nls flow conserves the A^0 that noether_original derives, put on shell."""

    MONITOR_OF = {1: "energy", 2: "norm"}

    @staticmethod
    def on_shell_densities(nls):
        """A^0 of each generator's law, with u_{1;K}, v_{1;K} replaced by S_K of the flow."""
        rhs = nls.integrate_config["rhs"]
        out = {}
        for r, gen in enumerate(nls.generators, 1):
            a0 = noether_original(nls.L, gen, r, nls.sig).components.a0
            assert max(v.deriv for v in fieldvars(a0)) <= 1
            rules = {v: shift(rhs[v.name], v.shift, nls.sig) for v in fieldvars(a0) if v.deriv}
            out[r] = substitute(a0, rules)
        return out

    @staticmethod
    def drifts(nls, rhs, monitors):
        cfg = nls.integrate_config
        d = cfg["defaults"]
        traj = integrate_lattice_flow(rhs, cfg["initial_state"](d["n_sites"], d["h"]),
                                      d["x_span"], d["dt"], monitors=monitors)
        return monitor_conserved(traj)

    def test_on_shell_density_is_its_monitor(self, nls):
        monitors = nls.integrate_config["monitors"]
        dens = self.on_shell_densities(nls)
        plan = nls.plan(seed=31337)
        for r, label in self.MONITOR_OF.items():
            assert identity_check(dens[r], monitors[label], plan, nls.sig, tol=1e-10).passed
        # negative control: each density against the other monitor
        for r, label in ((1, "norm"), (2, "energy")):
            crossed = identity_check(dens[r], monitors[label], plan, nls.sig, tol=1e-10)
            assert not crossed.passed and crossed.max_residual > 1e-2

    def test_flow_keeps_the_derived_sums(self, nls):
        dens = self.on_shell_densities(nls)
        monitors = {label: dens[r] for r, label in self.MONITOR_OF.items()}
        rhs = nls.integrate_config["rhs"]
        drifts = self.drifts(nls, rhs, monitors)
        assert set(drifts) == set(DRIFT_TOLS)
        assert all(drifts[label] <= DRIFT_TOLS[label] for label in drifts)
        # negative control: the coupling term of u's right-hand side with its sign flipped
        flipped = {**rhs, "u": rhs["u"] - 2 * (V("v", 0) * (V("u", 0) ** 2 + V("v", 0) ** 2))}
        assert self.drifts(nls, flipped, monitors)["norm"] > 1e3 * DRIFT_TOLS["norm"]
