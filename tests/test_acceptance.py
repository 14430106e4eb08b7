"""Acceptance criteria, one test per criterion, one printed pass/fail line each.

Tolerances are pinned here exactly as stated; nothing is deferred to later
calibration.  Run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion lines interleaved, or without ``-s`` to see them in the
captured-output summary of any failure.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from lattice_frames.actions import (
    check_variational_symmetry,
    invariance_residual,
    transform,
)
from lattice_frames.calculus import (
    DivergenceTuple,
    divergence,
    euler_lagrange,
)
from lattice_frames.expr import (
    Const,
    FieldVar,
    ProblemSignature,
    Var,
    XVar,
    add,
    evaluate,
    fieldvars,
    mul,
    shift,
    substitute,
)
from lattice_frames.flows import integrate_lattice_flow, monitor_conserved
from lattice_frames.frames import (
    invariantize,
    maurer_cartan,
    right_equivariance_residual,
)
from lattice_frames.noether import (
    ConservationLaw,
    compare_laws,
    equivariant_coefficients,
    equivariant_form,
    invariant_euler_lagrange,
    noether_invariant,
    noether_original,
    offshell_residual,
)
from lattice_frames.parser import parse
from lattice_frames.sampling import (
    identity_check,
    residual_stats,
)
from oracles import finite_lattice_pairing, random_lindiffop
from test_cli import run_process
from test_frames import syzygy_check
from test_noether import divergence_equivalence_check, invariant_el_check


def report(num, description, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {description} ({detail})")
    assert ok, f"criterion {num}: {description}: {detail}"


def test_criterion_1_toda_syzygy(toda, toda_plan):
    r = syzygy_check(toda.invset, toda.invset.syzygies[0], toda_plan, tol=1e-10)
    report(1, "Toda syzygy residual <= 1e-10 at 50 chart points",
           r.passed, f"max residual {r.max_residual:.3e}")


def test_criterion_2_toda_invariant_el(toda, toda_plan):
    IL = toda
    inv = toda.invset
    el = invariant_euler_lagrange(IL)
    reports = [invariant_el_check(IL, el, f, toda_plan) for f in el]
    res_iota = max(r.max_residual for r in reports)
    stored = parse(toda.expected["el_invariant"]["u"], inv.kappa_sig)
    r2 = identity_check(inv.expand(el["u"]), inv.expand(stored), toda_plan,
                        toda.sig, tol=1e-9)
    ok = all(r.passed for r in reports) and r2.passed
    report(2, "Toda invariant EL equals stored expression and iota(EL) <= 1e-9",
           ok, f"vs iota {res_iota:.3e}, vs stored {r2.max_residual:.3e}")


def test_criterion_3_toda_noether(toda, toda_plan):
    sig = toda.sig
    EL = {"u": euler_lagrange(toda.L, "u", sig)}
    worst_off = 0.0
    originals = {}
    for idx in (1, 2, 4):
        gen = toda.generator(idx)
        law = noether_original(toda.L, gen, idx, sig)
        originals[idx] = law
        worst_off = max(worst_off, offshell_residual(law, EL, gen, sig, toda_plan))
    laws = noether_invariant(toda)
    worst_form = 0.0
    for law in laws:
        idx = law.generator_index
        worst_off = max(worst_off, offshell_residual(
            law, EL, toda.generator(idx), sig, toda_plan))
        dv, comps = compare_laws(originals[idx], law, toda_plan, sig)
        worst_form = max(worst_form, dv, *comps)
        eq = equivariant_form(law, toda_plan)
        dv, comps = compare_laws(law, eq, toda_plan, sig)
        worst_form = max(worst_form, dv, *comps)
        # equivariant coefficients against the stored baselines
        expected = toda.expected["equivariant_coeffs"][idx]
        found = dict(equivariant_coefficients(eq))
        for cname, row in expected.items():
            for sym, s in row.items():
                got = toda.invset.expand(found[cname][sym])
                want = toda.invset.expand(parse(s, toda.invset.kappa_sig))
                worst_form = max(worst_form, residual_stats(
                    got, want, toda_plan.assignments([got, want], sig)))
    ok = worst_off <= 1e-9 and worst_form <= 1e-9
    report(3, "Toda Noether: off-shell for Q in {1,u,alt}; original=invariant="
              "equivariant (stored equivariant baselines) <= 1e-9",
           ok, f"off-shell {worst_off:.3e}, forms {worst_form:.3e}")


def test_criterion_4_ex81(ex81, ex81_plan):
    sig = ex81.sig
    inv = ex81.invset
    # frame reproduces iota(x)=1, iota(u)=0
    frame_res = 0.0
    for (z, c) in ex81.frame.normalization:
        got = invariantize(ex81.frame, z)
        frame_res = max(frame_res, residual_stats(
            got, Const(c), ex81_plan.assignments([got], sig)))
    syz = syzygy_check(inv, inv.syzygies[0], ex81_plan, tol=1e-10)
    el = invariant_euler_lagrange(ex81)
    stored = parse(ex81.expected["el_invariant"]["u"], inv.kappa_sig)
    r_el = identity_check(inv.expand(el["u"]), inv.expand(stored), ex81_plan,
                          sig, tol=1e-9)
    EL = {"u": euler_lagrange(ex81.L, "u", sig)}
    worst_law = 0.0
    for idx in (1, 2):
        gen = ex81.generator(idx)
        law = noether_original(ex81.L, gen, idx, sig)
        worst_law = max(worst_law, offshell_residual(law, EL, gen, sig, ex81_plan))
        want = ex81.expected["laws_original"][idx]
        for comp, key in ((law.components.a0, "A0"), (law.components.comps[0], "A1")):
            worst_law = max(worst_law, residual_stats(
                comp, parse(want[key], sig), ex81_plan.assignments([comp], sig)))
    # negative control: dropping the L*xi term from r=2 breaks the identity
    gen = ex81.generator(2)
    law = noether_original(ex81.L, gen, 2, sig)
    broken = ConservationLaw(2, "original", DivergenceTuple(
        add(law.components.a0, mul(Const(-1), mul(ex81.L, gen.xi))),
        law.components.comps))
    control = offshell_residual(broken, EL, gen, sig, ex81_plan)
    ok = (frame_res <= 1e-12 and syz.passed and r_el.passed
          and worst_law <= 1e-9 and control > 1e-3)
    report(4, "Ex 8.1: frame exact; syzygy <= 1e-10; invariant EL <= 1e-9; "
              "both laws <= 1e-9; negative control > 1e-3",
           ok, f"frame {frame_res:.1e}, syzygy {syz.max_residual:.1e}, "
               f"EL {r_el.max_residual:.1e}, laws {worst_law:.1e}, "
               f"control {control:.1e}")


def test_criterion_5_nls(nls, nls_plan):
    t0 = time.time()
    sig = nls.sig
    inv = nls.invset
    # invariance of the Lagrangian one-form under both generators
    worst_sym = 0.0
    for g in nls.action.generators:
        worst_sym = max(worst_sym, check_variational_symmetry(nls.L, g, sig, nls_plan))
    syz = syzygy_check(inv, inv.syzygies[0], nls_plan, tol=1e-9)
    el = invariant_euler_lagrange(nls)
    from lattice_frames.catalog.nls import K1, phi_at
    H = parse("h", inv.kappa_sig)
    want = {"u": parse(nls.expected["el_invariant"]["u"], inv.kappa_sig),
            "v": K1(1, 0) + phi_at(0) / (H ** 2 * K1(0, 0))
                 - phi_at(-1) / (H ** 2 * K1(0, 0))}
    worst_el = 0.0
    for f in ("u", "v"):
        worst_el = max(worst_el, residual_stats(
            inv.expand(el[f]), inv.expand(want[f]),
            nls_plan.assignments([inv.expand(el[f])], sig)))
    # RK4 at the stated configuration
    cfg = nls.integrate_config
    d = cfg["defaults"]
    state0 = cfg["initial_state"](d["n_sites"], d["h"])
    traj = integrate_lattice_flow(cfg["rhs"], state0, d["x_span"], d["dt"],
                                  monitors=cfg["monitors"])
    drifts = monitor_conserved(traj)
    half = monitor_conserved(integrate_lattice_flow(
        cfg["rhs"], state0, d["x_span"], d["dt"] / 2, monitors=cfg["monitors"]))
    print(f"    conserved-drift halving at dt=1e-3 (roundoff floor): "
          f"norm {drifts['norm'] / max(half['norm'], 1e-300):.2f}, "
          f"energy {drifts['energy'] / max(half['energy'], 1e-300):.2f}")

    # order-4 convergence: Richardson solution error where truncation dominates
    def final(dt):
        t = integrate_lattice_flow(cfg["rhs"], state0, d["x_span"], dt)
        return np.concatenate([t.final.fields["u"], t.final.fields["v"]])

    e1 = float(np.max(np.abs(final(0.04) - final(0.02))))
    e2 = float(np.max(np.abs(final(0.02) - final(0.01))))
    factor = e1 / e2
    runtime = time.time() - t0
    ok = (worst_sym <= 1e-10 and syz.passed and worst_el <= 1e-9
          and drifts["norm"] <= 1e-8 and drifts["energy"] <= 1e-6
          and 12.0 <= factor <= 20.0 and runtime <= 30.0)
    report(5, "Ex 8.2: invariance <= 1e-10; syzygy on chart; invariant EL pair "
              "<= 1e-9; RK4 drifts <= 1e-8/1e-6; halving factor in [12,20]; "
              "runtime <= 30 s",
           ok, f"sym {worst_sym:.1e}, syzygy {syz.max_residual:.1e}, "
               f"EL {worst_el:.1e}, norm {drifts['norm']:.1e}, "
               f"energy {drifts['energy']:.1e}, factor {factor:.2f}, "
               f"{runtime:.1f}s")


def test_criterion_6_operator_algebra(toda, toda_plan):
    rng = np.random.default_rng(2027)
    sig2 = ProblemSignature(("u",), 2)
    sigd = ProblemSignature(("u",), 1, differential=True, has_x=True)
    worst_pure = 0.0
    for k in range(20):
        op = random_lindiffop(rng, sig2, radius=2, n_terms=4)
        r = finite_lattice_pairing(op, sig2, seed=9000 + k, tol=1e-12)
        worst_pure = max(worst_pure, r.max_residual)
        assert r.passed
    worst_mixed = 0.0
    for k in range(20):
        op = random_lindiffop(rng, sigd, radius=2, n_terms=3, max_deriv=2,
                              with_x_coeff=True)
        r = finite_lattice_pairing(op, sigd, seed=9100 + k, tol=1e-6)
        worst_mixed = max(worst_mixed, r.max_residual)
        assert r.passed
    # E annihilates divergences: 20 random tuples
    worst_div = 0.0
    sig = toda.sig
    for k in range(20):
        comps = []
        for _ in range(2):
            K = tuple(int(rng.integers(-2, 3)) for _ in range(2))
            c = float(np.round(rng.uniform(-2, 2), 3))
            v = Var(FieldVar("u", 0, K))
            comps.append(mul(Const(c), v, v))
        el = euler_lagrange(divergence(DivergenceTuple(None, tuple(comps)), sig),
                            "u", sig)
        worst_div = max(worst_div, residual_stats(
            el, Const(0), replace(toda_plan, n_points=20).assignments([el], sig)))
    ok = worst_pure <= 1e-12 and worst_mixed <= 1e-6 and worst_div <= 1e-10
    report(6, "adjoint pairing <= 1e-12 pure / <= 1e-6 mixed on 20 random "
              "operators; E(Div) = 0 on 20 random tuples <= 1e-10",
           ok, f"pure {worst_pure:.1e}, mixed {worst_mixed:.1e}, "
               f"E-div {worst_div:.1e}")


def test_criterion_7_frame_properties(toda, ex81, nls):
    worst = {}
    for b in (toda, ex81, nls):
        sig = b.sig
        plan = b.plan(n_points=20)
        # normalization at 60 points; right-equivariance at 20 group elements x 20 points
        w = right_equivariance_residual(b.frame, plan, n_group=20)
        for z, c in b.frame.normalization:
            got = invariantize(b.frame, z)
            w = max(w, residual_stats(got, Const(c),
                                      replace(plan, n_points=60).assignments([got], sig)))
        # iota projection
        ie = invariantize(b.frame, b.L)
        w = max(w, residual_stats(ie, invariantize(b.frame, ie),
                                  plan.assignments([ie], sig)))
        # replacement rule
        xr = invariantize(b.frame, XVar()) if sig.has_x else None
        for kdef in b.invset.kappa_defs.values():
            rules = {v: invariantize(b.frame, Var(v)) for v in fieldvars(kdef)}
            rep = substitute(kdef, rules, x_repl=xr)
            w = max(w, residual_stats(kdef, rep, plan.assignments([kdef], sig)))
        # Maurer-Cartan invariance at 20 group elements x 20 points
        for i in range(sig.lattice_dim):
            for comp in maurer_cartan(b.frame, i):
                rng = np.random.default_rng(np.random.PCG64(plan.seed + 17))
                w = max(w, invariance_residual(comp, b.action, plan, rng,
                                               n_group=20))
        # Dcal-shift commutation for the projectable frames
        if sig.differential:
            step = (1,) * 1 + (0,) * (sig.lattice_dim - 1)
            lhs = b.frame.dcal(shift(ie, step, sig), sig)
            rhs = shift(b.frame.dcal(ie, sig), step, sig)
            w = max(w, residual_stats(lhs, rhs, plan.assignments([lhs], sig)))
        worst[b.name] = w
    ok = all(w <= 1e-8 for w in worst.values())
    report(7, "frame properties (equivariance, projection, replacement, "
              "Maurer-Cartan, Dcal-shift) <= 1e-8 for all three frames",
           ok, ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def test_criterion_8_divergence_equivalence(toda, ex81, nls):
    worst = {}
    for b in (toda, ex81, nls):
        r = divergence_equivalence_check(b, b.plan(), tol=1e-9)
        worst[b.name] = r.max_residual
        assert r.passed, b.name
    report(8, "Div(A_u) = Div(A_H + A_kappa) with fresh variation slots <= 1e-9",
           True, ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def test_criterion_9_determinism():
    def run():
        return run_process("--json", "--seed", "321", "--points", "20",
                           "verify", "toda", "--suite", "syzygy")

    a, b = run(), run()
    ok = a.returncode == 0 and a.stdout == b.stdout and a.stdout.strip() != ""
    json.loads(a.stdout)
    report(9, "identical seeds give byte-identical JSON reports", ok,
           f"{len(a.stdout)} bytes compared")
