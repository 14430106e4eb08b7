"""A second way to compute derivatives: the builders against SymPy's differentiation.

On each catalog example's Lagrangian L, its Euler-Lagrange expressions, the
generating invariants, the frame and iota(L):

- :func:`partial` in every coordinate against ``sympy.diff``;
- :func:`t_derivative` against sum slot_{j;K} d/du_{j;K};
- for the differential-difference examples, :func:`total_derivative`
  against d/dx + sum u_{j+1;K} d/du_{j;K}.

Both sides are evaluated at the example's own admissible points and must
agree to a relative 1e-9.

On trees that ``oracles.expr_trees`` draws over difference and
differential-difference signatures, :func:`partial` and
:func:`total_derivative` are checked the same way, at sampled points, where
neither side is singular.
"""

from dataclasses import replace

import numpy as np
import pytest

from lattice_frames.calculus import euler_lagrange
from lattice_frames.catalog import get_example
from lattice_frames.expr import (
    FieldVar,
    ProblemSignature,
    Var,
    compile_exprs,
    evaluate,
    fieldvars,
    partial,
    t_derivative,
    total_derivative,
)
from lattice_frames.frames import invariantize
from lattice_frames.sampling import SamplePlan

from oracles import expr_trees, sympy_symbol, sympy_values, to_sympy

sympy = pytest.importorskip("sympy")

RTOL = 1e-9


def _expressions(b):
    out = {"L": b.L}
    out.update({f"E_{f}": euler_lagrange(b.L, f, b.sig) for f in b.sig.base_fields})
    out.update({f"kappa:{k}": e for k, e in b.invset.kappa_defs.items()})
    out.update({f"rho{i}": e for i, e in enumerate(b.frame.param_exprs)})
    out["iota(L)"] = invariantize(b.frame, b.L)
    return out


def _assert_agree(b, e, got, want, fvs, what):
    """``got`` (a package expression) equals ``want`` (SymPy) at the points of ``e``'s plan."""
    points = b.plan().assignments([e, got, *map(Var, fvs)], b.sig)
    mine = np.broadcast_to(evaluate(got, points), np.shape(points.x))
    theirs = sympy_values(want, points, fvs)
    scale = np.maximum(1.0, np.maximum(np.abs(mine), np.abs(theirs)))
    assert len(points) and np.all(np.abs(mine - theirs) <= RTOL * scale), what


def _chain(b, transfer):
    """Per expression: its label, itself, its SymPy form, the SymPy sum of
    transfer(fv) * d/d(fv) over its coordinates, and the coordinates both read."""
    for label, e in _expressions(b).items():
        s = to_sympy(e)
        fvs = sorted(fieldvars(e), key=str)
        images = [transfer(fv) for fv in fvs]
        want = sympy.Add(*[sympy_symbol(w) * sympy.diff(s, sympy_symbol(fv))
                           for fv, w in zip(fvs, images)])
        yield label, e, s, want, set(fvs) | set(images)


@pytest.mark.parametrize("name", ["toda", "ex81", "nls"])
def test_partial_matches_sympy(name):
    b = get_example(name)
    for label, e in _expressions(b).items():
        s = to_sympy(e)
        for fv in sorted(fieldvars(e), key=str):
            _assert_agree(b, e, partial(e, fv), sympy.diff(s, sympy_symbol(fv)),
                          fieldvars(e), f"d{label}/d{fv}")


@pytest.mark.parametrize("name", ["toda", "ex81", "nls"])
def test_t_derivative_matches_sympy(name):
    b = get_example(name)
    sig = b.sig

    def slot(fv):
        return FieldVar(sig.variations[fv.name], fv.deriv, fv.shift)

    for label, e, _, want, fvs in _chain(b, slot):
        _assert_agree(b, e, t_derivative(e, sig), want, fvs, f"d{label}/dt")


@pytest.mark.parametrize("name", ["ex81", "nls"])
def test_total_derivative_matches_sympy(name):
    b = get_example(name)
    sig = b.sig

    def raised(fv):
        return FieldVar(fv.name, fv.deriv + 1, fv.shift)

    for label, e, s, want, fvs in _chain(b, raised):
        want += sympy.diff(s, sympy.Symbol("x", real=True))
        _assert_agree(b, e, total_derivative(e, sig), want, fvs, f"D{label}")


DIFFERENCE = ProblemSignature(("u", "v"), 1, params=("a",))
DIFFERENTIAL = ProblemSignature(("u", "v"), 1, differential=True, has_x=True, params=("a",))


def _agreeing_points(got, want, fvs, points):
    """The number of ``points`` at which ``got`` (a package expression) and ``want``
    (SymPy) are both real and finite; at each, they agree to a relative 1e-9."""
    shape = np.shape(points.x)
    bind, variables = compile_exprs([got])
    with np.errstate(all="ignore"):
        (mine,), bad = bind(points.params)([points.values[fv] for fv in variables],
                                           points.x, points.alt)
        theirs = sympy_values(want, points, fvs)
    mine, bad = np.broadcast_to(mine, shape), np.broadcast_to(bad, shape)
    ok = ~bad & np.isfinite(mine) & np.isreal(theirs) & np.isfinite(theirs)
    theirs = np.real(theirs)
    scale = np.maximum(1.0, np.maximum(np.abs(mine), np.abs(theirs)))
    assert np.all(np.abs(mine - theirs)[ok] <= RTOL * scale[ok])
    return int(ok.sum())


def _on_generated_trees(sig, derivatives):
    """Check each of ``derivatives(e)``, ``(got, want, fvs)`` triples, on 30 drawn trees."""
    hypothesis = pytest.importorskip("hypothesis")
    plan = SamplePlan(n_points=16, seed=5)
    compared = []

    @hypothesis.settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @hypothesis.given(e=expr_trees(sig, max_leaves=8))
    def check(e):
        for got, want, fvs in derivatives(e):
            points = plan.assignments([got, *map(Var, fvs)], sig)
            compared.append(_agreeing_points(got, want, fvs, points))

    check()
    # a derivative whose tree is nowhere real, such as sqrt(-v^2), is compared nowhere
    assert len(compared) >= 15 and sum(n > 0 for n in compared) >= 2 * len(compared) / 3, compared


@pytest.mark.parametrize("sig", [DIFFERENCE, DIFFERENTIAL], ids=["difference", "differential"])
def test_partial_matches_sympy_on_generated_trees(sig):
    def derivatives(e):
        s, fvs = to_sympy(e), sorted(fieldvars(e), key=str)
        return [(partial(e, fv), sympy.diff(s, sympy_symbol(fv)), fvs) for fv in fvs]

    _on_generated_trees(sig, derivatives)


def test_total_derivative_matches_sympy_on_generated_trees():
    sig = replace(DIFFERENTIAL, deriv_cap=3)    # the trees' orders are at most 2

    def derivatives(e):
        s, fvs = to_sympy(e), sorted(fieldvars(e), key=str)
        raised = [FieldVar(fv.name, fv.deriv + 1, fv.shift) for fv in fvs]
        want = sympy.diff(s, sympy.Symbol("x", real=True)) + sympy.Add(
            *[sympy_symbol(w) * sympy.diff(s, sympy_symbol(fv)) for fv, w in zip(fvs, raised)])
        return [(total_derivative(e, sig), want, fvs + raised)]

    _on_generated_trees(sig, derivatives)
