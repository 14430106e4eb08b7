"""Property test on generated trees: the pruned builders against the unpruned walk.

``oracles.expr_trees`` draws trees built by the smart constructors over
signatures of lattice dimension 1 and 2, difference and
differential-difference.  On each tree :func:`partial`, :func:`shift` and
:func:`substitute` must give the very node that ``oracles.reference_rebuild``
builds by visiting every node, inside a run and outside one, and the printed
tree must parse back to the same node.  The Euler-Lagrange operator must
annihilate the divergence of every tuple of generated components.
Summation and integration by parts must leave exactly a divergence, the
adjoint of a composition of operators must be the composition of the
adjoints in the reverse order, and the adjoint of an adjoint must be the
operator.
"""

import contextlib
from dataclasses import replace

import numpy as np
import pytest

import oracles
from lattice_frames import expr
from lattice_frames.calculus import (
    DivergenceTuple,
    apply_op,
    divergence,
    euler_lagrange,
    linear_by_parts,
    op_adjoint,
    op_compose,
)
from lattice_frames.expr import (
    ZERO,
    Const,
    ExprError,
    FieldVar,
    Param,
    ProblemSignature,
    Sum,
    Var,
    XVar,
    add,
    evaluate,
    fieldvars,
    mul,
    neg,
    partial,
    power,
    shift,
    substitute,
    to_string,
)
from lattice_frames.parser import parse
from lattice_frames.sampling import SamplePlan, relative_residual

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SIGS = {
    "difference-1d": ProblemSignature(("u", "v"), 1, params=("a",)),
    "difference-2d": ProblemSignature(("u",), 2, params=("a", "b")),
    "differential-1d": ProblemSignature(("u", "v"), 1, differential=True, has_x=True,
                                        params=("a",)),
    "differential-2d": ProblemSignature(("u",), 2, differential=True, has_x=True),
}


def outcome(call):
    """What ``call()`` gives: a node, or the type and text of its error."""
    try:
        return call()
    except ExprError as err:
        return type(err), str(err)


@pytest.mark.parametrize("sig", SIGS.values(), ids=SIGS)
def test_pruned_builders_are_the_unpruned_walk(sig):
    trees = oracles.expr_trees(sig)

    @hypothesis.settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @hypothesis.given(e=trees, other=trees, offset=st.integers(-2, 2), memo=st.booleans(),
                      data=st.data())
    def check(e, other, offset, memo, data):
        assert parse(to_string(e), sig) is e
        # each field variable of e maps to itself, to the other tree, or is left out
        rules = {}
        for fv in sorted(fieldvars(e)):
            pick = data.draw(st.sampled_from(["self", "other", "none"]))
            if pick != "none":
                rules[fv] = Var(fv) if pick == "self" else other
        param_rules = {p: data.draw(st.sampled_from([Param(p), Const(2), other]))
                       for p in sig.params if data.draw(st.booleans())}
        x_repl = data.draw(st.sampled_from([None, XVar(), other])) if sig.has_x else None
        offsets = (offset,) * sig.lattice_dim
        absent = FieldVar(sig.fields[0], 0, (9,) * sig.lattice_dim)
        with expr.run_memo() if memo else contextlib.nullcontext():
            for fv in sorted(fieldvars(e)) + [absent]:
                assert partial(e, fv) is oracles.reference_partial(e, fv)
            moved, want = (outcome(lambda: shift(e, offsets, sig)),
                           outcome(lambda: oracles.reference_shift(e, offsets, sig)))
            assert moved is want if isinstance(want, expr.Expr) else moved == want
            assert substitute(e, rules, x_repl, param_rules) is oracles.reference_substitute(
                e, rules, x_repl, param_rules)

    check()


def cancellation(e, points):
    """Max of |e| over the largest of 1 and |t| for each term t of ``e``.

    The rounding error of a sum that is 0 in exact arithmetic scales with
    its largest term, which can be large where a generated tree is near a
    singularity.
    """
    return relative_residual(points, lambda a: (evaluate(e, a), [evaluate(t, a) for t in terms(e)]))


def terms(e):
    return e.terms if isinstance(e, Sum) else (e,)


def difference(e, *subtracted):
    """``e`` minus each of ``subtracted`` term by term, so :func:`cancellation` scales by each."""
    return add(e, *[neg(t) for s in subtracted for t in terms(s)])


@pytest.mark.parametrize("sig", SIGS.values(), ids=SIGS)
def test_euler_lagrange_annihilates_divergences(sig):
    # E(Div F) = 0: exactness of the variational complex (Hydon & Mansfield 2004)
    sig = replace(sig, deriv_cap=8)   # room for the derivatives E takes of D A^0
    trees = oracles.expr_trees(sig, max_leaves=6)
    plan = SamplePlan(n_points=20, seed=5)
    u0 = Var(FieldVar(sig.fields[0], 0, (0,) * sig.lattice_dim))

    @hypothesis.settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @hypothesis.given(a0=trees if sig.differential else st.none(),
                      comps=st.tuples(*[trees] * sig.lattice_dim))
    def check(a0, comps):
        try:
            div = divergence(DivergenceTuple(a0, comps), sig)
            els = [euler_lagrange(div, f, sig) for f in sig.fields]
            control = euler_lagrange(add(div, power(u0, 2)), u0.fv.name, sig)
            points = plan.assignments(els + [control], sig)
            residuals = [cancellation(el, points) for el in els]
            control_residual = cancellation(control, points)
        except ExprError:
            hypothesis.assume(False)
        assert max(residuals) <= 1e-9, residuals
        assert control_residual > 1e-9

    check()


@pytest.mark.parametrize("sig", SIGS.values(), ids=SIGS)
def test_by_parts_leaves_exactly_a_divergence(sig):
    # e = sum_i c_i w_{j_i;K_i} with no w in the c_i:
    # e - coeff_w * w_{0;0} = Div(boundary), the Div-exactness of linear_by_parts
    wsig = replace(sig, fields=sig.fields + ("w",), deriv_cap=8)
    plan = SamplePlan(n_points=20, seed=5)
    slots = st.builds(FieldVar, st.just("w"), st.integers(0, 2 if sig.differential else 0),
                      st.tuples(*[st.integers(-2, 2)] * sig.lattice_dim))
    w0 = Var(FieldVar("w", 0, (0,) * sig.lattice_dim))
    controls = []

    @hypothesis.settings(derandomize=True, max_examples=20, deadline=None, database=None)
    @hypothesis.given(pairs=st.lists(st.tuples(oracles.expr_trees(sig, max_leaves=6), slots),
                                     min_size=1, max_size=3))
    def check(pairs):
        e = add(*[mul(c, Var(w)) for c, w in pairs])
        try:
            coeffs, boundary = linear_by_parts(e, ("w",), wsig)
            left = difference(e, mul(coeffs.get("w", ZERO), w0))
            residual = difference(left, divergence(boundary, wsig))
            points = plan.assignments([residual], wsig)
            exact, control = cancellation(residual, points), cancellation(left, points)
        except ExprError:
            hypothesis.assume(False)
        assert exact <= 1e-9, exact
        controls.append(control)

    check()
    # the control: without its divergence, the by-parts form is not e
    assert sum(control > 1e-9 for control in controls) >= 5, controls


@pytest.mark.parametrize("sig", SIGS.values(), ids=SIGS)
def test_adjoint_of_a_composition_is_the_reversed_composition(sig):
    # (AB)^dagger = B^dagger A^dagger, both sides through op_compose, applied to a tree
    sig = replace(sig, deriv_cap=8)
    plan = SamplePlan(n_points=20, seed=5)
    controls = []

    @hypothesis.settings(derandomize=True, max_examples=15, deadline=None, database=None)
    @hypothesis.given(e=oracles.expr_trees(sig, max_leaves=6), seed=st.integers(0, 2**32 - 1))
    def check(e, seed):
        rng = np.random.default_rng(seed)
        a, b = (oracles.random_lindiffop(rng, sig, radius=1, n_terms=2,
                                         max_deriv=2 if sig.differential else 0,
                                         with_x_coeff=sig.has_x) for _ in range(2))
        try:
            lhs = apply_op(op_adjoint(op_compose(a, b, sig), sig), e, sig)
            adjoints = op_adjoint(a, sig), op_adjoint(b, sig)
            rhs = apply_op(op_compose(adjoints[1], adjoints[0], sig), e, sig)
            unreversed = apply_op(op_compose(*adjoints, sig), e, sig)
            points = plan.assignments([lhs, rhs, unreversed], sig)
            exact = cancellation(difference(lhs, rhs), points)
            control = cancellation(difference(lhs, unreversed), points)
        except ExprError:
            hypothesis.assume(False)
        assert exact <= 1e-9, exact
        controls.append(control)

    check()
    # the control: the adjoints composed in the order of A and B give another operator
    assert sum(control > 1e-9 for control in controls) >= 5, controls


@pytest.mark.parametrize("sig", SIGS.values(), ids=SIGS)
def test_adjoint_of_the_adjoint_is_the_operator(sig):
    # (A^dagger)^dagger = A, both sides applied to a tree
    sig = replace(sig, deriv_cap=8)
    plan = SamplePlan(n_points=20, seed=5)
    controls = []

    @hypothesis.settings(derandomize=True, max_examples=15, deadline=None, database=None)
    @hypothesis.given(e=oracles.expr_trees(sig, max_leaves=6), seed=st.integers(0, 2**32 - 1))
    def check(e, seed):
        a = oracles.random_lindiffop(np.random.default_rng(seed), sig, radius=1, n_terms=2,
                                     max_deriv=2 if sig.differential else 0,
                                     with_x_coeff=sig.has_x)
        try:
            adjoint = op_adjoint(a, sig)
            twice, once = (apply_op(op, e, sig) for op in (op_adjoint(adjoint, sig), adjoint))
            applied = apply_op(a, e, sig)
            points = plan.assignments([twice, once, applied], sig)
            exact = cancellation(difference(twice, applied), points)
            control = cancellation(difference(once, applied), points)
        except ExprError:
            hypothesis.assume(False)
        assert exact <= 1e-9, exact
        controls.append(control)

    check()
    # the control: a generated operator is not self-adjoint, A^dagger != A
    assert sum(control > 1e-9 for control in controls) >= 5, controls
