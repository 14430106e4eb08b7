"""Property test: a point-set draw is the prefix of every larger draw of its stream.

The run memo answers a request for ``n`` points from a held set of the same
stream with more points (``SamplePlan.assignments``); that is sound only if
the first ``n`` points of a cold draw of ``N >= n`` are the cold ``n``-point
draw.  The ``n``-point draw is also checked against the reference sampler,
which draws and tests one candidate at a time.
"""

import dataclasses

import pytest

from lattice_frames.catalog import get_example
from lattice_frames.sampling import SamplingExhaustedError
from test_batched import SIG1, U0, U1, as_tuples, columns, reference_assignments, singular_plan

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def outcome(draw, plan, exprs, sig):
    """What ``draw(plan, exprs, sig)`` gives, or the text of its exhaustion."""
    try:
        return draw(plan, exprs, sig)
    except SamplingExhaustedError as err:
        return str(err)


def cold(plan, exprs, sig):
    return plan.assignments(exprs, sig)


def reference(plan, exprs, sig):
    return as_tuples(reference_assignments(plan, exprs, sig))


def ex81_problem(**kw):
    b = get_example("ex81")
    return dataclasses.replace(b.plan(), **kw), [b.L], b.sig


def singular_problem(**kw):
    return singular_plan(**kw), [U0 * U1], SIG1


@hypothesis.settings(derandomize=True, max_examples=50, deadline=None, database=None)
@hypothesis.given(problem=st.sampled_from([singular_problem, ex81_problem]),
                  seed=st.integers(0, 2**32 - 1), n1=st.integers(0, 60), n2=st.integers(0, 60),
                  lo=st.floats(-3.0, 1.0), width=st.floats(0.5, 4.0),
                  max_rejections=st.integers(0, 40))
def test_a_draw_is_the_prefix_of_every_larger_draw(problem, seed, n1, n2, lo, width,
                                                     max_rejections):
    n1, n2 = sorted((n1, n2))
    plan, exprs, sig = problem(n_points=n2, seed=seed, value_range=(lo, lo + width),
                               max_rejections=max_rejections)
    small = dataclasses.replace(plan, n_points=n1)
    got = outcome(cold, small, exprs, sig)
    assert (got if isinstance(got, str) else as_tuples(got)) == outcome(reference, small, exprs, sig)
    full = outcome(cold, plan, exprs, sig)
    if not isinstance(full, str):
        # a stream that yields n2 points yields its first n1 without exhausting
        assert not isinstance(got, str)
        assert list(got.values) == list(full.values)
        assert [c.tobytes() for c in columns(got)] == [c[:n1].tobytes() for c in columns(full)]
