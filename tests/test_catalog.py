"""Bundle self-tests: every stored formula must match the freshly derived one.

Runs the full verification suites over all registered examples, which is
exactly what serves the expected formulas as regression baselines.
"""

import pytest

from lattice_frames.catalog import EXAMPLES, get_example
from lattice_frames.expr import ExprError
from lattice_frames.suites import run_suite, suite_names


def test_registry_contents():
    assert set(EXAMPLES) == {"toda", "ex81", "nls"}
    with pytest.raises(ExprError):
        get_example("missing")


def test_generator_lookup(toda):
    assert toda.generator(4).name == "v4"
    assert toda.generator(4).note == "alternating translation; original-form law only"


@pytest.mark.parametrize("name", ["toda", "ex81", "nls"])
def test_action_generators_are_the_actions_own(name):
    # one index r: the action's generators come first, held once by the action
    b = get_example(name)
    for r in range(1, b.action.group_dim + 1):
        assert b.generator(r) is b.action.generators[r - 1]
    n = len(b.generators)
    for r in (0, -1, n + 1):
        with pytest.raises(ExprError) as err:
            b.generator(r)
        assert str(err.value) == (f"example {name!r} has no generator r={r} "
                                  f"(valid: {list(range(1, n + 1))})")


@pytest.mark.parametrize("name", ["toda", "ex81", "nls"])
@pytest.mark.parametrize("suite", ["syzygy", "invariant-el", "noether", "equivariance"])
def test_suites_pass(name, suite):
    b = get_example(name)
    reports = run_suite(b, suite, b.plan(n_points=30))
    bad = [r for r in reports if not r.passed]
    assert not bad, [(r.check_id, r.max_residual) for r in bad]


def test_suite_sizes(toda):
    reports = run_suite(toda, "all", toda.plan(n_points=20))
    assert len(reports) >= 30  # the full toda sweep is a few dozen checks


def test_suite_names_stable():
    assert suite_names() == ["syzygy", "invariant-el", "noether", "equivariance", "all"]
