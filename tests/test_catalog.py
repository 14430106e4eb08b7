"""Bundle self-tests: every stored formula must match the freshly derived one.

Runs the full verification suites over all registered examples, which is
exactly what serves the expected formulas as regression baselines.
"""

import pytest

from lattice_frames.catalog import EXAMPLES, coordinates, get_example
from lattice_frames.catalog.nls import K1
from lattice_frames.expr import ExprError, FieldVar, Var
from lattice_frames.parser import parse
from lattice_frames.sampling import identity_check
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


def test_coordinates_are_the_interned_vars(toda, nls):
    # F(*K) on a pure-difference signature, F(j, *K) on a differential-difference one
    U, UT = coordinates(toda.sig, "u", "u_t")
    assert U(1, -2) is Var(FieldVar("u", 0, (1, -2)))
    assert UT(0, 0) is Var(FieldVar("u_t", 0, (0, 0)))
    (SV,) = coordinates(nls.invset.kappa_sig, "sigma_v")
    assert SV(2, -1) is Var(FieldVar("sigma_v", 2, (-1,)))
    assert K1(1, 3) is Var(FieldVar("k1", 1, (3,)))
    with pytest.raises(ValueError, match=r"not fields of the signature: \['k1'\]"):
        coordinates(toda.sig, "u", "k1")


@pytest.mark.parametrize("name", ["toda", "ex81"])
def test_stored_lagrangian_is_L(name):
    b = get_example(name)
    stored = parse(b.expected["lagrangian"], b.sig)
    assert identity_check(stored, b.L, b.plan(), b.sig, tol=1e-12).passed
    # a control: the check tells a different Lagrangian apart
    assert not identity_check(stored * 2, b.L, b.plan(), b.sig, tol=1e-12).passed


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
