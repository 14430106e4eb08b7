import dataclasses

import pytest

from lattice_frames.calculus import LinDiffOp
from lattice_frames.catalog import get_example
from lattice_frames.expr import Const


@pytest.fixture(scope="session")
def toda():
    return get_example("toda")


@pytest.fixture(scope="session")
def ex81():
    return get_example("ex81")


@pytest.fixture(scope="session")
def nls():
    return get_example("nls")


@pytest.fixture(scope="session")
def toda_plan(toda):
    return toda.plan()


@pytest.fixture(scope="session")
def ex81_plan(ex81):
    return ex81.plan()


@pytest.fixture(scope="session")
def nls_plan(nls):
    return nls.plan()


@pytest.fixture(scope="session")
def broken_toda(toda):
    """Toda with a wrong syzygy operator row H[kappa]; H[lambda] is intact."""
    H = {"kappa": {"sigma": LinDiffOp.from_terms([(Const(1), (0, 0), 0)])},
         "lambda": toda.invset.H["lambda"]}
    return dataclasses.replace(toda, invset=dataclasses.replace(toda.invset, H=H))
