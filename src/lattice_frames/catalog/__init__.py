"""Built-in example registry.

Each bundle packages one worked problem: the Lagrangian, the invariant set
(generating invariants with their recurrences and syzygies, and the syzygy
operator matrix), and the expected formulas used as regression baselines.
The invariant set holds the moving frame, which holds the group action,
which holds the signature; the bundle reads each of them from there, so a
bundle cannot mix two frames.  Expected formulas are stored as grammar
strings and are never trusted blindly: the verification suites re-derive
everything and compare numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..expr import ExprError
from ..noether import InvariantLagrangian
from ..sampling import SamplePlan

__all__ = ["ExampleBundle", "GenEntry", "EXAMPLES", "register_example", "get_example"]

DEFAULT_SEED = 2024


@dataclass
class GenEntry:
    """One CLI-addressable generator: its 1-based index, and its position in
    the frame action's basis when the invariant/equivariant forms apply."""

    index: int
    gen: object
    action_index: int = None
    note: str = ""


@dataclass
class ExampleBundle:
    name: str
    L: object
    invset: object
    L_kappa: object
    generators: list = field(default_factory=list)  # GenEntry, CLI order
    expected: dict = field(default_factory=dict)
    plan_kw: dict = field(default_factory=dict)
    integrate_config: dict = None

    @property
    def sig(self):  # the extended signature (with variation slots)
        return self.invset.orig_sig

    @property
    def frame(self):
        return self.invset.frame

    @property
    def action(self):
        return self.invset.frame.action

    def plan(self, seed=DEFAULT_SEED, n_points=50):
        return SamplePlan(n_points=n_points, seed=seed, **self.plan_kw)

    @property
    def lagrangian(self):
        return InvariantLagrangian(self.L, self.L_kappa, self.invset)

    def generator(self, index):
        for e in self.generators:
            if e.index == index:
                return e
        raise ExprError(f"example {self.name!r} has no generator r={index} "
                        f"(valid: {[e.index for e in self.generators]})")


EXAMPLES = {}


def register_example(bundle):
    EXAMPLES[bundle.name] = bundle
    return bundle


def get_example(name):
    try:
        return EXAMPLES[name]
    except KeyError:
        raise ExprError(f"unknown example {name!r}; registered: {sorted(EXAMPLES)}")


from . import toda, ex81, nls  # noqa: E402,F401  (registration on import)
