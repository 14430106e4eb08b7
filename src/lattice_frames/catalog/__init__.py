"""Built-in example registry.

Each bundle packages one worked problem: the Lagrangian in the original
variables and in the generating invariants, the invariant set (generating
invariants with their recurrences and syzygies, and the syzygy operator
matrix), the generators that have an original-form law only, and the
expected formulas used as regression baselines.  The invariant set holds
the moving frame, which holds the group action, which holds the signature;
the bundle reads each of them from there, so a bundle cannot mix two
frames.  The generators are numbered r = 1..R in the action's basis, the
index of the paper's Noether laws and adjoint components a^s_r, and the
other generators follow as r = R+1, ....  Expected formulas are stored as
grammar strings and are never trusted blindly: the verification suites
re-derive everything and compare numerically.

Each catalog object is written once.  The examples take their coordinates
from :func:`coordinates`, and toda and ex81 share the one declaration of the
group u -> b u + a, :data:`AFFINE_GROUP`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..expr import Const, ExprError, FieldVar, Param, Var, neg
from ..sampling import SamplePlan

__all__ = ["AFFINE_GROUP", "ExampleBundle", "EXAMPLES", "coordinates", "get_example",
           "register_example"]

DEFAULT_SEED = 2024


def coordinates(sig, *names):
    """One constructor per field of ``sig``, each giving the coordinate
    ``Var(FieldVar(name, j, K))``: ``F(*K)`` with j = 0 on a pure-difference
    signature, ``F(j, *K)`` on a differential-difference one."""
    undeclared = [n for n in names if n not in sig.fields]
    if undeclared:
        raise ValueError(f"not fields of the signature: {undeclared}")
    if sig.differential:
        return tuple(lambda j, *K, n=n: Var(FieldVar(n, j, K)) for n in names)
    return tuple(lambda *K, n=n: Var(FieldVar(n, 0, K)) for n in names)


# The group u -> b u + a on the chart b > 0, as GroupAction arguments; an
# example adds its name, signature, u_maps, x_map and generators.
AFFINE_GROUP = dict(
    param_names=("a", "b"),
    identity_values=(0.0, 1.0),
    compose_fn=lambda g1, g2: (g1[1] * g2[0] + g1[0], g1[1] * g2[1]),
    inverse_fn=lambda g: ((-g[0]) / g[1], 1 / g[1]),
    adjoint_rep=((Param("b"), Const(0)), (neg(Param("a")), Const(1))),
    chart_fn=lambda g: g[1] > 0,
    sample_fn=lambda rng: (float(rng.uniform(-1, 1)), float(rng.uniform(0.4, 2.0))),
)


@dataclass(eq=False, repr=False)
class ExampleBundle:
    """One catalog example: its Lagrangian in both expression spaces, its invariant set and plan."""

    name: str
    L: object
    invset: object
    L_kappa: object
    other_generators: tuple = ()  # original-form law only, numbered after the action's
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
    def generators(self):
        """Every generator in the order of its index r: the action's, then the others."""
        return self.action.generators + self.other_generators

    def generator(self, r):
        gens = self.generators
        if not 1 <= r <= len(gens):
            raise ExprError(f"example {self.name!r} has no generator r={r} "
                            f"(valid: {list(range(1, len(gens) + 1))})")
        return gens[r - 1]


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
