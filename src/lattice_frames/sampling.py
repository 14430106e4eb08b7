"""Numeric backbone: admissible random sampling and identity checking.

Expression equality throughout the package is decided probabilistically:
both sides are evaluated at random points of the prolongation space drawn
from a :class:`SamplePlan`, rejecting points that violate the registered
chart guards (denominators and half-space constraints bounded away from
zero).  Reports are deterministic functions of the seed.

A point set is one :class:`PointSet` of arrays, so an expression is
evaluated once at all of its points.  Candidates are drawn in blocks of
that form and every guard is evaluated once per block as a mask over it;
the accepted points, the rejection count and the point where sampling
gives up are those of drawing and testing the candidates one at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .expr import Assignment, ExprError, SingularEvaluationError, evaluate, fieldvars

__all__ = [
    "Guard",
    "PointSet",
    "SamplePlan",
    "SamplingExhaustedError",
    "CheckReport",
    "identity_check",
    "relative_residual",
    "residual_stats",
    "DEFAULT_RANGE",
    "DEFAULT_MARGIN",
]

DEFAULT_RANGE = (-2.0, 2.0)
DEFAULT_MARGIN = 0.05
VARIATION_RANGE = (-1.0, 1.0)


class SamplingExhaustedError(ExprError):
    """Guards rejected too many candidate points."""


@dataclass(frozen=True)
class Guard:
    """``expr`` must stay >= margin ('pos') or |expr| >= margin ('abs')."""

    expr: object
    kind: str = "abs"
    margin: float = DEFAULT_MARGIN

    @cached_property
    def variables(self):
        """The field variables of ``expr``, collected once per guard."""
        return fieldvars(self.expr)

    def ok(self, a):
        try:
            v = evaluate(self.expr, a)
        except SingularEvaluationError:
            return False
        if self.kind == "pos":
            return v >= self.margin
        return abs(v) >= self.margin

    def mask(self, a):
        """:meth:`ok` at every point of the point set ``a`` (one bool if ``expr`` is constant).

        Raises :class:`SingularEvaluationError` when ``expr`` is singular at
        any of the points; :meth:`ok` then decides them one by one.
        """
        v = evaluate(self.expr, a)
        if self.kind != "pos":
            v = np.abs(v)
        return v >= self.margin


class PointSet(Assignment):
    """``n`` points as one :class:`Assignment` whose every entry is an array of length ``n``."""

    def __len__(self):
        return len(self.x)

    def __iter__(self):
        """One :class:`Assignment` of Python scalars per point."""
        values = {fv: col.tolist() for fv, col in self.values.items()}
        params = {p: col.tolist() for p, col in self.params.items()}
        base = [col.tolist() for col in self.base]
        for i, (x, alt) in enumerate(zip(self.x.tolist(), self.alt.tolist())):
            yield Assignment({fv: col[i] for fv, col in values.items()}, x=x,
                             params={p: col[i] for p, col in params.items()},
                             base=tuple(col[i] for col in base), alt=alt)


@dataclass
class SamplePlan:
    """Deterministic admissible-point generator.

    ``offsets`` maps a FieldVar to an additive bias, letting charts such as
    ``u_{1,1} > u_{0,0}`` be sampled without drowning in rejections; drawn
    values are ``offset + uniform(range)``.  Variation slot fields always use
    the range [-1, 1].
    """

    n_points: int = 50
    seed: int = 2024
    value_range: tuple = DEFAULT_RANGE
    x_range: tuple = (0.5, 2.0)
    param_ranges: dict = field(default_factory=dict)
    guards: tuple = ()
    offsets: object = None
    base_range: tuple = (-2, 2)
    max_rejections: int = 20000

    def with_(self, **kw):
        return replace(self, **kw)

    def assignments(self, exprs, sig, extra_vars=()):
        """The :class:`PointSet` of admissible points covering every variable of ``exprs``.

        Each candidate takes its coordinates (sorted), then ``x``, then the
        parameters from one ``uniform`` call, which consumes the random
        stream exactly as one call per value does, and then one ``integers``
        call per lattice direction for its base point.
        """
        names = set()
        for e in exprs:
            names |= fieldvars(e)
        for g in self.guards:
            names |= g.variables
        names |= set(extra_vars)
        names = sorted(names, key=lambda fv: (fv.name, fv.deriv, fv.shift))
        variation_names = set(sig.variations.values())
        ranges = [VARIATION_RANGE if fv.name in variation_names else self.value_range
                  for fv in names]
        ranges.append(self.x_range)
        ranges.extend(self.param_ranges.get(p, (0.5, 1.5)) for p in sig.params)
        lows, highs = (np.array(col, dtype=float) for col in zip(*ranges))
        offsets = np.array([
            0.0 if fv.name in variation_names or self.offsets is None else self.offsets(fv)
            for fv in names], dtype=float)
        k, m = len(names), sig.lattice_dim
        b_lo, b_hi = self.base_range

        def points(rows, bases):
            # contiguous columns: coordinates, then x, then the parameters
            cols = rows.T.copy()
            cols[:k] += offsets[:, None]
            return PointSet(dict(zip(names, cols[:k])), x=cols[k],
                            params=dict(zip(sig.params, cols[k + 1:])),
                            base=tuple(bases.T.copy()),
                            alt=np.where(bases.sum(axis=1) % 2, -1.0, 1.0))

        rng = np.random.default_rng(np.random.PCG64(self.seed))
        kept = [(np.empty((0, len(lows))), np.empty((0, m), dtype=np.int64))]
        accepted = rejected = drawn = 0
        while accepted < self.n_points:
            # scale the block by the acceptance rate so far, but draw no more
            # candidates than can be examined before sampling gives up
            need = self.n_points - accepted
            size = min(-(-need * drawn // max(accepted, 1)) if rejected else need,
                       need + self.max_rejections + 1 - rejected)
            rows = np.empty((size, len(lows)))
            bases = np.empty((size, m), dtype=np.int64)
            for i in range(size):
                rows[i] = rng.uniform(lows, highs)
                for d in range(m):
                    bases[i, d] = rng.integers(b_lo, b_hi + 1)
            drawn += size
            block = points(rows, bases)
            try:
                ok = np.ones(size, dtype=bool)
                for g in self.guards:
                    ok &= g.mask(block)
            except SingularEvaluationError:
                ok = [all(g.ok(p) for g in self.guards) for p in block]
            take = []
            for i in range(size):
                if rejected > self.max_rejections:
                    raise SamplingExhaustedError(
                        f"guards rejected {rejected} candidates (accepted {accepted}/{self.n_points})")
                if ok[i]:
                    take.append(i)
                    accepted += 1
                    if accepted == self.n_points:
                        break
                else:
                    rejected += 1
            kept.append((rows[take], bases[take]))
        return points(*map(np.concatenate, zip(*kept)))


@dataclass
class CheckReport:
    """One verification result; serializes to the report JSON schema."""

    check_id: str
    status: str
    max_residual: float
    n_points: int
    seed: int
    runtime_ms: object = None
    note: str = ""

    @property
    def passed(self):
        return self.status == "pass"

    def to_dict(self):
        d = {
            "check_id": self.check_id,
            "status": self.status,
            "max_residual": self.max_residual,
            "n_points": self.n_points,
            "seed": self.seed,
            "runtime_ms": self.runtime_ms,
        }
        if self.note:
            d["note"] = self.note
        return d

    def to_json(self):
        return json.dumps(self.to_dict())


def relative_residual(points, residual):
    """Max over ``points`` of |d| / max(1, |s_1|, |s_2|, ...), evaluated once.

    ``residual(points)`` returns ``(d, scales)``, evaluated on the whole
    :class:`PointSet`.  A NaN anywhere, or an empty point set, gives NaN,
    which fails every ``<= tol`` test (Python's ``max`` would drop a NaN).
    """
    if not points:
        return math.nan
    d, scales = residual(points)
    scale = 1.0
    for s in scales:
        scale = np.maximum(scale, np.abs(s))
    return float(np.max(np.abs(d) / scale))


def residual_stats(lhs, rhs, assignments):
    """Max relative residual |lhs-rhs| / max(1,|lhs|,|rhs|) over the points."""

    def residual(a):
        lv, rv = evaluate(lhs, a), evaluate(rhs, a)
        return lv - rv, (lv, rv)

    return relative_residual(assignments, residual)


def identity_check(lhs, rhs, plan, sig, tol=1e-9, check_id="identity", extra_vars=()):
    """Probabilistic identity test: pass iff the residual stays within ``tol``.

    An empty point set or a NaN residual fails.
    """
    assignments = plan.assignments([lhs, rhs], sig, extra_vars=extra_vars)
    worst = residual_stats(lhs, rhs, assignments)
    status = "pass" if worst <= tol else "fail"
    return CheckReport(check_id, status, worst, len(assignments), plan.seed,
                       note="" if assignments else "empty point set")
