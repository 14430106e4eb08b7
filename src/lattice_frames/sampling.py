"""Numeric backbone: admissible random sampling and identity checking.

Expression equality throughout the package is decided probabilistically:
both sides are evaluated at random points of the prolongation space drawn
from a :class:`SamplePlan`, rejecting points that violate the registered
chart guards (denominators and half-space constraints bounded away from
zero).  Reports are deterministic functions of the seed.

A point set is one :class:`PointSet` of arrays, so an expression is
evaluated once at all of its points.  Candidates are drawn in blocks of
that form, each block from one raw read of the plan's PCG64 that leaves
the stream where drawing its candidates one at a time leaves it; a block
in which that draw would retry a rejected integer is drawn one call at a
time instead (see :func:`_draw_block`).  The guard tuple, lowered once per
run by :func:`~lattice_frames.expr.compile_exprs`, tests a block in one
call with its parameter columns bound, its inputs read from the block's
columns by position, and rejects the candidates of the call's mask, at
which a guard is singular; the draw's one :class:`PointSet` is made from
the accepted rows alone.  The accepted points, the
rejection count and the point where sampling gives up are those of testing
one candidate at a time with :meth:`Guard.ok`.

Inside :func:`~lattice_frames.expr.run_memo` the lowered guard tuple and
every point set are kept in the run's tables, as the builders' nodes are.
A guard tuple's entry maps the variables of a request outside the guards'
to one sorted tuple of the whole set, sorted on the set's first request.
A candidate stream is fixed by the identity of that tuple, the plan's
seed, ranges and ``max_rejections``, the signature's params, variation
fields and lattice dimension, and the identities of the guard tuple and
``offsets``; its table maps ``n_points`` to the set held of that size.  A
repeated request in the run, from any plan, returns the very
:class:`PointSet` drawn the first time, and sorts and hashes no
:class:`FieldVar`.  A request for fewer points than a set of its stream
is that set's first points (:meth:`PointSet.prefix`), drawing nothing: a
candidate does not depend on the block it is drawn in, and acceptance is
decided per candidate, so the first ``n`` points of a larger set are the
``n``-point draw, and a stream that gave the larger set does not exhaust
before ``n``.  A request for more points than its stream holds draws
afresh.  Each set is held: read-only, and :func:`evaluate` keeps the value
of each node at its points for the run.  Outside a run each request draws
again, with the same bits, since every draw seeds a new PCG64 with the
plan's seed; the set it returns is the caller's, its columns alone
read-only.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, field
from types import MappingProxyType

import numpy as np

from .expr import (
    Assignment,
    ExprError,
    SingularEvaluationError,
    _RUN,
    _table,
    _varset,
    compile_exprs,
    evaluate,
)

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
X_RANGE = (0.5, 2.0)
BASE_RANGE = (-2, 2)


class SamplingExhaustedError(ExprError):
    """Guards rejected too many candidate points."""


@dataclass(frozen=True, eq=False, repr=False)
class Guard:
    """``expr`` must stay >= margin ('pos') or |expr| >= margin ('abs')."""

    expr: object
    kind: str = "abs"
    margin: float = DEFAULT_MARGIN

    def ok(self, a):
        try:
            v = evaluate(self.expr, a)
        except SingularEvaluationError:
            return False
        if self.kind == "pos":
            return v >= self.margin
        return abs(v) >= self.margin


class PointSet(Assignment):
    """``n`` points as one :class:`Assignment` whose every entry is an array of length ``n``.

    A set the run memo holds (see :meth:`SamplePlan.assignments`) is
    read-only: its columns, its ``values`` and ``params`` mappings and its
    attributes, since every later request and every :func:`evaluate` of the
    run reads it.
    """

    def __setattr__(self, name, value):
        if self.held:
            raise FrozenInstanceError(f"cannot assign to {name!r} of a point set the run holds")
        super().__setattr__(name, value)

    def hold(self):
        """Make this set read-only and mark it held; returns it."""
        object.__setattr__(self, "values", MappingProxyType(self.values))
        object.__setattr__(self, "params", MappingProxyType(self.params))
        object.__setattr__(self, "held", True)
        return self

    def prefix(self, n):
        """The held set of the first ``n`` points, read-only views of this set's columns."""
        return PointSet({fv: col[:n] for fv, col in self.values.items()}, x=self.x[:n],
                        params={p: col[:n] for p, col in self.params.items()},
                        base=tuple(col[:n] for col in self.base), alt=self.alt[:n]).hold()

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


def _draw_block(rng, lows, highs, size, m, b_lo, b_hi):
    """``(rows, bases)`` of ``size`` candidates, as ``rng`` draws them one at a time.

    Candidate ``i`` is row ``i`` of ``rng.uniform(lows, highs)`` and then
    ``m`` calls of ``rng.integers(b_lo, b_hi + 1)``.  For the PCG64 of a
    plan the block is read from one ``random_raw`` call, which leaves the
    stream, with its held 32-bit half, where those calls leave it:

    - a double is ``low + (high - low) * ((w >> 11) * 2**-53)`` of the next
      64-bit word ``w``;
    - a base coordinate is the 32-bit Lemire draw ``b_lo + ((u * span) >> 32)``
      of the next 32-bit half ``u``: a held half first, else the low half of
      a fresh word, whose high half is then held;
    - so with ``L`` doubles per candidate and ``has`` the held flag at the
      start, the block reads ``size*L + ceil((size*m - has)/2)`` words, and
      fresh word ``k``, read by draw ``has + 2k``, is word
      ``((has + 2k) // m + 1)*L + k``: it follows the doubles of the
      candidate making that draw.

    Lemire rejects a half with ``(u*span) mod 2**32 < (2**32 - span) mod span``
    and draws again; for ``span = 5`` only ``u = 0``.  A block with a rejected
    half restores the stream and is drawn one call at a time, and so is one
    with a non-finite range, for which ``uniform`` raises, or a span outside
    ``(1, 2**32]``, which draws no half or takes numpy's 64-bit path.
    """
    bitgen = rng.bit_generator
    widths = highs - lows
    span = b_hi + 1 - b_lo
    saved = bitgen.state
    if 1 < span <= 2**32 and np.isfinite(widths).all():
        n_doubles, has, draws = len(lows), saved["has_uint32"], size * m
        n_fresh = (draws - has + 1) // 2
        raw = bitgen.random_raw(size * n_doubles + n_fresh)
        k = np.arange(n_fresh)
        fresh = np.zeros(len(raw), dtype=bool)
        fresh[((has + 2 * k) // m + 1) * n_doubles + k] = True
        words = raw[fresh]
        # low + (high - low) * double, in place
        rows = raw[~fresh]
        rows >>= 11
        rows = np.multiply(rows, 2.0**-53).reshape(size, n_doubles)
        rows *= widths
        rows += lows
        halves = np.empty(has + 2 * len(words), dtype=np.uint64)
        halves[:has] = saved["uinteger"]
        halves[has::2] = words & 0xFFFFFFFF
        halves[has + 1::2] = words >> 32
        scaled = halves[:draws] * np.uint64(span)
        if not ((scaled & 0xFFFFFFFF) < (2**32 - span) % span).any():
            state = bitgen.state
            state["has_uint32"] = (draws - has) % 2
            if n_fresh:
                state["uinteger"] = int(words[-1] >> 32)
            bitgen.state = state
            return rows, b_lo + (scaled >> 32).astype(np.int64).reshape(size, m)
        bitgen.state = saved
    rows = np.empty((size, len(lows)))
    bases = np.empty((size, m), dtype=np.int64)
    for i in range(size):
        rows[i] = rng.uniform(lows, highs)
        for d in range(m):
            bases[i, d] = rng.integers(b_lo, b_hi + 1)
    return rows, bases


def _alt(bases):
    """(-1)^(n^1+...+n^m) at each base point, a row of ``bases``."""
    return np.where(bases.sum(axis=1) % 2, -1.0, 1.0)


@dataclass(frozen=True, eq=False, repr=False)
class SamplePlan:
    """Deterministic admissible-point generator.

    ``offsets`` maps a FieldVar to an additive bias, letting charts such as
    ``u_{1,1} > u_{0,0}`` be sampled without drowning in rejections; drawn
    values are ``offset + uniform(range)``.  Variation slot fields always use
    the range ``VARIATION_RANGE``, ``x`` the range ``X_RANGE``, and each
    lattice direction of the base point the integers of ``BASE_RANGE``.

    A plan is a value: derive one with :func:`dataclasses.replace`.  What it
    draws is kept in the run memo, not in the plan.
    """

    n_points: int = 50
    seed: int = 2024
    value_range: tuple = DEFAULT_RANGE
    param_ranges: dict = field(default_factory=dict)
    guards: tuple = ()
    offsets: object = None
    max_rejections: int = 20000

    def assignments(self, exprs, sig):
        """The :class:`PointSet` of admissible points covering every variable of ``exprs``.

        Each candidate takes its coordinates (sorted), then ``x``, then the
        parameters, and then its base point, with the values and the stream
        of one ``uniform`` call followed by one ``integers`` call per
        lattice direction.  :func:`_draw_block` draws a block of candidates
        from one raw read of the generator, and falls back to those calls
        for a block in which an integer draw would be rejected and retried.
        Inside a run the set is held (see :meth:`PointSet.hold`), and a
        request this run has already answered returns that same object,
        found from the variables of ``exprs`` outside the guards' (the
        nodes' cached sets) without sorting: only a set's first request
        sorts it.  A request for fewer points than a held set of the same
        stream (the same request but for ``n_points``) is the prefix of the
        largest such set, held under its own size; a larger request draws.
        A block of candidates that cannot be allocated raises
        :class:`ExprError`.
        """
        # each table holds the objects whose ids its key holds, so no id is reused
        lowered = _table(("guards", id(self.guards)), self.guards)
        if not lowered:
            lowered["guards"] = compile_exprs([g.expr for g in self.guards])
            lowered["vars"], lowered["names"] = frozenset(lowered["guards"][1]), {}
            # one row per guard: which rows are tested by absolute value, and their margins
            lowered["abs"] = np.array([g.kind != "pos" for g in self.guards], dtype=bool)[:, None]
            lowered["margins"] = np.array([g.margin for g in self.guards], dtype=float)[:, None]
        guard_bind, guard_vars = lowered["guards"]
        # the variables outside the guards' find the one sorted tuple of the
        # set, and the position in it of each input of the lowered guards
        extra = frozenset().union(*[_varset(e) - lowered["vars"] for e in exprs])
        found = lowered["names"].get(extra)
        if found is None:
            names = tuple(sorted(lowered["vars"] | extra))
            position = {fv: i for i, fv in enumerate(names)}
            found = lowered["names"][extra] = names, [position[fv] for fv in guard_vars]
        names, guard_cols = found
        variation_names = set(sig.variations.values())
        # the sets of one candidate stream, by size
        held = _table(("points", id(names), self.seed, tuple(self.value_range),
                       self.max_rejections,
                       tuple((p, tuple(r)) for p, r in self.param_ranges.items()),
                       tuple(sig.params), tuple(sorted(variation_names)), sig.lattice_dim,
                       id(self.guards), id(self.offsets)), self.guards, self.offsets, names)
        out = held.get(self.n_points)
        if out is not None:
            return out
        larger = max(held, default=0)
        if 0 <= self.n_points < larger:
            # acceptance is decided per candidate: a stream's first n points are its n-point set
            out = held[self.n_points] = held[larger].prefix(self.n_points)
            return out
        ranges = [VARIATION_RANGE if fv.name in variation_names else self.value_range
                  for fv in names]
        ranges.append(X_RANGE)
        ranges.extend(self.param_ranges.get(p, (0.5, 1.5)) for p in sig.params)
        lows, highs = (np.array(col, dtype=float) for col in zip(*ranges))
        offsets = np.array([
            0.0 if fv.name in variation_names or self.offsets is None else self.offsets(fv)
            for fv in names], dtype=float)
        k, m = len(names), sig.lattice_dim
        b_lo, b_hi = BASE_RANGE

        def columns(rows):
            # contiguous columns: coordinates, then x, then the parameters
            cols = rows.T.copy()
            cols[:k] += offsets[:, None]
            return cols, dict(zip(sig.params, cols[k + 1:]))

        rng = np.random.default_rng(np.random.PCG64(self.seed))
        kept = [(np.empty((0, len(lows))), np.empty((0, m), dtype=np.int64))]
        accepted = rejected = drawn = 0
        while accepted < self.n_points:
            # scale the block by the acceptance rate so far, but draw no more
            # candidates than can be examined before sampling gives up
            need = self.n_points - accepted
            size = min(-(-need * drawn // max(accepted, 1)) if rejected else need,
                       need + self.max_rejections + 1 - rejected)
            try:
                try:
                    rows, bases = _draw_block(rng, lows, highs, size, m, b_lo, b_hi)
                except ValueError as err:   # a dimension past numpy's largest
                    raise MemoryError(err) from None
                cols, params = columns(rows)
                # the parameters are columns of the block, so they are bound per block
                values, bad = guard_bind(params)([cols[i] for i in guard_cols], cols[k],
                                                 _alt(bases))
                try:
                    stacked = np.array(values, dtype=float).reshape(len(values), size)
                except ValueError:  # a guard that reads no input has one value: broadcast it
                    stacked = np.array([np.broadcast_to(v, size) for v in values])
                np.abs(stacked, out=stacked, where=lowered["abs"])
                ok = ~np.broadcast_to(bad, size) & (stacked >= lowered["margins"]).all(axis=0)
            except MemoryError as err:
                raise ExprError(f"cannot allocate a block of {size} candidate points: "
                                f"{err}") from None
            drawn += size
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
        rows, bases = map(np.concatenate, zip(*kept))
        cols, params = columns(rows)
        out = PointSet(dict(zip(names, cols[:k])), x=cols[k], params=params,
                       base=tuple(bases.T.copy()), alt=_alt(bases))
        for col in [*out.values.values(), out.x, *out.params.values(), *out.base, out.alt]:
            col.flags.writeable = False
        if _RUN.get() is not None:
            held[self.n_points] = out.hold()
        return out


@dataclass(eq=False, repr=False)
class CheckReport:
    """One verification result; serializes to the report JSON schema."""

    check_id: str
    status: str
    max_residual: float
    n_points: int
    seed: int
    note: str = ""

    @classmethod
    def from_residual(cls, check_id, residual, tol, n_points, seed, note=""):
        """The report of a check that passes iff ``residual <= tol``; a NaN fails."""
        return cls(check_id, "pass" if residual <= tol else "fail", float(residual),
                   n_points, seed, note=note)

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
        }
        if self.note:
            d["note"] = self.note
        return d


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


def identity_check(lhs, rhs, plan, sig, tol=1e-9, check_id="identity"):
    """Probabilistic identity test: pass iff the residual stays within ``tol``.

    An empty point set or a NaN residual fails.
    """
    assignments = plan.assignments([lhs, rhs], sig)
    worst = residual_stats(lhs, rhs, assignments)
    return CheckReport.from_residual(check_id, worst, tol, len(assignments), plan.seed,
                                     note="" if assignments else "empty point set")
