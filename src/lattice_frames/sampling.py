"""Numeric backbone: admissible random sampling and identity checking.

Expression equality throughout the package is decided probabilistically:
both sides are evaluated at random points of the prolongation space drawn
from a :class:`SamplePlan`, rejecting points that violate the registered
chart guards (denominators and half-space constraints bounded away from
zero).  Reports are deterministic functions of the seed.

Candidates are drawn in blocks and every guard is evaluated once per block
as a mask over it; the accepted points, the rejection count and the point
where sampling gives up are those of drawing and testing the candidates
one at a time.  Residuals are likewise evaluated once per point set, on
the points stacked into arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .calculus import LinDiffOp, op_adjoint
from .expr import (
    Alt,
    Assignment,
    Const,
    ExprError,
    SingularEvaluationError,
    XVar,
    add,
    evaluate,
    fieldvars,
    mul,
    stack,
)

__all__ = [
    "Guard",
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

    def mask(self, a, n):
        """:meth:`ok` at each of the ``n`` points stacked in ``a``, as a bool array.

        Raises :class:`SingularEvaluationError` when ``expr`` is singular at
        any of the points; :meth:`ok` then decides them one by one.
        """
        v = evaluate(self.expr, a)
        if self.kind != "pos":
            v = np.abs(v)
        ok = v >= self.margin
        return ok if np.ndim(ok) else np.full(n, ok)


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
        data = {k: getattr(self, k) for k in (
            "n_points", "seed", "value_range", "x_range", "param_ranges",
            "guards", "offsets", "base_range", "max_rejections")}
        data.update(kw)
        return SamplePlan(**data)

    def assignments(self, exprs, sig, extra_vars=()):
        """Admissible assignments covering every variable of ``exprs``.

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
        rng = np.random.default_rng(np.random.PCG64(self.seed))
        out = []
        rejected = drawn = 0
        while len(out) < self.n_points:
            # scale the block by the acceptance rate so far, but draw no more
            # candidates than can be examined before sampling gives up
            need = self.n_points - len(out)
            size = min(-(-need * drawn // max(len(out), 1)) if rejected else need,
                       need + self.max_rejections + 1 - rejected)
            rows = np.empty((size, len(lows)))
            bases = np.empty((size, m), dtype=np.int64)
            for i in range(size):
                rows[i] = rng.uniform(lows, highs)
                for d in range(m):
                    bases[i, d] = rng.integers(b_lo, b_hi + 1)
            drawn += size
            coords, xs, params = rows[:, :k] + offsets, rows[:, k], rows[:, k + 1:]
            alts = np.where(bases.sum(axis=1) % 2, -1.0, 1.0)
            # contiguous columns, like those of stack()
            block = Assignment(dict(zip(names, coords.T.copy())), x=xs.copy(),
                               params=dict(zip(sig.params, params.T.copy())),
                               base=tuple(bases.T.copy()), alt=alts)
            cand = list(zip(coords.tolist(), xs.tolist(), params.tolist(),
                            bases.tolist(), alts.tolist()))

            def point(i):
                c, x, p, b, alt = cand[i]
                return Assignment(dict(zip(names, c)), x=x, params=dict(zip(sig.params, p)),
                                  base=tuple(b), alt=alt)

            try:
                ok = np.ones(size, dtype=bool)
                for g in self.guards:
                    ok &= g.mask(block, size)
            except SingularEvaluationError:
                ok = [all(g.ok(p) for g in self.guards) for p in map(point, range(size))]
            for i in range(size):
                if rejected > self.max_rejections:
                    raise SamplingExhaustedError(
                        f"guards rejected {rejected} candidates (accepted {len(out)}/{self.n_points})")
                if ok[i]:
                    out.append(point(i))
                    if len(out) == self.n_points:
                        break
                else:
                    rejected += 1
        return out


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


def _rel_residual(lv, rv):
    scale = max(1.0, abs(lv), abs(rv))
    return abs(lv - rv) / scale


def relative_residual(points, residual):
    """Max over ``points`` of |d| / max(1, |s_1|, |s_2|, ...), evaluated once.

    ``residual(a)`` returns ``(d, scales)`` at the assignment ``a`` that
    stacks every point.  A NaN anywhere, or an empty point set, gives NaN,
    which fails every ``<= tol`` test (Python's ``max`` would drop a NaN).
    """
    if not points:
        return math.nan
    d, scales = residual(stack(points))
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


# --- finite-lattice adjoint pairing ----------------------------------------


def _support_mask(shape, margin):
    mask = np.zeros(shape, dtype=bool)
    inner = tuple(slice(margin, s - margin) for s in shape)
    mask[inner] = True
    return mask


def _random_supported_field(rng, shape, margin):
    field = rng.uniform(-1.0, 1.0, size=shape)
    field[~_support_mask(shape, margin)] = 0.0
    return field


def _coeff_grid(coeff, shape, x, params):
    """Evaluate a field-free coefficient at every lattice point of the box."""
    out = np.empty(shape + np.shape(x), dtype=float)
    for idx in np.ndindex(shape):
        a = Assignment({}, x=x, params=params, base=idx)
        out[idx] = evaluate(coeff, a)
    return out


def _bump_poly(a, b, order=4):
    """((x-a)(b-x))^order as a numpy Polynomial: C^{order-1} with compact support."""
    from numpy.polynomial import Polynomial
    return (Polynomial([-a, 1.0]) * Polynomial([b, -1.0])) ** order


def finite_lattice_pairing(op, sig, seed=0, box=20, support=(0.3, 1.7),
                           tol=None, check_id="adjoint-pairing"):
    """Check <f, H g> = <H^dagger f, g> on a finite box with compact support.

    Discrete directions are summed exactly; for differential-difference
    operators the x-integrals use a composite trapezoid rule on the support
    interval, refined until the pairing residual stabilizes.  Coefficients
    must not involve field variables.
    """
    m = sig.lattice_dim
    shape = (box,) * m
    margin = op.radius + 1
    if 2 * margin >= box:
        raise ExprError(f"box {box} too small for operator radius {op.radius}: "
                        "compact supports need margin on both sides")
    rng = np.random.default_rng(np.random.PCG64(seed))
    fr = _random_supported_field(rng, shape, margin)
    gr = _random_supported_field(rng, shape, margin)
    params = {p: rng.uniform(0.5, 1.5) for p in sig.params}
    adj = op_adjoint(op, sig)

    def discrete_pair(terms, left, right):
        # sum_n left(n) * sum_t c_t(n) right(n+K): wraparound from np.roll only
        # touches the zeroed margins, so the box sums equal the Z^m sums.
        total = 0.0
        for coeff, K, j in terms:
            if j:
                raise ExprError("difference pairing hit a derivative term")
            cg = _coeff_grid(coeff, shape, 0.0, params)
            total += float(np.sum(left * cg * np.roll(right, tuple(-k for k in K),
                                                      axis=tuple(range(m)))))
        return total

    if op.is_difference and not sig.differential:
        p1 = discrete_pair(op.terms, fr, gr)
        p2 = discrete_pair(adj.terms, gr, fr)
        worst = _rel_residual(p1, p2)
        tol = 1e-12 if tol is None else tol
        return CheckReport(check_id, "pass" if worst <= tol else "fail",
                           worst, 1, seed, note="pure-difference, exact sums")

    # differential-difference: fields r_n * phi(x) with polynomial bumps
    a, b = support
    order = max(4, op.max_deriv + 1)
    phi_f = _bump_poly(a, b, order)
    phi_g = _bump_poly(a, b, order)
    scale = max(abs(phi_f(0.5 * (a + b))), 1e-30)
    tol = 1e-6 if tol is None else tol

    def mixed_pair(terms, left, lpoly, right, rpoly, npts):
        x = np.linspace(a, b, npts)
        lvals = lpoly(x) / scale
        total = 0.0
        for coeff, K, j in terms:
            rvals = rpoly.deriv(j)(x) / scale if j else rpoly(x) / scale
            rolled = np.roll(right, tuple(-k for k in K), axis=tuple(range(m)))
            for idx in np.ndindex(shape):
                if left[idx] == 0.0 or rolled[idx] == 0.0:
                    continue
                cvals = evaluate(coeff, Assignment({}, x=x, params=params, base=idx))
                total += left[idx] * rolled[idx] * np.trapezoid(lvals * cvals * rvals, x)
        return total

    worst = None
    npts = 257
    while True:
        p1 = mixed_pair(op.terms, fr, phi_f, gr, phi_g, npts)
        p2 = mixed_pair(adj.terms, gr, phi_g, fr, phi_f, npts)
        res = _rel_residual(p1, p2)
        if worst is not None and (res <= tol / 10 or abs(res - worst) <= 0.05 * max(res, 1e-300)):
            worst = res
            break
        worst = res
        if npts >= 4097:
            break
        npts = 2 * (npts - 1) + 1
    return CheckReport(check_id, "pass" if worst <= tol else "fail",
                       worst, 1, seed, note=f"trapezoid refined to {npts} points")


def random_lindiffop(rng, sig, radius=2, n_terms=3, max_deriv=0, with_x_coeff=False):
    """A random operator with field-free coefficients (constants, alt, a + b x)."""
    m = sig.lattice_dim
    terms = []
    for _ in range(n_terms):
        K = tuple(int(rng.integers(-radius, radius + 1)) for _ in range(m))
        j = int(rng.integers(0, max_deriv + 1)) if max_deriv else 0
        coeff = Const(round(float(rng.uniform(-2, 2)), 3))
        if rng.random() < 0.3:
            coeff = mul(coeff, Alt())
        if with_x_coeff and rng.random() < 0.5:
            coeff = add(coeff, mul(Const(round(float(rng.uniform(-1, 1)), 3)), XVar()))
        terms.append((coeff, K, j))
    return LinDiffOp.from_terms(terms)
