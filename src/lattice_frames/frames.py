"""Difference and projectable differential-difference moving frames.

A frame is a catalog object: the normalization equations come with a
closed-form solution for the group parameters (no numeric root-finding),
and every stored formula is re-verified at runtime on random chart points.
Invariantization evaluates the transformed expression on the frame; the
generating invariants live in a separate expression space (the
"kappa space") linked to the original variables by an explicit expansion
table, because the invariantization operator does not commute with shifts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .actions import transform
from .calculus import LinDiffOp, apply_op, deriv_op
from .expr import (
    Assignment,
    Const,
    ExprError,
    Var,
    evaluate,
    fieldvars,
    shift,
    substitute,
    t_derivative,
)
from .sampling import CheckReport, identity_check

__all__ = [
    "Frame",
    "UnreachableTargetError",
    "invariantize",
    "maurer_cartan",
    "mc_concatenated",
    "verify_frame",
    "InvariantSet",
    "mc_element",
    "apply_recurrence",
    "verify_syzygy",
    "differential_syzygy_operators",
    "FRAMES",
    "register_frame",
    "get_frame",
    "solve_frame",
]


class UnreachableTargetError(ExprError):
    """The recurrence table does not reach the requested coordinate."""


@dataclass(frozen=True)
class Frame:
    """Right moving frame in parameter coordinates.

    ``normalization`` lists (coordinate expression, constant) pairs; the
    ``param_exprs`` solve them in closed form on the chart.  ``dcal_inv`` is
    the reciprocal invariant volume factor: the invariant derivative is
    dcal_inv * D (pure-difference frames keep the default 1).
    """

    name: str
    action: object
    normalization: tuple
    param_exprs: tuple
    dcal_inv: object = Const(1)
    chart_guards: tuple = ()

    @property
    def jacobian_factor(self):
        """iota(dx) = J dx; J is 1/dcal_inv for projectable frames."""
        return Const(1) / self.dcal_inv if self.dcal_inv != Const(1) else Const(1)

    @property
    def projectable(self):
        """Group parameters entering the x-map depend on x alone on the frame."""
        if self.action.x_map is None:
            return True
        in_x = {p.name for p in _param_nodes(self.action.x_map)}
        for pname, pexpr in zip(self.action.param_names, self.param_exprs):
            if pname in in_x and fieldvars(pexpr):
                return False
        return True

    def to_dict(self):
        from .expr import to_string
        return {
            "name": self.name,
            "action": self.action.name,
            "normalization": [[to_string(z), c] for z, c in self.normalization],
            "parameters": {p: to_string(e) for p, e in zip(self.action.param_names, self.param_exprs)},
            "chart_guards": [{"expr": to_string(g.expr), "kind": g.kind,
                              "margin": g.margin} for g in self.chart_guards],
        }


def _param_nodes(e):
    from .expr import Param, Sum, Prod, Pow, Quot, Neg, LnAbs, Sqrt
    out = []
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, Param):
            out.append(n)
        elif isinstance(n, Sum):
            stack.extend(n.terms)
        elif isinstance(n, Prod):
            stack.extend(n.factors)
        elif isinstance(n, Pow):
            stack.append(n.base)
        elif isinstance(n, Quot):
            stack.extend((n.num, n.den))
        elif isinstance(n, (Neg, LnAbs, Sqrt)):
            stack.append(n.arg)
    return out


def invariantize(frame, e, sig):
    """iota(e): the transformed expression evaluated on the frame."""
    return transform(e, frame.action, frame.param_exprs, sig)


def maurer_cartan(frame, direction, sig):
    """Parameter coordinates of (S_i rho) rho^{-1}; components are invariant."""
    m = sig.lattice_dim
    step = tuple(1 if k == direction else 0 for k in range(m))
    shifted = tuple(shift(p, step, sig) for p in frame.param_exprs)
    return frame.action.compose(shifted, frame.action.inverse(frame.param_exprs))


def mc_element(frame, offset, sig):
    """(S_J rho) rho^{-1} for an arbitrary multi-index J."""
    shifted = tuple(shift(p, tuple(offset), sig) for p in frame.param_exprs)
    return frame.action.compose(shifted, frame.action.inverse(frame.param_exprs))


def mc_concatenated(frame, i, j, sig):
    """(S_j K_(i)) * K_(j): equals iota(S_i S_j rho) by the concatenation rule."""
    m = sig.lattice_dim
    step_j = tuple(1 if k == j else 0 for k in range(m))
    Ki = maurer_cartan(frame, i, sig)
    Kj = maurer_cartan(frame, j, sig)
    SKi = tuple(shift(p, step_j, sig) for p in Ki)
    return frame.action.compose(SKi, Kj)


def _x_expr():
    from .expr import XVar
    return XVar()


def verify_frame(frame, plan, sig, tol=1e-8, n_group=10):
    """Runtime checks: normalization solved exactly, right-equivariance."""
    action = frame.action
    reports = []
    # psi_r(rho . z) = 0 on the chart
    for k, (zexpr, c) in enumerate(frame.normalization):
        lhs = invariantize(frame, zexpr, sig)
        reports.append(identity_check(lhs, Const(c), plan, sig, tol=tol,
                                      check_id=f"{frame.name}:normalization-{k}"))
    # rho(g.z) = rho(z) g^{-1} for random g in the chart: the frame parameters
    # at the transformed point against the composed element, for n_group
    # elements evaluated at every sample point
    rng = np.random.default_rng(np.random.PCG64(plan.seed + 1))
    needed = set()
    for p in frame.param_exprs:
        needed |= fieldvars(p)
    residuals = []
    n_pts = max(10, plan.n_points // 3)
    pts = plan.with_(n_points=n_pts).assignments(list(frame.param_exprs), sig)
    rho_at = [tuple(evaluate(p, a) for p in frame.param_exprs) for a in pts]
    for _ in range(n_group):
        g = action.random_element(rng)
        transformed = {fv: transform(Var(fv), action, g, sig) for fv in needed}
        x_expr = transform(_x_expr(), action, g, sig) if sig.has_x else None
        for a, rho in zip(pts, rho_at):
            values = {fv: evaluate(e, a) for fv, e in transformed.items()}
            x = evaluate(x_expr, a) if x_expr is not None else a.x
            at = Assignment(values, x=x, params=a.params, base=a.base, alt=a.alt)
            lhs = [evaluate(p, at) for p in frame.param_exprs]
            rhs = action.compose(rho, action.inverse(g))
            residuals.extend(abs(lv - rv) / max(1.0, abs(lv), abs(rv))
                             for lv, rv in zip(lhs, rhs))
    # np.max keeps a NaN residual, which then fails the tolerance test
    worst = float(np.max(residuals))
    reports.append(CheckReport(f"{frame.name}:right-equivariance",
                               "pass" if worst <= tol else "fail",
                               worst, len(pts), plan.seed))
    return reports


@dataclass
class InvariantSet:
    """Generating invariants of a frame plus the machinery linking the two
    expression spaces.

    ``kappa_defs``/``sigma_defs`` give each generator in original variables
    (sigma definitions involve the variation slot fields).  ``recurrence``
    maps an original-space FieldVar to its invariantization written in
    kappa symbols; ``syzygies`` are (name, lhs, rhs) kappa-space pairs.
    ``H`` is the syzygy operator matrix H[beta][alpha] with kappa-space
    coefficients: d(kappa^beta)/dt = H^beta_alpha sigma^alpha.
    """

    frame: object
    orig_sig: object
    kappa_sig: object
    kappa_defs: dict
    sigma_defs: dict = field(default_factory=dict)
    sigma_fields: dict = field(default_factory=dict)
    recurrence: object = None
    syzygies: tuple = ()
    H: dict = field(default_factory=dict)
    _expand_cache: dict = field(default_factory=dict)

    @property
    def kappa_names(self):
        return tuple(self.kappa_defs)

    @property
    def sigma_names(self):
        return tuple(self.sigma_defs)

    def expand_var(self, fv):
        """Original-variable expression for one kappa-space coordinate."""
        if fv in self._expand_cache:
            return self._expand_cache[fv]
        name = fv.name
        if name in self.kappa_defs:
            base = self.kappa_defs[name]
        elif name in self.sigma_defs:
            base = self.sigma_defs[name]
        elif name in self.kappa_sig.variations.values():
            kname = next(k for k, w in self.kappa_sig.variations.items() if w == name)
            base = t_derivative(self.kappa_defs[kname], self.orig_sig)
        else:
            return None
        out = shift(base, fv.shift, self.orig_sig)
        if fv.deriv:
            out = deriv_op(out, self.orig_sig, self.frame.dcal_inv, times=fv.deriv)
        self._expand_cache[fv] = out
        return out

    def expand(self, e):
        """Rewrite a kappa-space expression in the original variables.

        Field variables that are not kappa/sigma/variation symbols (for
        instance original fields or adjoint symbols mixed into the tree) are
        left untouched.
        """
        rules = {}
        for fv in fieldvars(e):
            rep = self.expand_var(fv)
            if rep is not None:
                rules[fv] = rep
        return substitute(e, rules)

    def dcal_kappa(self, name):
        """D(kappa) in original variables using the invariant derivative."""
        return deriv_op(self.kappa_defs[name], self.orig_sig, self.frame.dcal_inv)


def apply_recurrence(invset, target):
    """iota(target) in kappa symbols via the registered recurrence table."""
    if invset.recurrence is None:
        raise UnreachableTargetError("no recurrence table registered")
    out = invset.recurrence(target)
    if out is None:
        raise UnreachableTargetError(f"recurrences do not reach {target}")
    return out


def verify_syzygy(invset, syzygy, plan, tol=1e-10):
    """Both sides expanded to original variables and compared on the chart."""
    name, lhs, rhs = syzygy
    return identity_check(invset.expand(lhs), invset.expand(rhs), plan,
                          invset.orig_sig, tol=tol, check_id=f"syzygy:{name}")


def differential_syzygy_operators(invset, plan, tol=1e-9):
    """Verified operator matrix H with d(kappa^beta)/dt = H^beta_alpha sigma^alpha.

    The registered kappa-space coefficients are expanded to the original
    variables, applied to the sigma definitions with the invariant
    derivative, and compared against the t-derivative of each generating
    invariant with fresh random variation slots.
    """
    sig = invset.orig_sig
    reports = []
    for beta, row in invset.H.items():
        lhs = t_derivative(invset.kappa_defs[beta], sig)
        parts = []
        for alpha, op in row.items():
            if op is None:
                continue
            expanded = LinDiffOp(tuple((invset.expand(c), K, j) for c, K, j in op.terms))
            parts.append(apply_op(expanded, invset.sigma_defs[alpha], sig,
                                  dcal_inv=invset.frame.dcal_inv))
        from .expr import add
        rep = identity_check(lhs, add(*parts), plan, sig, tol=tol,
                             check_id=f"syzygy-operator:{beta}")
        reports.append(rep)
        if not rep.passed:
            raise ExprError(
                f"syzygy operator row {beta} failed verification "
                f"(residual {rep.max_residual:.3e})")
    return invset.H, reports


FRAMES = {}


def register_frame(frame):
    FRAMES[frame.name] = frame
    return frame


def get_frame(name):
    try:
        return FRAMES[name]
    except KeyError:
        raise ExprError(f"unknown frame {name!r}; registered: {sorted(FRAMES)}")


def solve_frame(action, normalization, plan, sig, tol=1e-8):
    """Look up the registered closed-form frame for (action, normalization).

    Raises if no catalog frame matches (there is no generic nonlinear
    solver), and re-verifies the stored solution before returning it.
    """
    targets = [(str(z), c) for z, c in normalization]
    for frame in FRAMES.values():
        if frame.action.name != action.name:
            continue
        if [(str(z), c) for z, c in frame.normalization] == targets:
            reports = verify_frame(frame, plan, sig, tol=tol)
            bad = [r for r in reports if not r.passed]
            if bad:
                raise ExprError(f"frame {frame.name} failed verification: "
                                + ", ".join(r.check_id for r in bad))
            return frame
    raise ExprError("no closed-form frame registered for this normalization")
