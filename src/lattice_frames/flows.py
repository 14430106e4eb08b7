"""Time integration of differential-difference flows on a periodic lattice.

The right-hand sides and the monitored densities are expressions over the
problem's fields (derivative order 0, shifts only).  Each set is lowered once
per integration by :func:`~lattice_frames.expr.compile_exprs` into one
straight-line numpy function over whole arrays, and a field shifted by k is
read through the index array (n + k) mod N, built once.  The parameters are
bound once per integration too, so nodes of constants and parameters alone,
such as ``h^2``, are computed and tested once, not at every step.  So the
classical fourth-order Runge-Kutta stepping stays vectorized and walks no
expression tree per step.  A call returns the mask of the sites where a node
is singular; when it is set, the call is redone by
:func:`~lattice_frames.expr.evaluate`, which raises the error of the first
singular node, so a singular parameter-only node is reported at the first
call, when the initial state is recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import Assignment, ExprError, compile_exprs, evaluate

__all__ = [
    "LatticeState",
    "Trajectory",
    "BlowUpError",
    "DenseOutputError",
    "step_count",
    "eval_on_lattice",
    "integrate_lattice_flow",
    "monitor_conserved",
]

STABILITY_C = 0.2


class BlowUpError(ExprError):
    """Field norm exceeded the blow-up threshold, or stopped being finite."""


class DenseOutputError(ExprError):
    """The dense-output arrays of a trajectory cannot be allocated."""


@dataclass
class LatticeState:
    """Periodic lattice state: one value array per field, plus x and parameters."""

    fields: dict
    x: float = 0.0
    params: dict = field(default_factory=dict)

    @property
    def n_sites(self):
        return len(next(iter(self.fields.values())))

    def copy(self):
        return LatticeState({k: v.copy() for k, v in self.fields.items()},
                            self.x, dict(self.params))


def _on_lattice(exprs, n_sites, params):
    """Lower ``exprs`` and bind ``params`` once into ``fn(fields, x)`` -> one array per expression.

    Each array holds the expression's value at every one of ``n_sites``
    lattice sites, with periodic shifts; a constant value is broadcast.
    A node of constants and parameters alone is computed, and tested, here.
    A call at which a node is singular raises :func:`evaluate`'s error.
    """
    bind, variables = compile_exprs(exprs)
    alt = (-1.0) ** np.arange(n_sites)
    index = {}
    reads = []
    for fv in variables:
        if fv.deriv:
            raise ExprError(f"lattice evaluation needs derivative order 0, got {fv}")
        if len(fv.shift) != 1:
            raise ExprError("lattice flows support one discrete dimension")
        k = fv.shift[0]
        if k and k not in index:
            # arr[(n + k) % N] is np.roll(arr, -k)
            index[k] = (np.arange(n_sites) + k) % n_sites
        reads.append((fv.name, index[k] if k else None))
    lowered = bind(params)

    def fn(fields, x):
        values = [fields[name] if idx is None else fields[name][idx] for name, idx in reads]
        out, bad = lowered(values, x, alt)
        if bad is not False and np.any(bad):
            # the reference raises the error of the first singular node
            a = Assignment(dict(zip(variables, values)), x=x, params=params, alt=alt)
            for e in exprs:
                evaluate(e, a)
        return [v if np.ndim(v) else np.full(n_sites, float(v)) for v in out]

    return fn


def eval_on_lattice(e, state):
    """Evaluate ``e`` at every lattice site (periodic shifts)."""
    return _on_lattice([e], state.n_sites, state.params)(state.fields, state.x)[0]


def step_count(x_span, dt):
    """Number of steps of size ``dt`` across ``x_span``.

    Raises ValueError unless the count is finite and not negative.
    """
    x0, x1 = x_span
    steps = (x1 - x0) / dt
    if not (math.isfinite(steps) and steps >= 0):
        raise ValueError(f"x span {x0:g},{x1:g} in steps of {dt:g} "
                         "gives no finite, non-negative step count")
    return int(round(steps))


@dataclass
class Trajectory:
    xs: np.ndarray
    monitor_sums: dict
    initial: LatticeState
    final: LatticeState
    dt: float
    stability_ok: bool


def integrate_lattice_flow(rhs, state0, x_span, dt, monitors=None,
                           stability_c=STABILITY_C, blow_up=1e6):
    """Classical fourth-order one-step integration of d(fields)/dx = rhs.

    ``rhs`` maps field name -> expression; ``monitors`` maps a label to a
    density expression whose lattice sum is recorded at every accepted step
    (dense output of the monitored functionals).  The stability bound
    dt <= c h^2 for the stiff difference Laplacian is checked against the
    step parameter ``h``; violating it only flags the trajectory, while a
    field norm above ``blow_up``, or a non-finite one, raises
    :class:`BlowUpError`.
    """
    monitors = monitors or {}
    state = state0.copy()
    x0 = x_span[0]
    state.x = x0
    n_steps = step_count(x_span, dt)
    h = state.params.get("h")
    stability_ok = True
    if h is not None and dt > stability_c * h * h + 1e-15:
        stability_ok = False

    try:
        xs = np.empty(n_steps + 1)
        sums = {label: np.empty(n_steps + 1) for label in monitors}
    except (MemoryError, ValueError, OverflowError) as err:
        raise DenseOutputError(f"cannot allocate the dense output of {n_steps} steps: "
                               f"{err}") from None

    names = list(rhs)
    monitor_fn = _on_lattice(list(monitors.values()), state.n_sites, state.params)
    rhs_fn = _on_lattice(list(rhs.values()), state.n_sites, state.params)

    def f(fields_dict, x):
        return dict(zip(names, rhs_fn(fields_dict, x)))

    def record(i):
        xs[i] = state.x
        values = monitor_fn(state.fields, state.x)
        for label, dens in zip(monitors, values):
            sums[label][i] = float(dens.sum())

    record(0)
    for i in range(1, n_steps + 1):
        y = state.fields
        k1 = f(y, state.x)
        k2 = f({n: y[n] + 0.5 * dt * k1[n] for n in names}, state.x + 0.5 * dt)
        k3 = f({n: y[n] + 0.5 * dt * k2[n] for n in names}, state.x + 0.5 * dt)
        k4 = f({n: y[n] + dt * k3[n] for n in names}, state.x + dt)
        for n in names:
            y[n] = y[n] + (dt / 6.0) * (k1[n] + 2.0 * k2[n] + 2.0 * k3[n] + k4[n])
        state.x = x0 + i * dt
        norms = [float(np.abs(y[n]).max()) for n in names]
        if not all(v <= blow_up for v in norms):  # a NaN norm fails too
            raise BlowUpError(f"field norm {np.max(norms):.3e} at x = {state.x:.6g}")
        record(i)

    return Trajectory(xs, sums, state0.copy(), state, dt, stability_ok)


def monitor_conserved(traj):
    """Relative drift of each monitored lattice sum over the trajectory."""
    out = {}
    for label, series in traj.monitor_sums.items():
        s0 = series[0]
        drift = float(np.max(np.abs(series - s0))) / max(1.0, abs(s0))
        out[label] = drift
    return out
