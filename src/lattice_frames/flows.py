"""Time integration of differential-difference flows on a periodic lattice.

The right-hand sides and the monitored densities are expressions over the
problem's fields (derivative order 0, shifts only); they are evaluated on
whole numpy arrays with periodic index arithmetic, so the classical
fourth-order Runge-Kutta stepping stays vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import Assignment, ExprError, evaluate, fieldvars

__all__ = [
    "LatticeState",
    "Trajectory",
    "BlowUpError",
    "eval_on_lattice",
    "integrate_lattice_flow",
    "monitor_conserved",
    "drift_ratio",
]

STABILITY_C = 0.2


class BlowUpError(ExprError):
    """Field norm exceeded the blow-up threshold, or stopped being finite."""


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


def _assignment_for(expr_vars, state, alt):
    values = {}
    for fv in expr_vars:
        if fv.deriv:
            raise ExprError(f"lattice evaluation needs derivative order 0, got {fv}")
        if len(fv.shift) != 1:
            raise ExprError("lattice flows support one discrete dimension")
        arr = state.fields[fv.name]
        k = fv.shift[0]
        values[fv] = np.roll(arr, -k) if k else arr
    return Assignment(values, x=state.x, params=state.params, alt=alt)


def eval_on_lattice(e, state):
    """Evaluate ``e`` at every lattice site (periodic shifts)."""
    a = _assignment_for(fieldvars(e), state, (-1.0) ** np.arange(state.n_sites))
    out = evaluate(e, a)
    if np.ndim(out) == 0:
        out = np.full(state.n_sites, float(out))
    return out


@dataclass
class Trajectory:
    xs: np.ndarray
    monitor_sums: dict
    initial: LatticeState
    final: LatticeState
    dt: float
    stability_ok: bool
    note: str = ""


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
    x0, x1 = x_span
    state.x = x0
    n_steps = int(round((x1 - x0) / dt))
    h = state.params.get("h")
    stability_ok = True
    if h is not None and dt > stability_c * h * h + 1e-15:
        stability_ok = False

    names = list(rhs)
    rhs_vars = {f: fieldvars(e) for f, e in rhs.items()}
    alt = (-1.0) ** np.arange(state.n_sites)

    def f(fields_dict, x):
        s = LatticeState(fields_dict, x, state.params)
        out = {}
        for name in names:
            a = _assignment_for(rhs_vars[name], s, alt)
            v = evaluate(rhs[name], a)
            out[name] = v if np.ndim(v) else np.full(s.n_sites, float(v))
        return out

    xs = np.empty(n_steps + 1)
    sums = {label: np.empty(n_steps + 1) for label in monitors}

    def record(i):
        xs[i] = state.x
        for label, dens in monitors.items():
            sums[label][i] = float(np.sum(eval_on_lattice(dens, state)))

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
        norms = [float(np.max(np.abs(y[n]))) for n in names]
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


def drift_ratio(rhs, state0, x_span, dt, monitor_label, monitors, **kw):
    """Drift at dt divided by drift at dt/2 (order-4 stepping gives about 16)."""
    t1 = integrate_lattice_flow(rhs, state0, x_span, dt, monitors=monitors, **kw)
    t2 = integrate_lattice_flow(rhs, state0, x_span, dt / 2, monitors=monitors, **kw)
    d1 = monitor_conserved(t1)[monitor_label]
    d2 = monitor_conserved(t2)[monitor_label]
    return d1 / max(d2, 1e-300), d1, d2
