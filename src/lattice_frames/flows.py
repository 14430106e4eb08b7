"""Time integration of differential-difference flows on a periodic lattice.

The right-hand sides and the monitored densities are expressions over the
problem's fields (derivative order 0, shifts only); a field shifted by k is
read through the index array (n + k) mod N, built once per integration.

:func:`integrate_lattice_flow` lowers the right-hand side and the monitors
together, once per integration, by :class:`~lattice_frames.expr.Lowering`,
and binds the parameters once, so nodes of constants and parameters alone,
such as ``h^2``, are computed and tested once, not at every step.  From the
node lines it builds one function whose loop body is a whole classical
fourth-order Runge-Kutta step as straight-line numpy code: the four stages,
the combination, the norm check, and the monitor densities at the new
state.  That last call is also the first stage of the next step, so the
nodes the monitors share with the right-hand side are computed once.  All steps run
in one numpy error state that raises on overflow, division by zero and
invalid values.

A step costs per numpy call, not per element, at the CLI's 16 sites, and
numpy converts a Python or numpy scalar operand to float64 on every call
(200-350 ns of a call of about 400 ns, numpy 2.4).  So the stage factors
and the 2 of the combination are 0-d float64 arrays, as are the numbers
of the lowered nodes (see :class:`~lattice_frames.expr.Lowering`): the
float64 loop, and the trajectory, are the same bit for bit.  ``x`` stays
a Python float.

A step that raises there, or at which a node is singular or the field norm
fails, is redone stage by stage on the reference path, which takes every
later step too once a monitor's lattice sum has overflowed from finite
densities.  That path is the loop as it was before lowering: each
right-hand side and monitor call evaluates its expressions by
:func:`~lattice_frames.expr.evaluate` at one assignment of periodically
shifted columns, and ``evaluate`` raises the error of the first singular
node.  So only that path raises, with the same messages in the same
order; it computes no right-hand side at the final state, and its
arithmetic and lattice sums are quiet: a value they make non-finite fails
the norm check or shows in the drift, with no numpy warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import Assignment, ExprError, Lowering, _array, evaluate, fieldvars

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


def _reads(variables, n_sites):
    """``(name, k)`` for each FieldVar, and the index array (n + k) mod N of each shift k != 0."""
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
        reads.append((fv.name, k))
    return reads, index


def _broadcast(v, n_sites):
    """A value at every site: a constant is broadcast."""
    return v if np.ndim(v) else np.full(n_sites, float(v))


def _on_lattice(exprs, n_sites, params):
    """``fn(fields, x)`` -> the value of each of ``exprs`` at every one of ``n_sites`` sites.

    Shifts are periodic, and a constant value is broadcast.  Each call
    evaluates the expressions by :func:`evaluate` at one assignment of the
    shifted columns, so a singular node raises :func:`evaluate`'s error.
    """
    variables = sorted(set().union(*map(fieldvars, exprs)))
    reads, index = _reads(variables, n_sites)
    alt = (-1.0) ** np.arange(n_sites)

    def fn(fields, x):
        values = {fv: fields[name][index[k]] if k else fields[name]
                  for fv, (name, k) in zip(variables, reads)}
        a = Assignment(values, x=x, params=params, alt=alt)
        return [_broadcast(evaluate(e, a), n_sites) for e in exprs]

    return fn


def eval_on_lattice(e, state):
    """Evaluate ``e`` at every lattice site (periodic shifts)."""
    return _on_lattice([e], state.n_sites, state.params)(state.fields, state.x)[0]


def step_count(x_span, dt):
    """Number of steps of size ``dt`` across ``x_span``.

    Raises ValueError unless the count is finite and positive and its last
    step ends at ``x1``, to within 1e-9 of the span.
    """
    x0, x1 = x_span
    steps = (x1 - x0) / dt
    if not (math.isfinite(steps) and steps >= 0):
        raise ValueError(f"x span {x0:g},{x1:g} in steps of {dt:g} "
                         "gives no finite, non-negative step count")
    n_steps = int(round(steps))
    if n_steps == 0:
        raise ValueError(f"x span {x0:g},{x1:g} in steps of {dt:g} gives no step")
    end = x0 + n_steps * dt
    if abs(end - x1) > 1e-9 * (x1 - x0):
        raise ValueError(f"x span {x0:g},{x1:g} in {n_steps} steps of {dt:g} "
                         f"ends at x = {end!r}")
    return n_steps


@dataclass
class Trajectory:
    xs: np.ndarray
    monitor_sums: dict
    final: LatticeState
    stability_ok: bool


def _lowered_steps(rhs, monitors, state, n_steps, dt, blow_up, xs, sums):
    """``advance(done, k)``, which runs lowered RK4 steps of one integration; or None.

    ``done`` is the last step whose state ``state`` holds and is recorded
    (-1 before the initial state is), and ``k`` the right-hand side there,
    or None when the lowered code has not computed it.  ``advance`` takes
    steps while they succeed and returns the new ``(done, k)``; a step that
    raises ``FloatingPointError``, or at which a node is singular or the
    field norm fails, is left for the reference path, with ``state`` before
    it.  None instead when a parameter has no value, so that the reference
    path raises :func:`evaluate`'s error.
    """
    names = list(rhs)
    exprs = [*rhs.values(), *monitors.values()]
    lowering = Lowering(exprs, n_first=len(names))
    n_sites = state.n_sites
    reads, index = _reads(lowering.variables, n_sites)

    x0 = state.x
    # a stage factor is a Python float for x and a 0-d array, suffixed _a, for the fields
    glob = {"alt": (-1.0) ** np.arange(n_sites), "_N": n_sites, "_broadcast": _broadcast,
            "_xs": xs, "_half": 0.5 * dt, "_dt": dt, "_half_a": _array(0.5 * dt),
            "_dt_a": _array(dt), "_sixth_a": _array(dt / 6.0), "_two_a": _array(2.0),
            "_x0": x0, "_blow_up": blow_up}
    shifted = {}
    for k, idx in index.items():
        shifted[k] = f"_i{len(shifted)}"
        glob[shifted[k]] = idx
    held = {}       # a field the flow reads but does not evolve -> its global name
    for name, _ in reads:
        if name not in rhs and name not in held:
            held[name] = glob_name = f"_F{len(held)}"
            glob[glob_name] = state.fields[name]
    for j, label in enumerate(monitors):
        glob[f"_s{j}"] = sums[label]

    F = range(len(names))
    # a value that reads no field may be a scalar: broadcast, as the reference does
    values = [r if fieldvars(e) else f"_broadcast({r}, _N)"
              for r, e in zip(lowering.results, exprs)]
    ks, densities = values[:len(names)], values[len(names):]

    def inputs(prefix):
        arrays = {**{name: f"{prefix}{f}" for f, name in zip(F, names)}, **held}
        return "V = (" + "".join(f"{arrays[name]}{f'[{shifted[k]}]' if k else ''}, "
                                 for name, k in reads) + ")"

    def stage(factor, k, out):
        # the right-hand side at y + factor * k, x + factor, as the reference loop computes it
        return [f"x = X + {factor}", *(f"A{f} = Y{f} + {factor}_a * {k}{f}" for f in F),
                inputs("A"), *lowering.lines(end=lowering.first_end),
                *(f"{out}{f} = {ks[f]}" for f in F)]

    def at_state(prefix, fail):
        # the monitors and the right-hand side at the state held in prefix0, ...
        return [inputs(prefix), *lowering.lines(), f"if m is not False and _any(m): {fail}"]

    def record(i):
        return [f"_xs[{i}] = x", *(f"_s{j}[{i}] = {d}.sum()" for j, d in enumerate(densities))]

    ys, k1s = "".join(f"Y{f}, " for f in F), "".join(f"K{f}, " for f in F)
    functions = {
        # records state i and returns its right-hand side; None where a node is singular
        "_at_state": (f"{ys}x, i", ["m = bad", *at_state("Y", "return None"), *record("i"),
                                    f"return ({''.join(f'{k}, ' for k in ks)})"]),
        # steps i + 1, ... from state i and its right-hand side K, while they succeed
        "_steps": (f"{ys}{k1s}X, i", [
            "try:",
            "    while i < _n:",
            *("        " + line for line in [
                "m = bad",
                *stage("_half", "K", "B"), *stage("_half", "B", "C"), *stage("_dt", "C", "D"),
                *(f"Z{f} = Y{f} + _sixth_a * (K{f} + _two_a * B{f} + _two_a * C{f} + D{f})"
                  for f in F),
                *(f"if not _abs(Z{f}).max() <= _blow_up: break" for f in F),
                # a record that raises leaves i, Y, K and X at the step before
                "x = _x0 + (i + 1) * _dt", *at_state("Z", "break"), *record("i + 1"),
                f"i, {ys}{k1s}X = i + 1, {''.join(f'Z{f}, ' for f in F)}"
                f"{''.join(f'{k}, ' for k in ks)}x"]),
            "except FloatingPointError:",
            "    pass",
            f"return i, ({ys}), ({k1s}), X"]),
    }
    try:
        at_state_fn, steps_fn = lowering.compile(functions, _n=n_steps, **glob)(state.params)
    except KeyError:
        return None

    def advance(done, k):
        i = max(done, 0)        # the step whose state ``state`` holds
        y, x = [state.fields[name] for name in names], state.x
        if k is None:
            try:
                k = at_state_fn(*y, x, i)
            except FloatingPointError:
                pass
            if k is None:
                return done, None
        done, y, k, x = steps_fn(*y, *k, x, i)
        state.fields.update(zip(names, y))
        state.x = x
        return done, k

    return advance


def _check_fields(rhs, monitors, fields):
    """Raise an ExprError naming a field the flow reads or evolves but cannot have."""
    for name in sorted({fv.name for e in rhs.values() for fv in fieldvars(e)} - set(rhs)):
        raise ExprError(f"the right-hand side reads field {name!r}, which it does not evolve")
    for name in rhs:
        if name not in fields:
            raise ExprError(f"the right-hand side evolves field {name!r}, which the state lacks")
    for label, e in monitors.items():
        for name in sorted({fv.name for fv in fieldvars(e)} - set(fields)):
            raise ExprError(f"monitor {label!r} reads field {name!r}, which the state lacks")


def integrate_lattice_flow(rhs, state0, x_span, dt, monitors=None, blow_up=1e6):
    """Classical fourth-order one-step integration of d(fields)/dx = rhs.

    ``rhs`` maps field name -> expression; ``monitors`` maps a label to a
    density expression whose lattice sum is recorded at every accepted step
    (dense output of the monitored functionals).  The stability bound
    dt <= c h^2 for the stiff difference Laplacian is checked against the
    step parameter ``h``; violating it only flags the trajectory, while a
    field norm above ``blow_up``, or a non-finite one, raises
    :class:`BlowUpError`.  A right-hand side that reads a field it does not
    evolve, or a field it evolves or a monitor reads that the state lacks,
    raises :class:`ExprError`.
    """
    monitors = monitors or {}
    _check_fields(rhs, monitors, state0.fields)
    state = state0.copy()
    x0 = x_span[0]
    state.x = x0
    n_steps = step_count(x_span, dt)
    h = state.params.get("h")
    stability_ok = True
    if h is not None and dt > STABILITY_C * h * h + 1e-15:
        stability_ok = False

    try:
        xs = np.empty(n_steps + 1)
        sums = {label: np.empty(n_steps + 1) for label in monitors}
    except (MemoryError, ValueError, OverflowError) as err:
        # a tiny dt gives a count of hundreds of digits: print it in short form
        count = f"{n_steps:.3e}" if n_steps >= 10**12 else n_steps
        raise DenseOutputError(f"cannot allocate the dense output of {count} steps: "
                               f"{err}") from None

    names = list(rhs)
    advance = _lowered_steps(rhs, monitors, state, n_steps, dt, blow_up, xs, sums)

    # the stage-by-stage reference: the monitor and right-hand-side functions
    monitor_fn, rhs_fn = (_on_lattice(list(exprs.values()), state.n_sites, state.params)
                          for exprs in (monitors, rhs))

    def f(fields_dict, x):
        return dict(zip(names, rhs_fn(fields_dict, x)))

    def record(i):
        """Record state i; True when a monitor's lattice sum overflows from finite densities."""
        xs[i] = state.x
        overflowed = False
        for label, dens in zip(monitors, monitor_fn(state.fields, state.x)):
            total = sums[label][i] = float(dens.sum())
            overflowed = overflowed or (not math.isfinite(total) and bool(np.isfinite(dens).all()))
        return overflowed

    def reference_step(i):
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
        return record(i)

    done, k = -1, None      # the last recorded step, and the right-hand side there
    while done < n_steps:
        if advance is not None:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                done, k = advance(done, k)
            if done == n_steps:
                break
        # the lowered code cannot take the next step: the reference takes it, quietly
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            overflowed = record(0) if done < 0 else reference_step(done + 1)
        done, k = done + 1, None
        if overflowed:
            # a sum that overflowed will most likely overflow again, and the
            # lowered step raises at every record that does: the reference
            # takes the remaining steps
            advance = None

    return Trajectory(xs, sums, state, stability_ok)


@np.errstate(over="ignore", invalid="ignore")
def monitor_conserved(traj):
    """Relative drift of each monitored lattice sum over the trajectory.

    A sum that is not finite gives a drift that is not finite, quietly.
    """
    out = {}
    for label, series in traj.monitor_sums.items():
        s0 = series[0]
        drift = float(np.max(np.abs(series - s0))) / max(1.0, abs(s0))
        out[label] = drift
    return out
