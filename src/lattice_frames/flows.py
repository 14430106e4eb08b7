"""Time integration of differential-difference flows on a periodic lattice.

The right-hand sides and the monitored densities are expressions over the
problem's fields (derivative order 0, shifts only); a field shifted by k is
read through the index array (n + k) mod N, built once per integration.

:func:`integrate_lattice_flow` lowers the right-hand side and the monitors
together by :class:`~lattice_frames.expr.Lowering` and binds the
parameters, once per integration, so nodes of constants and parameters
alone, such as ``h^2``, are computed and tested once.  One function runs
whole classical fourth-order Runge-Kutta steps as straight-line numpy code
(the four stages, the combination, the norm check, and the monitors and
the right-hand side at the new state, the first stage of the next step),
in one numpy error state that raises on overflow, division by zero and
invalid values; its numbers are 0-d float64 arrays, and ``x`` a Python
float.  The monitor densities go to the rows of a block of at most
``BLOCK_VALUES`` values, and one ``np.sum(axis=1)`` per monitor, with
overflow quiet, sums them when the block fills and at the last state, each
row bit for bit as its own ``sum()``.

A step that raises, or at which a node is singular or the field norm
fails, is taken again, as is the initial state, by a function of the same
lines with overflow quiet and the tests of powers that overflow on.  Where
a stage, or a state, is singular, it evaluates the right-hand side there,
or the monitors and then the right-hand side (not at the last state), by
:func:`~lattice_frames.expr.evaluate`, which raises its error, or that of
a parameter without a value, in the order of the stage-by-stage loop; a
failed norm raises :class:`BlowUpError`.  Otherwise the fast steps resume,
and a value that overflowed fails the norm check or shows in the drift,
with no numpy warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import Assignment, ExprError, Lowering, _array, _quiet_overflow, evaluate, fieldvars

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
# a block of monitor densities holds this many values, or one row of them
BLOCK_VALUES = 4096


class BlowUpError(ExprError):
    """Field norm exceeded the blow-up threshold, or stopped being finite."""


class DenseOutputError(ExprError):
    """The dense-output arrays of a trajectory cannot be allocated."""


@dataclass(eq=False, repr=False)
class LatticeState:
    """Periodic lattice state: one value array per field, plus x and parameters."""

    fields: dict
    x: float = 0.0
    params: dict = field(default_factory=dict)

    @property
    def n_sites(self):
        for values in self.fields.values():
            return len(values)
        raise ExprError("a lattice state with no field has no number of sites")

    def copy(self):
        return LatticeState({k: v.copy() for k, v in self.fields.items()},
                            self.x, dict(self.params))


def _reads(variables, n_sites):
    """``(name, k)`` for each FieldVar, and the index array (n + k) mod N of each shift k != 0."""
    index, reads = {}, []
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


def _on_lattice(exprs, state):
    """The value of each of ``exprs`` at every site of ``state``, by :func:`evaluate`.

    Shifts are periodic, and a constant value is broadcast.  The expressions
    are evaluated in order at one assignment of the shifted columns, so the
    first singular node raises :func:`evaluate`'s error.
    """
    n_sites = state.n_sites
    variables = sorted(set().union(*map(fieldvars, exprs)))
    reads, index = _reads(variables, n_sites)
    values = {fv: state.fields[name][index[k]] if k else state.fields[name]
              for fv, (name, k) in zip(variables, reads)}
    a = Assignment(values, x=state.x, params=state.params, alt=(-1.0) ** np.arange(n_sites))
    out = [evaluate(e, a) for e in exprs]
    return [v if np.ndim(v) else np.full(n_sites, float(v)) for v in out]


def eval_on_lattice(e, state):
    """Evaluate ``e`` at every lattice site (periodic shifts)."""
    return _on_lattice([e], state)[0]


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


@dataclass(eq=False, repr=False)
class Trajectory:
    """The monitor sums of an integration at the times ``xs``, and its final state."""

    xs: np.ndarray
    monitor_sums: dict
    final: LatticeState
    stability_ok: bool


def _lowered_steps(rhs, monitors, state, n_steps, dt, blow_up, xs, sums, blocks):
    """``(start, fast, checked)``, the lowered RK4 functions of one integration.

    ``start(Y..., x, 0)`` records the initial state and returns its
    right-hand side ``K``.  From state ``i``, ``fast(Y..., K..., X, i)``
    takes steps while they succeed, and ``checked`` takes one or raises its
    error; each returns ``(i, Y, K, X)`` at its last state.
    """
    lowering = Lowering([*rhs.values(), *monitors.values()], n_first=len(rhs))
    n_sites, rows = state.n_sites, blocks.shape[1]
    reads, index = _reads(lowering.variables, n_sites)

    def fail(exprs, x, *ys):
        _on_lattice(exprs, LatticeState({**state.fields, **dict(zip(rhs, ys))}, x, state.params))

    @np.errstate(over="ignore", invalid="ignore")
    def flush(i):
        # the lattice sums of the block's rows up to state i: finite densities may overflow
        first = i - i % rows
        for block, series in zip(blocks, sums.values()):
            series[first:i + 1] = np.sum(block[:i + 1 - first], axis=1)

    at_state = [*monitors.values(), *rhs.values()]     # as the stage-by-stage loop has them
    shifted = {k: f"_i{j}" for j, k in enumerate(index)}
    # a field the flow reads but does not evolve -> its global name
    held = {name: f"_F{j}" for j, name in enumerate(dict.fromkeys(
        name for name, _ in reads if name not in rhs))}
    # a stage factor is a Python float for x and a 0-d array, suffixed _a, for the fields
    glob = {"alt": (-1.0) ** np.arange(n_sites), "_xs": xs, "_n": n_steps, "_rows": rows,
            "_last": rows - 1, "_flush": flush, "_fail": fail, "_blown": _blown,
            "_rhs": list(rhs.values()), "_monitors": list(monitors.values()),
            "_at_state": at_state, "_half": 0.5 * dt, "_dt": dt, "_half_a": _array(0.5 * dt),
            "_dt_a": _array(dt), "_sixth_a": _array(dt / 6.0), "_two_a": _array(2.0),
            "_x0": state.x, "_blow_up": blow_up, **{shifted[k]: idx for k, idx in index.items()},
            **{g: state.fields[name] for name, g in held.items()},
            **{f"_d{j}": block for j, block in enumerate(blocks)}}

    F = range(len(rhs))
    ks, densities = lowering.results[:len(rhs)], lowering.results[len(rhs):]

    def args(prefix):
        return "".join(f"{prefix}{f}, " for f in F)

    def inputs(prefix):
        arrays = {**{name: f"{prefix}{f}" for f, name in enumerate(rhs)}, **held}
        return "V = (" + "".join(f"{arrays[name]}{f'[{shifted[k]}]' if k else ''}, "
                                 for name, k in reads) + ")"

    def singular(exprs, prefix, checked):
        # where the fast step stops, the checked one evaluates exprs: evaluate raises
        stop = f"_fail({exprs}, x, {args(prefix)})" if checked else "break"
        return f"if m is not False and _any(m): {stop}"

    def stage(factor, k, out, checked):
        # the right-hand side at y + factor * k, x + factor, as the stage-by-stage loop computes
        # it; the fast step tests its mask once, at the new state
        lines = [f"x = X + {factor}", *(f"A{f} = Y{f} + {factor}_a * {k}{f}" for f in F),
                 inputs("A"), *lowering.lines(end=lowering.first_end, checked=checked),
                 *(f"{out}{f} = {ks[f]}" for f in F)]
        return [*lines, singular("_rhs", "A", checked)] if checked else lines

    def at(prefix, exprs, checked):
        # the monitors and the right-hand side at the state held in prefix0, ...
        return [inputs(prefix), *lowering.lines(checked=checked), singular(exprs, prefix, checked)]

    record = ["_xs[i] = x", "r = i % _rows", *(f"_d{j}[r] = {d}" for j, d in enumerate(densities)),
              "if r == _last or i == _n: _flush(i)"]

    def step(checked):
        # from state i to i + 1; the right-hand side at the last state may be singular
        blown = f"_blown(x, {args('Z')})" if checked else "break"
        return ["m = bad", *stage("_half", "K", "B", checked), *stage("_half", "B", "C", checked),
                *stage("_dt", "C", "D", checked),
                *(f"Z{f} = Y{f} + _sixth_a * (K{f} + _two_a * B{f} + _two_a * C{f} + D{f})"
                  for f in F),
                "x = _x0 + (i + 1) * _dt",
                *(f"if not _abs(Z{f}).max() <= _blow_up: {blown}" for f in F),
                *at("Z", "_at_state if i + 1 < _n else _monitors", checked),
                f"i, {args('Y')}{args('K')}X = i + 1, {args('Z')}{''.join(f'{k}, ' for k in ks)}x",
                *record]

    from_state = f"{args('Y')}{args('K')}X, i"
    returned = f"return i, ({args('Y')}), ({args('K')}), X"
    functions = {
        "_start": (f"{args('Y')}x, i", ["m = bad", *at("Y", "_at_state", True), *record,
                                        f"return ({''.join(f'{k}, ' for k in ks)})"]),
        "_fast": (from_state, ["try:", "    while i < _n:",
                               *("        " + line for line in step(False)),
                               "except FloatingPointError:", "    pass", returned]),
        "_checked": (from_state, [*step(True), returned]),
    }
    try:
        return lowering.compile(functions, **glob)(state.params)
    except KeyError:
        fail(at_state, state.x)
        raise


def _blown(x, *fields):
    """Raise the :class:`BlowUpError` of the largest norm of ``fields`` at ``x``."""
    norms = [float(np.abs(y).max()) for y in fields]
    raise BlowUpError(f"field norm {np.max(norms):.3e} at x = {x:.6g}")


def _check_fields(rhs, monitors, fields):
    """Raise an ExprError naming a field the flow reads or evolves but cannot have."""
    for name in sorted({fv.name for e in rhs.values() for fv in fieldvars(e)} - set(rhs)):
        raise ExprError(f"the right-hand side reads field {name!r}, which it does not evolve")
    for name in [name for name in rhs if name not in fields]:
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
    state.x = x_span[0]
    n_steps = step_count(x_span, dt)
    h = state.params.get("h")
    stability_ok = h is None or not dt > STABILITY_C * h * h + 1e-15

    rows = max(1, min(BLOCK_VALUES // state.n_sites, n_steps + 1))
    try:
        xs = np.empty(n_steps + 1)
        sums = {label: np.empty(n_steps + 1) for label in monitors}
        blocks = np.empty((len(monitors), rows, state.n_sites))
    except (MemoryError, ValueError, OverflowError) as err:
        # a tiny dt gives a count of hundreds of digits: print it in short form
        count = f"{n_steps:.3e}" if n_steps >= 10**12 else n_steps
        raise DenseOutputError(f"cannot allocate the dense output of {count} steps: "
                               f"{err}") from None

    start, fast, checked = _lowered_steps(rhs, monitors, state, n_steps, dt, blow_up,
                                          xs, sums, blocks)
    y, i, x = [state.fields[name] for name in rhs], 0, x_span[0]
    k = _quiet_overflow(start, *y, x, i)
    while i < n_steps:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            i, y, k, x = fast(*y, *k, x, i)
        if i < n_steps:
            # step i + 1 failed: taken again, it raises its error or is recorded
            i, y, k, x = _quiet_overflow(checked, *y, *k, x, i)
    state.fields.update(zip(rhs, y))
    state.x = x
    return Trajectory(xs, sums, state, stability_ok)


@np.errstate(over="ignore", invalid="ignore")
def monitor_conserved(traj):
    """Relative drift of each monitored lattice sum over the trajectory.

    A sum that is not finite gives a drift that is not finite, quietly.
    """
    return {label: float(np.max(np.abs(series - series[0]))) / max(1.0, abs(series[0]))
            for label, series in traj.monitor_sums.items()}
