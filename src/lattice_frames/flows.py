"""Time integration of differential-difference flows on a periodic lattice.

The right-hand sides and the monitored densities are expressions over the
problem's fields (derivative order 0, shifts only); a field shifted by k is
read at the sites (n + k) mod N, through index arrays built once per
integration.

:func:`integrate_lattice_flow` lowers the right-hand side and the monitors
together by :class:`~lattice_frames.expr.Lowering` and binds the
parameters, once per integration, so nodes of constants and parameters
alone, such as ``h^2``, are computed and tested once.  One function runs
whole classical fourth-order Runge-Kutta steps as numpy code (the three
stages, the combination, the norm check, and the monitors and the
right-hand side at the new state, the first stage of the next step), in
one numpy error state that raises on overflow, division by zero and
invalid values; its numbers are 0-d float64 arrays, and ``x`` a Python
float.  The lines of a stage are printed once and run in a loop over the
stages' factors, sources and destinations.

A step computes in place.  The evolved fields are the rows of one ``(F,
N)`` array, as is each right-hand side, so a stage input ``Y + f K``, the
combination and the norm test are each one call per operation for all the
fields, and one ``take`` gathers every read of them, shifted or not.
Every node whose value is an array over the sites writes into a buffer of
its own through the ufunc's positional ``out``, and the right-hand side of
a field straight into its row of the stage's destination; only a mask
test of a node that can be singular at a site makes a new array.  All
buffers are allocated once per integration.  A step writes the state and
right-hand side it ends at into the other of two arrays each, so a step
that stops leaves the state it started from whole.  The monitor densities
go to the rows of a block of at most ``BLOCK_VALUES`` values, and one
``np.sum(axis=1)`` per monitor, with overflow quiet, sums them when the
block fills and at the last state, each row bit for bit as its own
``sum()``.

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

    The evolved fields of a state, and each right-hand side, are the rows
    of an ``(F, N)`` array, in the order of ``rhs``.  ``start(x, 0)``
    records the initial state and returns it and its right-hand side
    ``K``.  From state ``i``, ``fast(Y, K, X, i)`` takes steps while they
    succeed, and ``checked`` takes one or raises its error; each returns
    ``(i, Y, K, X)`` at its last state.  All of them compute in buffers
    allocated here: a state and its ``K`` are one of two each, and a step
    writes the other two, so the arrays of the state it started from are
    whole when it stops.
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

    # the two states and right-hand sides, the stage input, the stages' right-hand
    # sides B, C and D, and the combination's two scratch arrays
    Ya, Yb, Ka, Kb, A, B, C, D, S, T = np.empty((10, len(rhs), n_sites))
    for f, name in enumerate(rhs):
        Ya[f] = state.fields[name]
    # the values of V: a read of an evolved field is a row of G, which one take
    # fills from the input fields; a field the flow only reads is read once
    sites, position = np.arange(n_sites), {name: f for f, name in enumerate(rhs)}
    evolved = [(position[name], k) for name, k in reads if name in rhs]
    G = np.empty((len(evolved), n_sites))
    gather = np.array([f * n_sites + (index[k] if k else sites) for f, k in evolved],
                      dtype=np.intp)
    values, g = [], iter(G)
    for name, k in reads:
        values.append(next(g) if name in rhs else
                      state.fields[name][index[k]] if k else state.fields[name])
    ks, densities = lowering.results[:len(rhs)], lowering.results[len(rhs):]
    # a right-hand side that has a buffer is computed straight into the destination
    # row of the first field it is the right-hand side of; any other is copied there
    owner = {k: f for f, k in reversed(list(enumerate(ks))) if k in lowering.buffers}
    targets = "(" + "".join(f"{k}, " if owner.get(k) == f else f"_R{f}, "
                            for f, k in enumerate(ks)) + ")"
    copies = [f"_R{f}[...] = {k}" for f, k in enumerate(ks) if owner.get(k) != f]
    nodes = [name for name in lowering.buffers if name not in owner]
    buffers = np.empty((len(nodes), n_sites))

    at_state = [*monitors.values(), *rhs.values()]     # as the stage-by-stage loop has them
    # a stage factor is a Python float for x and a 0-d array, suffixed _a, for the fields
    half_a = _array(0.5 * dt)
    glob = {"alt": (-1.0) ** sites, "_xs": xs, "_n": n_steps, "_rows": rows,
            "_last": rows - 1, "_flush": flush, "_fail": fail, "_blown": _blown,
            "_rhs": list(rhs.values()), "_monitors": list(monitors.values()),
            "_at_state": at_state, "_half": 0.5 * dt, "_half_a": half_a, "_dt": dt,
            "_sixth_a": _array(dt / 6.0), "_two_a": _array(2.0), "_x0": state.x,
            "_blow_up": blow_up, "_take": np.ndarray.take, "_max": np.maximum.reduce,
            "_gather": gather, "_V": tuple(values), "_nodes": tuple(buffers),
            "_Ya": Ya, "_Yb": Yb, "_Ka": Ka, "_Kb": Kb, "_Kat": tuple(Ka), "_Kbt": tuple(Kb),
            "_A": A, "_B": B, "_C": C, "_D": D, "_S": S, "_T": T, "_G": G, "_Bt": tuple(B),
            # the second and third stages: x and field factors, source, destination rows
            "_stages": ((0.5 * dt, half_a, B, tuple(C)), (dt, _array(dt), C, tuple(D))),
            **{f"_d{j}": block for j, block in enumerate(blocks)}}

    def singular(exprs, fields, checked):
        # where the fast step stops, the checked one evaluates exprs: evaluate raises
        stop = f"_fail({exprs}, x, *{fields})" if checked else "break"
        return f"if m is not False and _any(m): {stop}"

    def at(fields, destination, end=None, checked=True):
        # the nodes at the fields' values, the right-hand side into the destination rows
        take = [f"_take({fields}, _gather, None, _G, 'clip')"] if evolved else []
        return [*take, f"{targets} = {destination}",
                *lowering.lines(end=end, checked=checked, in_place=True), *copies]

    record = ["_xs[i] = x", "r = i % _rows", *(f"_d{j}[r] = {d}" for j, d in enumerate(densities)),
              "if r == _last or i == _n: _flush(i)"]

    def step(checked):
        # from state i to i + 1; the right-hand side at the last state may be singular
        blown = "_blown(x, *Z)" if checked else "break"
        # the right-hand side at Y + factor * source, X + dx, into the destination rows, as
        # the stage-by-stage loop computes it; the fast step tests its mask once, at the new state
        stage = ["x = X + dx", "_add(Y, _multiply(factor, source, _A), _A)",
                 *at("_A", "destination", lowering.first_end, checked),
                 *([singular("_rhs", "_A", True)] if checked else [])]
        return ["m = bad", "Z = _Yb if Y is _Ya else _Ya",
                "Kn, Knt = (_Kb, _Kbt) if K is _Ka else (_Ka, _Kat)",
                "for dx, factor, source, destination in ((_half, _half_a, K, _Bt), *_stages):",
                *("    " + line for line in stage),
                "_add(K, _multiply(_two_a, _B, _T), _S)",
                "_add(_S, _multiply(_two_a, _C, _T), _S)",
                "_add(_S, _D, _S)",
                "_add(Y, _multiply(_sixth_a, _S, _S), Z)",
                "x = _x0 + (i + 1) * _dt",
                *([f"if not _max(_abs(Z, _S), None) <= _blow_up: {blown}"] if rhs else []),
                *at("Z", "Knt", checked=checked),
                singular("_at_state if i + 1 < _n else _monitors", "Z", checked),
                "i, Y, K, X = i + 1, Z, Kn, x", *record]

    prologue = ["V = _V", f"({''.join(name + ', ' for name in nodes)}) = _nodes"]
    returned = "return i, Y, K, X"
    functions = {
        "_start": ("x, i", [*prologue, "m = bad", *at("_Ya", "_Kat"),
                            singular("_at_state", "_Ya", True), *record, "return _Ya, _Ka"]),
        "_fast": ("Y, K, X, i", [*prologue, "try:", "    while i < _n:",
                                 *("        " + line for line in step(False)),
                                 "except FloatingPointError:", "    pass", returned]),
        "_checked": ("Y, K, X, i", [*prologue, *step(True), returned]),
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
    i, x = 0, x_span[0]
    y, k = _quiet_overflow(start, x, i)
    while i < n_steps:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            i, y, k, x = fast(y, k, x, i)
        if i < n_steps:
            # step i + 1 failed: taken again, it raises its error or is recorded
            i, y, k, x = _quiet_overflow(checked, y, k, x, i)
    # the final fields own their values: y is a step buffer
    state.fields.update(zip(rhs, [row.copy() for row in y]))
    state.x = x
    return Trajectory(xs, sums, state, stability_ok)


@np.errstate(over="ignore", invalid="ignore")
def monitor_conserved(traj):
    """Relative drift of each monitored lattice sum over the trajectory.

    A sum that is not finite gives a drift that is not finite, quietly.
    """
    return {label: float(np.max(np.abs(series - series[0]))) / max(1.0, abs(series[0]))
            for label, series in traj.monitor_sums.items()}
