"""Time integration of differential-difference flows on a periodic lattice.

The right-hand sides and the monitored densities are expressions over the
problem's fields (derivative order 0, shifts only); a field shifted by k is
read at the sites (n + k) mod N, through index arrays built once per
integration.

:func:`integrate_lattice_flow` lowers the right-hand side and the monitors
together by :class:`~lattice_frames.expr.Lowering`, the monitors' lines
apart, and binds the parameters, once per integration, so nodes of
constants and parameters alone, such as ``h^2``, are computed and tested
once.  One function runs whole classical fourth-order Runge-Kutta steps as
numpy code (the three stages, the combination, and the right-hand side at
the new state, the first stage of the next step), in one numpy error state
that raises on overflow, division by zero and invalid values; its numbers
are 0-d float64 arrays, and ``x`` a Python float.  The lines of a stage are
printed once and run in a loop over the stages' factors, sources and
destinations.

A step computes in place.  The evolved fields are the rows of an ``(F,
N)`` array, as is each right-hand side, so a stage input ``Y + f K`` and
the combination are each one call per operation for all the fields, and
one ``take`` gathers every read of them, shifted or not.  Every node whose
value is an array over the sites writes into a buffer of its own through
the ufunc's positional ``out``, and the right-hand side of a field straight
into its row of the stage's destination; a mask test writes into two
boolean buffers.  Like nodes of the right-hand sides, such as u^2 and v^2 of
the method-of-lines NLS, are computed as a pack, in one call over the rows
of one buffer, a row per node (see :class:`~lattice_frames.expr.Lowering`):
an operand that differs between them is a window, reads of the fields
gathered into consecutive rows by the same ``take``, or rows of a pack
computed before.  All buffers are allocated once per integration.  State
``i`` is row ``i % rows`` of a block of states, where ``rows`` is
``BLOCK_VALUES // N``, at least two and at most the number of states, and a
step writes the next row, and the other of two right-hand-side arrays, so a
step that stops leaves the state it started from whole.

The step neither computes the monitors nor tests the field norm.  An audit
does both once per block of states, when the block fills, at the last state
and where a fast step stops, quietly and with the tests of powers that
overflow on: one ``take`` gathers the block's reads, the monitors' lines
compute each density over all the block's rows at once, into a block of
its own, their nodes sharing buffers where their values are not needed at
once, one ``np.sum(axis=1)`` per monitor sums them, each row bit for bit
as its own ``sum()``, and the largest and smallest value of each state but
the initial one give its norm.  The first state whose norm fails raises
:class:`BlowUpError`, and the first at which a monitor is singular, if none
failed before it, raises :func:`~lattice_frames.expr.evaluate`'s error for
the monitors there.

A step that raises, or at which a node is singular, is taken again, as is
the initial state, by a function of the same lines with overflow quiet and
the tests of powers that overflow on, after the audit of the states before
it.  Where a stage is singular, it evaluates the right-hand side there by
:func:`~lattice_frames.expr.evaluate`, which raises its error, or that of a
parameter without a value; where the field norm at the new state fails, it
raises :class:`BlowUpError`; and where the new state is singular, it
evaluates the monitors and then the right-hand side there (not at the last
state), in the order of the stage-by-stage loop.  Otherwise the fast steps
resume, and a value that overflowed fails the norm test or shows in the
drift, with no numpy warning.
"""

from __future__ import annotations

import math
import re
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
# a block of states has this many sites over all its rows, or two rows
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
    of an ``(F, N)`` array, in the order of ``rhs``; state ``i`` is row ``i
    % rows`` of a ``(rows, F, N)`` block.  ``start(x, 0)`` records the
    initial state and returns it and its right-hand side ``K``.  From state
    ``i``, ``fast(Y, K, X, i)`` takes steps while they succeed, and
    ``checked`` takes one or raises its error; each returns ``(i, Y, K,
    X)`` at its last state.  All of them compute in buffers allocated here:
    a step writes the next row of the block and the other of two ``K``
    arrays, so the arrays of the state it started from are whole when it
    stops.  Each pack of :attr:`Lowering.in_place` has a ``(P, N)`` buffer,
    whose rows its members' names are bound to, and a view of some of them
    is a slice; the reads of each window are gathered after those of
    ``V``, as a slice of ``G``, so a stage still makes one ``take``.  The
    block's states are audited when it fills, at the last state, and when
    ``fast`` stops.
    """
    lowering = Lowering([*rhs.values(), *monitors.values()], n_first=len(rhs))
    n_sites, rows, first_end = state.n_sites, blocks.shape[1], lowering.first_end
    reads, index = _reads(lowering.variables, n_sites)

    def fail(exprs, x, *ys):
        _on_lattice(exprs, LatticeState({**state.fields, **dict(zip(rhs, ys))}, x, state.params))

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def audit(i):
        # the states of the block up to state i: the lattice sums of their monitor
        # densities, which may overflow, and the first state that blew up or at which
        # a monitor is singular raises its error
        first, n = i - i % rows, i % rows + 1
        column[:n, 0] = xs[first:i + 1]
        m = densities()
        for block, series in zip(blocks, sums.values()):
            series[first:i + 1] = np.sum(block[:n], axis=1)
        faults = np.logical_or.reduce(np.broadcast_to(m, (rows, n_sites))[:n], axis=1)
        if rhs:
            # each state's norm, max |y|, from its largest and smallest values
            states = W[:n].reshape(n, -1)
            blown = ~(np.maximum(states.max(axis=1), -states.min(axis=1)) <= blow_up)
            blown[0] &= first > 0      # the initial state's norm is not tested
            faults |= blown
        for j in np.flatnonzero(faults):
            x = float(xs[first + j])
            if rhs and blown[j]:
                _blown(x, *W[j])
            fail(list(monitors.values()), x, *W[j])

    # the block of states, the other right-hand side, the stage input, the stages'
    # right-hand sides B, C and D, and the combination's two scratch arrays
    W = np.empty((rows, len(rhs), n_sites))
    Ka, Kb, A, B, C, D, S, T = np.empty((8, len(rhs), n_sites))
    for f, name in enumerate(rhs):
        W[0, f] = state.fields[name]
    # the values of V: a read of an evolved field is a row of G, which one take
    # fills from the input fields, as are the rows of each window after them; a field
    # the flow only reads is read once.  The audit's V reads an evolved field that a
    # monitor reads from a row of AG, over the block's rows and sites
    placed = lowering.in_place
    sites, position = np.arange(n_sites), {name: f for f, name in enumerate(rhs)}
    evolved = {fv: position[name] * n_sites + (index[k] if k else sites)
               for fv, (name, k) in zip(lowering.variables, reads) if name in rhs}
    audited = set(evolved) & set().union(*map(fieldvars, monitors.values()))
    windowed = [lowering.variables[s] for slots in placed.windows.values() for s in slots]
    gather = np.array([*evolved.values(), *map(evolved.get, windowed)],
                      dtype=np.intp).reshape(len(evolved) + len(windowed), n_sites)
    G, AG = np.empty(gather.shape), np.empty((len(audited), rows, n_sites))
    audit_gather = (gather[:len(evolved)][[fv in audited for fv in evolved]][:, None]
                    + W[0].size * np.arange(rows)[:, None])
    windows, end = {}, len(evolved)
    for name, slots in placed.windows.items():
        windows[name], end = G[end:end + len(slots)], end + len(slots)

    def inputs(gathered, wanted):
        # each read of an evolved field that is wanted is the next row of gathered
        rows_of = iter(gathered)
        return tuple((next(rows_of) if fv in wanted else None) if fv in evolved else
                     state.fields[name][index[k]] if k else state.fields[name]
                     for fv, (name, k) in zip(lowering.variables, reads))

    column = np.empty((rows, 1))   # the x of each of the block's states
    ks, ds = lowering.results[:len(rhs)], lowering.results[len(rhs):]
    # a right-hand side that has a buffer is computed straight into the destination
    # row of the first field it is the right-hand side of, and a monitor density into
    # its block; any other is copied there
    step_buffers = [name for name, j in placed.buffers.items() if j < first_end]
    audit_buffers = [name for name, j in placed.buffers.items() if j >= first_end]
    owner = {k: f for f, k in reversed(list(enumerate(ks))) if k in step_buffers}
    targets = "(" + "".join(f"{k}, " if owner.get(k) == f else f"_R{f}, "
                            for f, k in enumerate(ks)) + ")"
    copies = [f"_R{f}[...] = {k}" for f, k in enumerate(ks) if owner.get(k) != f]
    # the step's other nodes each have a buffer, and each pack a row per member, which
    # its member's name is bound to; a view is some of a pack's rows
    nodes = [name for name in step_buffers if name not in owner]
    packs = {name: np.empty((len(members), n_sites)) for name, members in placed.packs.items()}
    bound = {**dict(zip(nodes, np.empty((len(nodes), n_sites)))), **packs, **windows,
             **{m: packs[p][i] for p, ms in placed.packs.items() for i, m in enumerate(ms)},
             **{name: packs[p][a:b] for name, (p, a, b) in placed.views.items()}}
    block_of = {d: j for j, d in reversed(list(enumerate(ds))) if d in audit_buffers}
    audit_nodes = [name for name in audit_buffers if name not in block_of]
    densities_at = [*lowering.lines(start=first_end, checked=True, in_place=True),
                    *(f"_d{j}[...] = {d}" for j, d in enumerate(ds) if block_of.get(d) != j)]
    # the audit's nodes share buffers, each over the block's rows and sites, where their
    # values are not needed at once
    slots = _pooled(densities_at, audit_nodes)
    pool = np.empty((len(set(slots.values())), rows, n_sites))

    at_state = [*monitors.values(), *rhs.values()]     # as the stage-by-stage loop has them
    # a stage factor is a Python float for x and a 0-d array, suffixed _a, for the fields
    half_a = _array(0.5 * dt)
    rows_of = tuple(W)
    glob = {"alt": (-1.0) ** sites, "_xs": xs, "_n": n_steps, "_rows": rows,
            "_last": rows - 1, "_audit": audit, "_fail": fail, "_blown": _blown,
            "_rhs": list(rhs.values()), "_monitors": list(monitors.values()),
            "_at_state": at_state, "_half": 0.5 * dt, "_half_a": half_a, "_dt": dt,
            "_sixth_a": _array(dt / 6.0), "_two_a": _array(2.0), "_x0": state.x,
            "_blow_up": blow_up, "_take": np.ndarray.take, "_max": np.maximum.reduce,
            "_gather": gather, "_V": inputs(G, evolved), "_G": G,
            "_nodes": tuple(bound.values()),
            "_masks": tuple(np.empty((2, n_sites), dtype=bool)),
            "_W": W, "_Y0": rows_of[0], "_next": rows_of[1:] + rows_of[:1],
            "_Ka": Ka, "_Kb": Kb, "_Kat": tuple(Ka), "_Kbt": tuple(Kb),
            "_A": A, "_B": B, "_C": C, "_D": D, "_S": S, "_T": T, "_Bt": tuple(B),
            # the second and third stages: x and field factors, source, destination rows
            "_stages": ((0.5 * dt, half_a, B, tuple(C)), (dt, _array(dt), C, tuple(D))),
            "_audit_gather": audit_gather, "_AG": AG, "_AV": inputs(AG, audited),
            "_audit_nodes": tuple(pool[slots[name]] for name in audit_nodes),
            "_audit_masks": tuple(np.empty((2, rows, n_sites), dtype=bool)),
            "_blocks": tuple(blocks[j] for j in block_of.values()), "_column": column,
            **{f"_d{j}": block for j, block in enumerate(blocks)}}

    def singular(exprs, fields, checked):
        # where the fast step stops, the checked one evaluates exprs: evaluate raises
        stop = f"_fail({exprs}, x, *{fields})" if checked else "break"
        return f"if m is not False and _any(m): {stop}"

    def at(fields, destination, checked=True):
        # the right-hand side at the fields' values, into the destination rows
        take = [f"_take({fields}, _gather, None, _G, 'clip')"] if evolved else []
        return [*take, f"{targets} = {destination}",
                *lowering.lines(end=first_end, checked=checked, in_place=True), *copies]

    def step(checked):
        # from state i to i + 1, into the next row of the block; the right-hand side
        # at the last state may be singular
        stage = ["x = X + dx", "_add(Y, _multiply(factor, source, _A), _A)",
                 *at("_A", "destination", checked),
                 *([singular("_rhs", "_A", True)] if checked else [])]
        # the fast step tests its mask once, at the new state, and leaves the norm
        # and the monitors to the audit
        norm = "if not _max(_abs(Z, _S), None) <= _blow_up: _blown(x, *Z)"
        return ["m = bad", "Z = _next[r]",
                "Kn, Knt = (_Kb, _Kbt) if K is _Ka else (_Ka, _Kat)",
                "for dx, factor, source, destination in ((_half, _half_a, K, _Bt), *_stages):",
                *("    " + line for line in stage),
                "_add(K, _multiply(_two_a, _B, _T), _S)",
                "_add(_S, _multiply(_two_a, _C, _T), _S)",
                "_add(_S, _D, _S)",
                "_add(Y, _multiply(_sixth_a, _S, _S), Z)",
                "x = _x0 + (i + 1) * _dt", *([norm] if checked and rhs else []),
                *at("Z", "Knt", checked),
                singular("_at_state if i + 1 < _n else _monitors", "Z", checked),
                "i, Y, K, X = i + 1, Z, Kn, x", "_xs[i] = x", "r = i % _rows",
                "if r == _last or i == _n: _audit(i)"]

    def names(nodes):
        return f"({''.join(name + ', ' for name in nodes)})"

    prologue = ["V = _V", f"{names(bound)} = _nodes", "mt, mm = _masks"]
    returned = "return i, Y, K, X"
    functions = {
        "_start": ("x, i", [*prologue, "m = bad", *at("_Y0", "_Kat"),
                            singular("_at_state", "_Y0", True), "_xs[i] = x", "return _Y0, _Ka"]),
        "_fast": ("Y, K, X, i", [*prologue, "r = i % _rows", "try:", "    while i < _n:",
                                 *("        " + line for line in step(False)),
                                 "except FloatingPointError:", "    pass",
                                 # where a step stops, the states before it are audited first
                                 "if i < _n and r != _last: _audit(i)", returned]),
        "_checked": ("Y, K, X, i", [*prologue, "r = i % _rows", *step(True), returned]),
        # the monitor densities of every row of the block, into their blocks, and their mask
        "_densities": ("", ["V = _AV", f"{names(audit_nodes)} = _audit_nodes",
                            f"{names(block_of)} = _blocks",
                            "mt, mm = _audit_masks", "x = _column", "m = bad",
                            *(["_take(_W, _audit_gather, None, _AG, 'clip')"] if audited else []),
                            *densities_at, "return m"]),
    }
    try:
        start, fast, checked, densities = lowering.compile(functions, **glob)(state.params)
    except KeyError:
        fail(at_state, state.x)
        raise
    return start, fast, checked


def _pooled(lines, names):
    """A buffer slot for each of ``names``, as few as the straight-line ``lines`` allow.

    A name takes a free slot at the first line that names it, and gives it
    back after the last line that reads it, or a name that copies it (``a =
    b``), so two values that are both to be read never share a slot, and a
    line never writes a slot it reads.
    """
    copied, last = {}, {}
    for j, line in enumerate(lines):
        if copy := re.fullmatch(r"(t\d+) = (t\d+)", line):
            copied[copy[1]] = copied.get(copy[2], copy[2])
        for name in re.findall(r"\bt\d+\b", line):
            last[copied.get(name, name)] = j
    slots, free = {}, []
    for j, line in enumerate(lines):
        for name in re.findall(r"\bt\d+\b", line):
            if name in names and name not in slots:
                slots[name] = free.pop() if free else len(set(slots.values()))
        free += [slots[name] for name in slots if last[name] == j]
    return slots


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

    # at least two rows, so that a step leaves the state it started from whole
    rows = max(2, min(BLOCK_VALUES // state.n_sites, n_steps + 1))
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
