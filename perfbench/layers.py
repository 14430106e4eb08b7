"""Layer tracing from outside the package.

:class:`LayerTracer` wraps the public functions of each layer of
``lattice_frames`` and rebinds every module attribute, registry entry and
class attribute that refers to them, so a call made through any imported
name goes through the wrapper.  Each wrapped call records one span (name,
start, end, parent) in flat arrays that stay in memory until the run ends,
plus the counts that the layer metrics need.  Self time is a span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from array import array

import numpy as np

PACKAGE = "lattice_frames"

# (module, attribute path, span name).  The suite functions are added from
# the suites.SUITES registry at install time, one span name per suite.
TARGETS = (
    ("sampling", "SamplePlan.assignments", "sampling.assignments"),
    ("sampling", "Guard.ok", "sampling.guard"),
    ("expr", "evaluate", "expr.evaluate[scalar]"),   # relabelled when it returns an array
    ("expr", "substitute", "expr.substitute"),
    ("expr", "shift", "expr.shift"),
    ("expr", "partial", "expr.partial"),
    ("expr", "total_derivative", "expr.total_derivative"),
    ("expr", "t_derivative", "expr.t_derivative"),
    ("actions", "transform", "actions.transform"),
    ("calculus", "linear_by_parts", "calculus.linear_by_parts"),
    ("calculus", "euler_lagrange", "calculus.euler_lagrange"),
    ("frames", "invariantize", "frames.invariantize"),
    ("noether", "noether_original", "noether.noether_original"),
    ("noether", "noether_invariant", "noether.noether_invariant"),
    ("noether", "equivariant_form", "noether.equivariant_form"),
    ("suites", "run_suite", "suites.run_suite"),
    ("flows", "integrate_lattice_flow", "flows.integrate_lattice_flow"),
    ("flows", "eval_on_lattice", "flows.eval_on_lattice"),
)
BUILD_SPANS = ("expr.substitute", "expr.shift", "expr.partial",
               "expr.total_derivative", "expr.t_derivative")
TIMED_CALLS = ("actions.transform", "calculus.linear_by_parts", "calculus.euler_lagrange",
               "frames.invariantize", "noether.noether_original",
               "noether.noether_invariant", "noether.equivariant_form")
EVAL_SCALAR = "expr.evaluate[scalar]"
EVAL_ARRAY = "expr.evaluate[array]"
ROOT = "cli.main"


def _expr_children(node, expr_type):
    """Sub-expressions of ``node``, read from its dataclass fields."""
    for f in dataclasses.fields(node):
        v = getattr(node, f.name)
        if isinstance(v, expr_type):
            yield v
        elif isinstance(v, tuple):
            yield from (t for t in v if isinstance(t, expr_type))


def _leaf_data(node, expr_type):
    out = []
    for f in dataclasses.fields(node):
        v = getattr(node, f.name)
        if not isinstance(v, expr_type) and not (
                isinstance(v, tuple) and any(isinstance(t, expr_type) for t in v)):
            out.append(v)
    return tuple(out)


def count_nodes(e, expr_type):
    """Number of id-distinct nodes reachable from ``e`` (what a DAG walk visits)."""
    seen = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(_expr_children(node, expr_type))
    return len(seen)


def structural_counts(e, expr_type):
    """(id-distinct nodes, structurally distinct nodes) of one expression."""
    canon = {}   # id(node) -> canonical number
    table = {}   # structural key -> canonical number
    stack = [(e, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in canon:
            continue
        kids = list(_expr_children(node, expr_type))
        if not expanded:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in canon)
            continue
        key = (type(node), _leaf_data(node, expr_type), tuple(canon[id(k)] for k in kids))
        canon[id(node)] = table.setdefault(key, len(table))
    return len(canon), len(table)


def _law_components(law):
    comps = law.components
    return ([comps.a0] if comps.a0 is not None else []) + list(comps.comps)


class LayerTracer:
    """Spans and counts for one traced command run; install, run, uninstall."""

    def __init__(self):
        self._name_ids = {}
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._patches = []
        self.counts = {}
        self._node_cache = {}      # id(expr) -> (expr, node count)
        self._point_sets = set()
        self._laws = []

    # -- spans ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name, fn, after=None):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(idx, args, out)
            return out

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def call(self, fn, *args):
        """Run ``fn(*args)`` as the root span of a traced command run."""
        return self._wrap(ROOT, fn)(*args)

    # -- per-layer counters ------------------------------------------

    def _after_evaluate(self, idx, args, out):
        e = args[0]
        hit = self._node_cache.get(id(e))
        if hit is None:
            hit = (e, count_nodes(e, self._expr_type))
            self._node_cache[id(e)] = hit
        if isinstance(out, np.ndarray) and out.ndim:
            self.span_name[idx] = self._array_id
            self._bump("expr.eval_array.calls")
            self._bump("expr.eval_array.node_points", hit[1] * out.size)
        else:
            self._bump("expr.eval_scalar.calls")
            self._bump("expr.eval_scalar.node_points", hit[1])

    def _after_guard(self, idx, args, out):
        self._bump("sampling.guard_evals")
        if not out:
            self._bump("sampling.rejections")

    def _after_assignments(self, idx, args, out):
        self._bump("sampling.calls")
        self._bump("sampling.points", len(out))
        key = tuple((tuple(a.values.items()), a.x, tuple(sorted(a.params.items())), a.base)
                    for a in out)
        if key in self._point_sets:
            self._bump("sampling.repeat_calls")
        self._point_sets.add(key)

    def _after_integrate(self, idx, args, out):
        self._bump("flows.rk4_steps", len(out.xs) - 1)

    def _after_invariant_laws(self, idx, args, out):
        self._laws.extend(out)

    # -- install / uninstall -----------------------------------------

    def install(self):
        """Rebind every reference to a target inside the package to its wrapper."""
        self._expr_type = importlib.import_module(PACKAGE + ".expr").Expr
        self._array_id = self._name_id(EVAL_ARRAY)
        hooks = {
            EVAL_SCALAR: self._after_evaluate,
            "sampling.guard": self._after_guard,
            "sampling.assignments": self._after_assignments,
            "flows.integrate_lattice_flow": self._after_integrate,
            "noether.noether_invariant": self._after_invariant_laws,
        }
        wrappers = {}
        for mod, path, span in TARGETS:
            obj = importlib.import_module(f"{PACKAGE}.{mod}")
            for part in path.split("."):
                obj = getattr(obj, part)
            wrappers[id(obj)] = (obj, self._wrap(span, obj, hooks.get(span)))
        suites = sys.modules[PACKAGE + ".suites"]
        self.suite_names = list(suites.SUITES)
        for name, fn in suites.SUITES.items():
            wrappers[id(fn)] = (fn, self._wrap("suites." + name, fn))
        self._rebind(wrappers)
        left = self._rebind({k: (fn, None) for k, (fn, _) in wrappers.items()}, dry=True)
        if left:
            self.uninstall()
            raise RuntimeError(f"unwrapped bindings remain: {left}")

    def _rebind(self, wrappers, dry=False):
        found = []

        def visit(key, value, setter):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                found.append(key)
                if not dry:
                    self._patches.append((setter, value))
                    setter(hit[1])

        for mname, mod in list(sys.modules.items()):
            if mname != PACKAGE and not mname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                visit(f"{mname}.{attr}", value,
                      functools.partial(setattr, mod, attr))
                if isinstance(value, dict):
                    for k, v in list(value.items()):
                        visit(f"{mname}.{attr}[{k!r}]", v,
                              functools.partial(value.__setitem__, k))
                elif isinstance(value, type) and value.__module__ == mname:
                    for cattr, cval in list(vars(value).items()):
                        visit(f"{mname}.{attr}.{cattr}", cval,
                              functools.partial(setattr, value, cattr))
        return found

    def uninstall(self):
        for setter, original in reversed(self._patches):
            setter(original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def spans(self):
        """Span arrays: name id, parent index, start and end (perf_counter s)."""
        return (np.frombuffer(self.span_name, dtype=np.int32),
                np.frombuffer(self.span_parent, dtype=np.int32),
                np.frombuffer(self.span_start, dtype=np.float64),
                np.frombuffer(self.span_end, dtype=np.float64))

    def times(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        name, parent, start, end = self.spans()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        excl = np.bincount(name, weights=dur - child, minlength=k)
        return {n: (int(calls[i]), float(incl[i]), float(excl[i]))
                for i, n in enumerate(self.names)}

    def direct_children(self, parent_name, child_names):
        """Number of spans named in ``child_names`` whose parent is ``parent_name``."""
        name, parent, _, _ = self.spans()
        want = [self._name_ids[c] for c in child_names if c in self._name_ids]
        if parent_name not in self._name_ids or not want:
            return 0
        pid = self._name_ids[parent_name]
        has_parent = parent >= 0
        mask = has_parent & np.isin(name, want)
        return int(np.sum(name[parent[mask]] == pid))

    def law_dup_share(self):
        """Structural-duplicate share of the nodes of the invariant-law components."""
        ids = distinct = 0
        for law in self._laws:
            for comp in _law_components(law):
                n_id, n_struct = structural_counts(comp, self._expr_type)
                ids += n_id
                distinct += n_struct
        return (ids - distinct) / ids if ids else 0.0
