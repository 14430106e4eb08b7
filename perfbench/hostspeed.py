"""Host-speed probe: a fixed piece of CPU work timed between command runs.

The benchmark runs on shared virtual machines whose speed drifts by 10-30%
over minutes, for the probe and the package alike.  The probe is the same
kind of work as the package's hot paths: a pure-Python walk over a small
expression tree (dict lookups, isinstance dispatch, float arithmetic) and
small-array numpy arithmetic with ``np.roll``, about half each.  It never
imports the package, so no change to the package can change its time.
Timings are rescaled to a host on which one probe takes REFERENCE_S
seconds; on such a host the rescaled time is the wall time.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.05

_TREE = ("+", ("*", "a", "b"), ("/", ("+", "c", 1.5), ("-", "d", "a")))


def _walk(node, env):
    if isinstance(node, str):
        return env[node]
    if isinstance(node, float):
        return node
    op, x, y = node
    x, y = _walk(x, env), _walk(y, env)
    if op == "+":
        return x + y
    if op == "*":
        return x * y
    if op == "/":
        return x / y
    return x - y


def probe():
    """Seconds taken by the fixed probe work, run once."""
    t0 = time.perf_counter()
    env = {"a": 1.25, "b": -0.75, "c": 0.5, "d": 3.0}
    for i in range(6000):
        env["a"] = 1.0 + (i % 7) * 0.1
        _walk(_TREE, env)
    arr = np.linspace(0.0, 1.0, 16)
    for _ in range(1500):
        arr = 0.5 * (np.roll(arr, 1) + np.roll(arr, -1)) + 1e-3 * arr * arr
    return time.perf_counter() - t0
