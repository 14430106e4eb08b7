"""The benchmark's workloads: the CLI command each runs and its correctness gate.

Every workload is one ``lattice-frames`` command run in-process through
``cli.main`` with ``--json``, so the gate reads the same report a user gets.
A gate returns None when the output is correct and a reason otherwise.
Next to each workload: why it was chosen and what it is predicted to move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# The drift tolerances of suites.integration_checks, the suite's own bar.
DRIFT_TOLS = {"norm": 1e-8, "energy": 1e-6}


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list]       # benchmark seed -> CLI arguments
    gate: Callable[[dict], object]    # parsed --json output -> None or a reason
    work: Callable[[dict], int]       # parsed --json output -> units of work done
    work_name: str
    why: str
    moves: str


def gate_verify(report):
    checks = report.get("checks") or []
    if not checks:
        return "no checks reported"
    failed = [c["check_id"] for c in checks if c.get("status") != "pass"]
    if failed:
        return f"checks failed: {failed}"
    if not any(c["check_id"].startswith("negative-control") for c in checks):
        return "no negative control reported"
    if report.get("status") != "pass":
        return f"status {report.get('status')!r}"
    return None


def gate_integrate(report):
    drift = report.get("drift", {})
    for label, tol in DRIFT_TOLS.items():
        value = drift.get(label)
        if not isinstance(value, (int, float)) or not math.isfinite(value) or value > tol:
            return f"drift[{label}] = {value!r} is not within {tol:g}"
    return None


def rk4_steps(report):
    x0, x1 = report["x_span"]
    return int(round((x1 - x0) / report["dt"]))


def _verify(example):
    return lambda seed: ["verify", example, "--suite", "all", "--json", "--seed", str(seed)]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="toda-verify",
        argv=_verify("toda"),
        gate=gate_verify,
        work=lambda report: len(report["checks"]),
        work_name="checks",
        why="2-D difference example: 150 chart guards make admissible sampling "
            "and per-call scalar evaluate (about 5 nodes a call) dominate",
        moves="sampling.* and expr.eval_scalar.* move run_s and work_per_s (checks/s); "
              "flows.* stay at zero",
    ),
    Workload(
        name="ex81-verify",
        argv=_verify("ex81"),
        gate=gate_verify,
        work=lambda report: len(report["checks"]),
        work_name="checks",
        why="differential-difference path (x, total derivatives, projectable "
            "frame) with only 6 guards; the largest symbolic-construction share",
        moves="expr.eval_scalar.*, actions/calculus/frames/noether calls move run_s; "
              "guard batching should barely move it",
    ),
    Workload(
        name="nls-integrate",
        argv=lambda seed: ["integrate", "nls", "--json"],
        gate=gate_integrate,
        work=rk4_steps,
        work_name="rk4_steps",
        why="RK4 flow at the CLI defaults: evaluate on whole arrays, never samples; "
            "catches a scalar-path change that hurts arrays",
        moves="expr.eval_array.* and flows.* move run_s and work_per_s (RK4 steps/s); "
              "sampling.* stay at zero",
    ),
)}
