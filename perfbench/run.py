#!/usr/bin/env python3
"""Benchmark of the lattice-frames verifier, end to end and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload toda-verify --seed 7 --seconds 25 --trace 0

``--trace 0`` times the workload's CLI command in-process after a warm-up
run, for ``--seconds`` seconds, and reports the end-to-end metrics of
BENCHMARK.json.  Each time is rescaled to a reference host speed by the
probe of :mod:`hostspeed`, timed in the same process right next to it; the
raw wall times are in the table.  ``--trace 1`` alternates untraced runs with runs traced by
:mod:`layers` and reports the per-layer metrics.  Every run is checked by
the workload's correctness gate and against the warm-up run's output, which
must be byte-identical; a run that fails is counted and never timed.  The
last line of standard output is one JSON object; the lines before it are a
readable table.  Spans of the last traced run and a record of each result
with its environment are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hostspeed
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SPAWNS = 7          # timed fresh-interpreter imports per run (median reported)
PROBE_SHARE = 0.05        # host-speed probe time next to each run, as a share of the run
MIN_SAMPLES = 3           # timed runs even when --seconds is shorter
MIN_TRACED = 2            # traced runs, so that their counts can be compared
CHILD_TIMEOUT_S = 60

SETUP_CHILD = """
import json, statistics, sys, time
t0 = time.perf_counter()
import lattice_frames.cli
from lattice_frames.catalog import EXAMPLES, get_example
for name in list(EXAMPLES):
    get_example(name)
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hostspeed
probe = statistics.median(hostspeed.probe() for _ in range(3))
print(json.dumps({"setup_s": t1 - t0, "probe_s": probe, "file": lattice_frames.cli.__file__}))
"""


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, broken import)."""


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    code: object
    stdout: str
    stderr: str


def _inside(path, parent):
    try:
        Path(path).resolve().relative_to(parent.resolve())
        return True
    except ValueError:
        return False


def environment():
    """What a result depends on besides the code: recorded with every result."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=CHILD_TIMEOUT_S).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        digest.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
    }


def measure_setup(n):
    """Seconds from a fresh interpreter to a ready catalog, ``n`` times (after one warm spawn).

    Returns the times and the host-speed probe each child timed after its import.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples, probes = [], []
    for k in range(n + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(HERE)], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"importing lattice_frames.cli failed:\n{proc.stderr}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        if not _inside(info["file"], SRC):
            raise BenchError(f"lattice_frames imported from {info['file']}, not from {SRC}")
        if k:
            samples.append(info["setup_s"])
            probes.append(info["probe_s"])
    return samples, probes


def import_cli():
    sys.path.insert(0, str(SRC))
    import lattice_frames.cli as cli
    if not _inside(cli.__file__, SRC):
        raise BenchError(f"lattice_frames imported from {cli.__file__}, not from {SRC}")
    return cli


def run_command(cli, argv, tracer=None):
    """One in-process CLI run; the wall time covers ``cli.main`` only."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                cli.main(argv)
            else:
                tracer.call(cli.main, argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # a traceback is a failed run, reported below
            code = None
            traceback.print_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return Run(wall, cpu, code, out.getvalue(), err.getvalue())


class Gate:
    """Counts runs and decides whether each is correct and may be timed."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = None
        self.attempted = 0
        self.failures = []

    def check(self, run):
        """Units of work done when ``run`` is correct, else None."""
        self.attempted += 1
        reason, work = self._reason(run)
        if reason is not None:
            self.failures.append(reason)
            print(f"failed run: {reason}", file=sys.stderr)
            return None
        return work

    def _reason(self, run):
        try:
            report = json.loads(run.stdout)
        except ValueError:
            report = None
        verdict = self.workload.gate(report) if isinstance(report, dict) else "no JSON report"
        if run.code != 0:
            return f"exit code {run.code} ({verdict}): {run.stderr.strip()[-2000:]}", None
        if verdict is not None:
            return verdict, None
        if self.reference is None:
            self.reference = run.stdout
        elif run.stdout != self.reference:
            return "output differs from the first run at the same seed", None
        return None, self.workload.work(report)


def probe_block(k):
    """Mean time of ``k`` host-speed probes run back to back."""
    return sum(hostspeed.probe() for _ in range(k)) / k


def timed_runs(cli, argv, gate, seconds):
    """Warm up, then time correct runs until ``seconds`` have passed.

    Returns per correct run: wall seconds, work per second, CPU seconds and
    the host-speed probe, the mean of the probe blocks just before and just
    after the run.  A block takes about PROBE_SHARE of a run.
    """
    warm = run_command(cli, argv)
    gate.check(warm)
    k = max(1, round(PROBE_SHARE * warm.wall_s / hostspeed.REFERENCE_S))
    walls, rates, cpus, probes = [], [], [], []
    gc.collect()
    before = probe_block(k)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or (len(walls) < MIN_SAMPLES and not gate.failures):
        run = run_command(cli, argv)
        gc.collect()
        after = probe_block(k)
        work = gate.check(run)
        if work is not None:
            walls.append(run.wall_s)
            rates.append(work / run.wall_s)
            cpus.append(run.cpu_s)
            probes.append((before + after) / 2)
        before = after
    return walls, rates, cpus, probes


def tail(samples):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    s = sorted(samples)
    k = len(s) - 10
    if k < 1:
        return None
    return 100.0 * k / len(s), s[k - 1]


def layer_metrics(tracer, wall_s):
    """The per-layer table of one traced run: name -> (value, unit)."""
    t = tracer.times()
    c = tracer.counts

    def incl(name):
        return t.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return t.get(name, (0, 0.0, 0.0))[2]

    def calls(name):
        return t.get(name, (0, 0.0, 0.0))[0]

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    points = c.get("sampling.points", 0)
    candidates = points + c.get("sampling.rejections", 0)
    steps = c.get("flows.rk4_steps", 0)
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)
        if unit == "s":  # "x.s" -> "x.pct", "x_s" -> "x_pct": share of the traced run
            m[name[:-1] + "pct"] = (ratio(value, wall_s, 100.0), "%")

    put("sampling.calls", c.get("sampling.calls", 0), "count")
    put("sampling.points", points, "count")
    put("sampling.candidates", candidates, "count")
    put("sampling.accept_ratio", ratio(points, candidates), "ratio")
    put("sampling.repeat_share", ratio(c.get("sampling.repeat_calls", 0),
                                       c.get("sampling.calls", 0)), "ratio")
    put("sampling.guard_evals", c.get("sampling.guard_evals", 0), "count")
    put("sampling.guard_evals_per_point", ratio(c.get("sampling.guard_evals", 0), points),
        "count")
    put("sampling.guard_s", incl("sampling.guard"), "s")
    put("sampling.self_s", own("sampling.assignments"), "s")
    put("sampling.us_per_point", ratio(incl("sampling.assignments"), points, 1e6), "us")
    for kind, span in (("scalar", layers.EVAL_SCALAR), ("array", layers.EVAL_ARRAY)):
        node_points = c.get(f"expr.eval_{kind}.node_points", 0)
        put(f"expr.eval_{kind}.calls", calls(span), "count")
        put(f"expr.eval_{kind}.node_points", node_points, "count")
        put(f"expr.eval_{kind}.s", incl(span), "s")
        put(f"expr.eval_{kind}.ns_per_node_point", ratio(incl(span), node_points, 1e9), "ns")
    put("expr.build.s", sum(own(n) for n in layers.BUILD_SPANS), "s")
    put("expr.law_dup_share", tracer.law_dup_share(), "ratio")
    for name in layers.TIMED_CALLS:
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.s", incl(name), "s")
    for name in tracer.suite_names:
        put(f"suites.{name}.s", incl(f"suites.{name}"), "s")
    put("flows.rk4_steps", steps, "count")
    put("flows.rhs_evals", tracer.direct_children("flows.integrate_lattice_flow",
                                                  [layers.EVAL_ARRAY, layers.EVAL_SCALAR]),
        "count")
    put("flows.self_s", own("flows.integrate_lattice_flow"), "s")
    put("flows.us_per_step", ratio(incl("flows.integrate_lattice_flow"), steps, 1e6), "us")
    return m


def traced_runs(cli, argv, gate, seconds):
    """Warm up, then alternate untraced and traced runs; per-layer medians."""
    gate.check(run_command(cli, argv))
    plain, traced, tables = [], [], []
    tracer = None
    deadline = time.perf_counter() + seconds
    pair = 0
    while time.perf_counter() < deadline or (len(traced) < MIN_TRACED and not gate.failures):
        for is_traced in ((False, True) if pair % 2 == 0 else (True, False)):
            gc.collect()
            if is_traced:
                tracer = layers.LayerTracer()
                tracer.install()
                try:
                    run = run_command(cli, argv, tracer)
                finally:
                    tracer.uninstall()
                if gate.check(run) is not None:
                    traced.append(run.wall_s)
                    tables.append(layer_metrics(tracer, run.wall_s))
            else:
                run = run_command(cli, argv)
                if gate.check(run) is not None:
                    plain.append(run.wall_s)
        pair += 1
    return plain, traced, tables, tracer


def merge_tables(tables):
    """Median of each per-layer time; counts and ratios must repeat exactly.

    Returns the merged table and the names of the counts that did not repeat.
    """
    merged, unsteady = {}, []
    for name, (_, unit) in tables[0].items():
        values = [t[name][0] for t in tables]
        if unit in ("count", "ratio"):
            if len(set(values)) != 1:
                unsteady.append(f"{name}: {values}")
            merged[name] = (values[0], unit)
        else:
            merged[name] = (statistics.median(values), unit)
    return merged, unsteady


def write_spans(tracer, workload):
    name, parent, start, end = tracer.spans()
    t0 = start[0] if len(start) else 0.0
    np.savez(OUT / f"spans-{workload}.npz", names=np.array(tracer.names), name=name,
             parent=parent, start=start - t0, end=end - t0)


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "lattice_frames" / "cli.py").is_file():
        raise BenchError(f"no source tree at {SRC}; run from the root of a checkout")
    wl = workloads.WORKLOADS[args.workload]
    cli_argv = wl.argv(args.seed)
    env = environment()
    gate = Gate(wl)
    table = {}
    tracer = None
    unsteady = []
    if args.trace:
        cli = import_cli()
        plain, traced, tables, tracer = traced_runs(cli, cli_argv, gate, args.seconds)
        if tables:
            table, unsteady = merge_tables(tables)
            table["trace.run_s"] = (statistics.median(traced), "s")
        if plain:
            table["trace.untraced_run_s"] = (statistics.median(plain), "s")
        if plain and traced:
            table["trace.overhead_s"] = (table["trace.run_s"][0]
                                         - table["trace.untraced_run_s"][0], "s")
        wanted = spec["per_layer"]
        samples = {"traced": traced, "untraced": plain}
    else:
        setup, setup_probes = measure_setup(SETUP_SPAWNS)
        cli = import_cli()
        walls, rates, cpus, probes = timed_runs(cli, cli_argv, gate, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ref = hostspeed.REFERENCE_S
        table["setup_s"] = (ref * statistics.median(
            t / p for t, p in zip(setup, setup_probes)), "s")
        if walls:
            runs = [ref * t / p for t, p in zip(walls, probes)]
            table["run_s"] = (statistics.median(runs), "s")
            table["work_per_s"] = (statistics.median(
                r * p for r, p in zip(rates, probes)) / ref, "1/s")
            table[f"{wl.work_name}_per_s"] = table["work_per_s"]
            table["peak_rss_mb"] = (peak_mb, "MB")
            hi = tail(runs)
            if hi is not None:
                table[f"run_s.p{hi[0]:.0f}"] = (hi[1], "s")
            table["run_wall_s"] = (statistics.median(walls), "s")
            table["run_cpu_s"] = (statistics.median(cpus), "s")
            table["probe_s"] = (statistics.median(probes), "s")
        table["setup_wall_s"] = (statistics.median(setup), "s")
        wanted = spec["end_to_end"]
        samples = {"run_wall_s": walls, "run_cpu_s": cpus, "probe_s": probes,
                   "setup_wall_s": setup, "setup_probe_s": setup_probes}
    failed = len(gate.failures)
    table["failed_share"] = (failed / max(gate.attempted, 1), "ratio")
    metrics = {m["name"]: {"value": table[m["name"]][0], "unit": m["unit"]}
               for m in wanted if m["name"] in table}
    correct = failed == 0 and not unsteady and len(metrics) == len(wanted)
    for line in unsteady:
        print(f"count differs between traced runs: {line}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        write_spans(tracer, args.workload)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "argv": cli_argv, "environment": env,
              "correct": correct, "attempted": gate.attempted, "failures": gate.failures,
              "unsteady_counts": unsteady,
              "output_sha256": gate.reference and hashlib.sha256(
                  gate.reference.encode()).hexdigest(),
              "samples": samples, "table": {k: list(v) for k, v in table.items()}}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"lattice-frames {' '.join(cli_argv)}")
    print(f"  why: {wl.why}")
    print(f"  moves: {wl.moves}")
    print("  environment: " + json.dumps(env))
    print("  samples: " + ", ".join(f"{k}={len(v)}" for k, v in samples.items()))
    for name, (value, unit) in table.items():
        print(f"  {name:<40} {fmt(value):>14} {unit}")
    print(json.dumps({"correct": correct, "attempted": gate.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
