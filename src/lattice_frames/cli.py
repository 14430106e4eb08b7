"""Command-line interface.

Subcommands: verify, euler-lagrange, noether, integrate, invariantize,
syzygy.  Exit codes: 0 pass, 1 check failure (or a standard output closed
before the command wrote it), 2 usage or parse error.
The default seed comes from LATTICE_FRAMES_SEED when set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .actions import SYMMETRY_TOL, check_variational_symmetry
from .calculus import euler_lagrange
from .catalog import DEFAULT_SEED, get_example
from .expr import (
    ExprError,
    ProblemSignature,
    SingularEvaluationError,
    XVar,
    evaluate,
    fieldvars,
    nodes,
    run_memo,
    substitute,
    to_string,
)
from .flows import (
    STABILITY_C,
    BlowUpError,
    integrate_lattice_flow,
    monitor_conserved,
    step_count,
)
from .frames import invariantize
from .noether import equivariant_form, noether_invariant, noether_original, offshell_residual
from .parser import ParseError, parse
from .sampling import SamplePlan, identity_check
from .suites import run_suite, suite_names

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _seed(text):
    """Argument type: an integer seed in [0, 2**64), the range of the generator's seed."""
    value = int(text)
    if not 0 <= value < 2**64:
        raise ValueError(text)
    return value


def _default_seed():
    env = os.environ.get("LATTICE_FRAMES_SEED")
    if env is not None:
        try:
            return _seed(env)
        except ValueError:
            print(f"invalid LATTICE_FRAMES_SEED={env!r}", file=sys.stderr)
            raise SystemExit(USAGE_ERROR)
    return DEFAULT_SEED


def _positive(cast):
    """Argument type: a finite value of ``cast`` above zero."""

    def positive(text):
        value = cast(text)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(text)
        return value

    return positive


def _span(text):
    """Argument type: ``start,end`` with finite start <= end."""
    try:
        lo, hi = map(float, text.split(","))
    except ValueError:
        lo = hi = math.nan
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise argparse.ArgumentTypeError(f"expects start,end with finite start <= end, "
                                         f"got {text!r}")
    return lo, hi


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=argparse.SUPPRESS,
                        help="sampling seed (default LATTICE_FRAMES_SEED or %d)" % DEFAULT_SEED)
    common.add_argument("--points", type=_positive(int), default=argparse.SUPPRESS,
                        help="sample points per identity check (default 50)")
    common.add_argument("--tol", type=_positive(float), default=argparse.SUPPRESS,
                        help="override check tolerance")
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine-readable output")
    p = argparse.ArgumentParser(
        prog="lattice-frames", parents=[common],
        description="Difference and differential-difference variational calculus "
                    "with moving frames, verified numerically.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    v = add("verify", help="run a verification suite on a catalog example")
    v.add_argument("example")
    v.add_argument("--suite", default="all", help="|".join(suite_names()))

    e = add("euler-lagrange", help="Euler-Lagrange expressions of a Lagrangian")
    e.add_argument("lagrangian")
    e.add_argument("--fields", default="u", help="comma-separated field names")
    e.add_argument("--dim", type=_positive(int), default=1, help="lattice dimension m")
    e.add_argument("--differential", action="store_true",
                   help="differential-difference flavor (enables dJ and x)")
    e.add_argument("--params", default="", help="comma-separated parameter names")

    n = add("noether", help="conservation law of one generator, three forms")
    n.add_argument("example")
    n.add_argument("--r", type=int, required=True, help="generator index (1-based)")

    i = add("integrate", help="integrate a lattice flow and monitor conserved sums")
    i.add_argument("example", nargs="?", default="nls")
    i.add_argument("--n-sites", type=_positive(int), default=None)
    i.add_argument("--h", type=_positive(float), default=None)
    i.add_argument("--dt", type=_positive(float), default=None)
    i.add_argument("--x-span", type=_span, default=None, help="start,end")
    i.add_argument("--out-csv", default=None, help="write monitored sums vs x as CSV")
    i.add_argument("--out-json", default=None, help="write the drift report as JSON")

    z = add("invariantize", help="invariantization of an expression")
    z.add_argument("example")
    z.add_argument("expression")

    s = add("syzygy", help="verify the registered syzygies of an example")
    s.add_argument("example")
    return p


def _get_example_or_exit(name):
    try:
        return get_example(name)
    except ExprError as err:
        print(err, file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _finite(doc):
    """``doc`` with each non-finite float, such as the NaN residual of a failed check, as None."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {k: _finite(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_finite(v) for v in doc]
    return doc


def _json(doc):
    """``doc`` as strict JSON, indented: a non-finite number is written as null."""
    return json.dumps(_finite(doc), indent=2, allow_nan=False)


def _emit_reports(reports, as_json):
    ok = all(r.passed for r in reports)
    if as_json:
        print(_json({"status": "pass" if ok else "fail",
                     "checks": [r.to_dict() for r in reports]}))
    else:
        for r in reports:
            print(f"[{r.status:>4}] {r.check_id}  max_residual={r.max_residual:.3e}"
                  + (f"  ({r.note})" if r.note else ""))
        print(f"{sum(r.passed for r in reports)}/{len(reports)} checks passed")
    return 0 if ok else CHECK_FAILURE


def cmd_verify(args):
    b = _get_example_or_exit(args.example)
    if args.suite not in suite_names():
        print(f"unknown suite {args.suite!r}; choose from {suite_names()}", file=sys.stderr)
        return USAGE_ERROR
    plan = b.plan(seed=args.seed, n_points=args.points)
    return _emit_reports(run_suite(b, args.suite, plan, tol=args.tol), args.json)


def cmd_euler_lagrange(args):
    fields = tuple(f.strip() for f in args.fields.split(",") if f.strip())
    params = tuple(f.strip() for f in args.params.split(",") if f.strip())
    try:
        sig = ProblemSignature(fields, args.dim, differential=args.differential,
                               has_x=args.differential, params=params)
    except ValueError as err:
        print(f"invalid signature: {err}", file=sys.stderr)
        return USAGE_ERROR
    L = parse(args.lagrangian, sig)
    plan = SamplePlan(n_points=3, seed=args.seed)
    out = {}
    for f in fields:
        out[f] = euler_lagrange(L, f, sig)
    spots = plan.assignments(list(out.values()) or [L], sig)
    cols = [np.broadcast_to(evaluate(e, spots), len(spots)).tolist() for e in out.values()]
    # E may fold to 0 from a Lagrangian such as 1/(u[0]-u[0]) that is singular everywhere
    evaluate(L, plan.assignments([L], sig))
    if args.json:
        print(_json({f: to_string(e) for f, e in out.items()}))
        return 0
    for f, e in out.items():
        print(f"E_{f}(L) = {to_string(e)}")
    print("\nnumeric spot checks:")
    for k in range(len(spots)):
        vals = "  ".join(f"E_{f}={col[k]:+.6e}" for f, col in zip(out, cols))
        print(f"  point {k + 1}: {vals}")
    return 0


def _forms_for(b, r, plan):
    sig = b.sig
    gen = b.generator(r)
    EL = {f: euler_lagrange(b.L, f, sig) for f in sig.base_fields}
    laws = [noether_original(b.L, gen, r, sig)]
    if r <= b.action.group_dim:  # the action's own generator: invariant forms too
        inv_law = noether_invariant(b)[r - 1]
        laws += [inv_law, equivariant_form(inv_law, plan)]
    residuals = {law.form: offshell_residual(law, EL, gen, sig, plan) for law in laws}
    return laws, residuals


def cmd_noether(args):
    b = _get_example_or_exit(args.example)
    try:
        gen = b.generator(args.r)
    except ExprError as err:
        print(err, file=sys.stderr)
        return USAGE_ERROR
    plan = b.plan(seed=args.seed, n_points=args.points)
    sym = check_variational_symmetry(b.L, gen, b.sig, plan)
    if not sym <= SYMMETRY_TOL:
        msg = (f"generator r={args.r} ({gen.name}) is not a variational "
               f"symmetry of the Lagrangian (v(L) residual {sym:.3e}); "
               "no conservation law")
        print(msg, file=sys.stderr)
        return CHECK_FAILURE
    laws, residuals = _forms_for(b, args.r, plan)
    if args.json:
        print(_json([law.to_dict(residual=residuals[law.form]) for law in laws]))
    else:
        for law in laws:
            print(f"--- form: {law.form} (measure {law.measure}), "
                  f"off-shell residual {residuals[law.form]:.3e}")
            for label, c in law.components.named():
                print(f"  {label} = {to_string(c)}")
            if gen.note:
                print(f"  note: {gen.note}")
    tol = 1e-8 if args.tol is None else args.tol
    return 0 if all(r <= tol for r in residuals.values()) else CHECK_FAILURE


def cmd_integrate(args):
    b = _get_example_or_exit(args.example)
    if b.integrate_config is None:
        print(f"example {b.name!r} has no differential-difference flow to integrate",
              file=sys.stderr)
        return USAGE_ERROR
    cfg = b.integrate_config
    d = dict(cfg["defaults"])
    for key in ("n_sites", "h", "dt", "x_span"):
        if getattr(args, key) is not None:
            d[key] = getattr(args, key)
    try:
        step_count(d["x_span"], d["dt"])
    except ValueError as err:
        print(f"invalid --x-span/--dt: {err}", file=sys.stderr)
        return USAGE_ERROR
    try:
        state0 = cfg["initial_state"](d["n_sites"], d["h"])
    except (MemoryError, ValueError, OverflowError) as err:
        print(f"error: cannot allocate a lattice of {d['n_sites']} sites: {err}",
              file=sys.stderr)
        return CHECK_FAILURE
    try:
        traj = integrate_lattice_flow(cfg["rhs"], state0, d["x_span"], d["dt"],
                                      monitors=cfg["monitors"])
    except BlowUpError as err:
        print(f"blow-up: {err}", file=sys.stderr)
        return CHECK_FAILURE
    drifts = monitor_conserved(traj)
    not_finite = [k for k in sorted(drifts) if not math.isfinite(drifts[k])]
    if not_finite:
        print(f"error: drift not finite: {', '.join(not_finite)}", file=sys.stderr)
        return CHECK_FAILURE
    if not traj.stability_ok:
        print(f"warning: dt={d['dt']} violates the stability bound "
              f"dt <= {STABILITY_C} h^2 = {STABILITY_C * d['h'] ** 2}", file=sys.stderr)
    report = {
        "example": b.name,
        "n_sites": d["n_sites"], "h": d["h"], "dt": d["dt"],
        "x_span": list(d["x_span"]),
        "stability_ok": traj.stability_ok,
        "drift": {k: drifts[k] for k in sorted(drifts)},
        "note": cfg.get("note", ""),
    }
    try:
        if args.out_csv:
            labels = sorted(traj.monitor_sums)
            with open(args.out_csv, "w") as fh:
                fh.write("x," + ",".join(labels) + "\n")
                for i, x in enumerate(traj.xs):
                    row = [repr(float(x))] + [repr(float(traj.monitor_sums[k][i])) for k in labels]
                    fh.write(",".join(row) + "\n")
        if args.out_json:
            with open(args.out_json, "w") as fh:
                fh.write(_json(report) + "\n")
    except OSError as err:  # open() names its path in the error; a failed write, fh
        print(f"error: cannot write {err.filename or fh.name}: {err.strerror or err}", file=sys.stderr)
        return CHECK_FAILURE
    if args.json:
        print(_json(report))
    else:
        print(f"integrated {b.name}: N={d['n_sites']} h={d['h']} dt={d['dt']} "
              f"x in {d['x_span']}")
        for k in sorted(drifts):
            print(f"  drift[{k}] = {drifts[k]:.3e}")
        if cfg.get("note"):
            print(f"  note: {cfg['note']}")
    return 0


def cmd_invariantize(args):
    b = _get_example_or_exit(args.example)
    e = parse(args.expression, b.sig)
    out = invariantize(b.frame, e)
    # iota moves the coordinates and x alone: without x, the expression with each
    # coordinate replaced by its recurrence is iota(e) in the generating invariants
    recurrence = b.invset.recurrence or (lambda fv: None)
    images = {fv: recurrence(fv) for fv in fieldvars(e)}
    kappa_form = None
    if None not in images.values() and not any(isinstance(n, XVar) for n in nodes(e)):
        kappa_form = to_string(substitute(e, images))
    # a formula singular on the chart is no invariantization: evaluate() at
    # the example's admissible points raises where iota(e) is singular
    evaluate(out, b.plan(seed=args.seed, n_points=args.points).assignments([out], b.sig))
    if args.json:
        print(_json({"input": args.expression, "iota": to_string(out),
                     "kappa_form": kappa_form}))
    else:
        print(f"iota = {to_string(out)}")
        if kappa_form:
            print(f"in invariants: {kappa_form}")
    return 0


def cmd_syzygy(args):
    b = _get_example_or_exit(args.example)
    plan = b.plan(seed=args.seed, n_points=args.points)
    tol = args.tol if args.tol is not None else 1e-10
    inv = b.invset
    reports = [identity_check(inv.expand(lhs), inv.expand(rhs), plan, inv.orig_sig, tol=tol,
                              check_id=f"syzygy:{name}") for name, lhs, rhs in inv.syzygies]
    return _emit_reports(reports, args.json)


COMMANDS = {
    "verify": cmd_verify,
    "euler-lagrange": cmd_euler_lagrange,
    "noether": cmd_noether,
    "integrate": cmd_integrate,
    "invariantize": cmd_invariantize,
    "syzygy": cmd_syzygy,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    # the seed's default reads the environment only when no --seed is given
    for name, default in (("seed", _default_seed), ("points", lambda: 50),
                          ("tol", lambda: None), ("json", lambda: False)):
        if not hasattr(args, name):
            setattr(args, name, default())
    try:
        with run_memo():
            code = COMMANDS[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout has gone: send the interpreter's last flush nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = CHECK_FAILURE
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        code = USAGE_ERROR
    except SingularEvaluationError as err:
        print(f"singular evaluation: {err}", file=sys.stderr)
        code = CHECK_FAILURE
    except ExprError as err:
        print(f"error: {err}", file=sys.stderr)
        code = CHECK_FAILURE
    raise SystemExit(code)


if __name__ == "__main__":
    main()
