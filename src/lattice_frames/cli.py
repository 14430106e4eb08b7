"""Command-line interface.

Subcommands: verify, euler-lagrange, noether, integrate, invariantize,
syzygy.  Exit codes: 0 pass, 1 check failure, 2 usage or parse error.
The default seed comes from LATTICE_FRAMES_SEED when set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .calculus import euler_lagrange
from .catalog import DEFAULT_SEED, get_example
from .expr import (
    ExprError,
    ProblemSignature,
    SingularEvaluationError,
    evaluate,
    fieldvars,
    to_string,
)
from .parser import ParseError, parse
from .sampling import SamplePlan
from .suites import run_suite, suite_names

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _default_seed():
    env = os.environ.get("LATTICE_FRAMES_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            print(f"invalid LATTICE_FRAMES_SEED={env!r}", file=sys.stderr)
            raise SystemExit(USAGE_ERROR)
    return DEFAULT_SEED


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="sampling seed (default LATTICE_FRAMES_SEED or %d)" % DEFAULT_SEED)
    common.add_argument("--points", type=int, default=argparse.SUPPRESS,
                        help="sample points per identity check (default 50)")
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS,
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
    e.add_argument("--dim", type=int, default=1, help="lattice dimension m")
    e.add_argument("--differential", action="store_true",
                   help="differential-difference flavor (enables dJ and x)")
    e.add_argument("--params", default="", help="comma-separated parameter names")

    n = add("noether", help="conservation law of one generator, three forms")
    n.add_argument("example")
    n.add_argument("--r", type=int, required=True, help="generator index (1-based)")

    i = add("integrate", help="integrate a lattice flow and monitor conserved sums")
    i.add_argument("example", nargs="?", default="nls")
    i.add_argument("--n-sites", type=int, default=None)
    i.add_argument("--h", type=float, default=None)
    i.add_argument("--dt", type=float, default=None)
    i.add_argument("--x-span", default=None, help="start,end")
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


def _emit_reports(reports, as_json):
    ok = all(r.passed for r in reports)
    if as_json:
        print(json.dumps({"status": "pass" if ok else "fail",
                          "checks": [r.to_dict() for r in reports]}, indent=2))
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
    try:
        reports = run_suite(b, args.suite, plan, tol=args.tol)
    except ExprError as err:
        print(f"verification aborted: {err}", file=sys.stderr)
        return CHECK_FAILURE
    return _emit_reports(reports, args.json)


def cmd_euler_lagrange(args):
    fields = tuple(f.strip() for f in args.fields.split(",") if f.strip())
    params = tuple(f.strip() for f in args.params.split(",") if f.strip())
    sig = ProblemSignature(fields, args.dim, differential=args.differential,
                           has_x=args.differential, params=params)
    try:
        L = parse(args.lagrangian, sig)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return USAGE_ERROR
    plan = SamplePlan(n_points=3, seed=args.seed)
    out = {}
    for f in fields:
        out[f] = euler_lagrange(L, f, sig)
    if args.json:
        print(json.dumps({f: to_string(e) for f, e in out.items()}, indent=2))
        return 0
    spots = plan.assignments(list(out.values()) or [L], sig)
    rows = ["  ".join(f"E_{f}={evaluate(e, a):+.6e}" for f, e in out.items())
            for a in spots]
    for f, e in out.items():
        print(f"E_{f}(L) = {to_string(e)}")
    print("\nnumeric spot checks:")
    for k, vals in enumerate(rows):
        print(f"  point {k + 1}: {vals}")
    return 0


def _forms_for(b, entry, plan):
    from .noether import (equivariant_form, noether_invariant, noether_original,
                          offshell_residual)
    sig = b.sig
    EL = {f: euler_lagrange(b.L, f, sig) for f in sig.base_fields}
    laws = [noether_original(b.L, entry.gen, entry.index, sig, plan, el_by_field=EL)]
    if entry.action_index is not None:
        IL = b.lagrangian
        inv_laws = noether_invariant(IL, b.invset.H, b.action, b.frame, plan,
                                     generators=[entry.action_index])
        laws.append(inv_laws[0])
        laws.append(equivariant_form(inv_laws[0], plan))
    residuals = {law.form: offshell_residual(law, EL, entry.gen, sig, plan)
                 for law in laws}
    return laws, residuals


def cmd_noether(args):
    b = _get_example_or_exit(args.example)
    try:
        entry = b.generator(args.r)
    except ExprError as err:
        print(err, file=sys.stderr)
        return USAGE_ERROR
    plan = b.plan(seed=args.seed, n_points=args.points)
    from .actions import check_variational_symmetry
    sym = check_variational_symmetry(b.L, entry.gen, b.sig, plan)
    if not sym:
        msg = (f"generator r={args.r} ({entry.gen.name}) is not a variational "
               f"symmetry of the Lagrangian (v(L) residual {sym.max_residual:.3e}); "
               "no conservation law")
        print(msg, file=sys.stderr)
        return CHECK_FAILURE
    laws, residuals = _forms_for(b, entry, plan)
    if args.json:
        print(json.dumps([law.to_dict(residual=residuals[law.form]) for law in laws],
                         indent=2))
    else:
        for law in laws:
            comps = law.to_dict()["components"]
            labels = (["A0"] if law.components.a0 is not None else []) + \
                     [f"A{i+1}" for i in range(len(law.components.comps))]
            print(f"--- form: {law.form} (measure {law.measure}), "
                  f"off-shell residual {residuals[law.form]:.3e}")
            for lab, c in zip(labels, comps):
                print(f"  {lab} = {c}")
            if entry.note:
                print(f"  note: {entry.note}")
    return 0 if all(r <= 1e-8 for r in residuals.values()) else CHECK_FAILURE


def cmd_integrate(args):
    b = _get_example_or_exit(args.example)
    if b.integrate_config is None:
        print(f"example {b.name!r} has no differential-difference flow to integrate",
              file=sys.stderr)
        return USAGE_ERROR
    from .flows import BlowUpError, integrate_lattice_flow, monitor_conserved
    cfg = b.integrate_config
    d = dict(cfg["defaults"])
    if args.n_sites is not None:
        d["n_sites"] = args.n_sites
    if args.h is not None:
        d["h"] = args.h
    if args.dt is not None:
        d["dt"] = args.dt
    if args.x_span is not None:
        try:
            lo, hi = (float(t) for t in args.x_span.split(","))
        except ValueError:
            print("--x-span expects start,end", file=sys.stderr)
            return USAGE_ERROR
        d["x_span"] = (lo, hi)
    state0 = cfg["initial_state"](d["n_sites"], d["h"])
    try:
        traj = integrate_lattice_flow(cfg["rhs"], state0, d["x_span"], d["dt"],
                                      monitors=cfg["monitors"])
    except BlowUpError as err:
        print(f"blow-up: {err}", file=sys.stderr)
        return CHECK_FAILURE
    if not traj.stability_ok:
        print(f"warning: dt={d['dt']} violates the stability bound "
              f"dt <= 0.2 h^2 = {0.2 * d['h'] ** 2}", file=sys.stderr)
    drifts = monitor_conserved(traj)
    report = {
        "example": b.name,
        "n_sites": d["n_sites"], "h": d["h"], "dt": d["dt"],
        "x_span": list(d["x_span"]),
        "stability_ok": traj.stability_ok,
        "drift": {k: drifts[k] for k in sorted(drifts)},
        "note": cfg.get("note", ""),
    }
    if args.out_csv:
        labels = sorted(traj.monitor_sums)
        with open(args.out_csv, "w") as fh:
            fh.write("x," + ",".join(labels) + "\n")
            for i, x in enumerate(traj.xs):
                row = [repr(float(x))] + [repr(float(traj.monitor_sums[k][i])) for k in labels]
                fh.write(",".join(row) + "\n")
    if args.out_json:
        with open(args.out_json, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    if args.json:
        print(json.dumps(report, indent=2))
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
    from .frames import invariantize
    try:
        e = parse(args.expression, b.sig)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return USAGE_ERROR
    out = invariantize(b.frame, e, b.sig)
    kappa_form = None
    vs = fieldvars(e)
    if len(vs) == 1 and b.invset.recurrence is not None:
        kexpr = b.invset.recurrence(next(iter(vs)))
        if kexpr is not None:
            kappa_form = to_string(kexpr)
    if args.json:
        print(json.dumps({"input": args.expression, "iota": to_string(out),
                          "kappa_form": kappa_form}, indent=2))
    else:
        print(f"iota = {to_string(out)}")
        if kappa_form:
            print(f"in invariants: {kappa_form}")
    return 0


def cmd_syzygy(args):
    b = _get_example_or_exit(args.example)
    from .frames import verify_syzygy
    plan = b.plan(seed=args.seed, n_points=args.points)
    tol = args.tol if args.tol is not None else 1e-10
    reports = [verify_syzygy(b.invset, s, plan, tol=tol) for s in b.invset.syzygies]
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
    if not hasattr(args, "seed"):
        args.seed = _default_seed()
    if not hasattr(args, "points"):
        args.points = 50
    if not hasattr(args, "tol"):
        args.tol = None
    if not hasattr(args, "json"):
        args.json = False
    if args.points < 1:
        parser.error(f"--points must be at least 1, got {args.points}")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        parser.error(f"--tol must be finite and positive, got {args.tol}")
    try:
        code = COMMANDS[args.command](args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        code = USAGE_ERROR
    except SingularEvaluationError as err:
        print(f"singular evaluation: {err}", file=sys.stderr)
        code = CHECK_FAILURE
    raise SystemExit(code)


if __name__ == "__main__":
    main()
