import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import lattice_frames
from lattice_frames import cli, flows, noether, suites
from lattice_frames.catalog import EXAMPLES
from lattice_frames.expr import Const, ExprError, FieldVar, Var
from lattice_frames.frames import invariantize
from lattice_frames.parser import parse
from lattice_frames.sampling import identity_check
from lattice_frames.suites import SUITES, run_suite


def run_cli(*args):
    """``cli.main(args)`` in this process, with its exit code and captured output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exit_:
            code = exit_.code
    return subprocess.CompletedProcess(args, 0 if code is None else code,
                                       out.getvalue(), err.getvalue())


# the directory holding the package, so that a fresh interpreter imports this checkout
SRC = str(Path(lattice_frames.__file__).resolve().parent.parent)


def run_process(*args, env=None):
    """The command-line entry point in a fresh interpreter, importing this checkout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "lattice_frames.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **(env or {})})


# a point count whose first candidate block numpy cannot allocate, and the line it gives
HUGE_POINTS = "100000000000"
UNALLOCATABLE = f"cannot allocate a block of {HUGE_POINTS} candidate points: "


@pytest.mark.parametrize("args", [["noether", "toda", "--r", "1"], ["syzygy", "ex81"]])
def test_unallocatable_sample_is_one_line(args):
    r = run_cli(*args, "--points", HUGE_POINTS)
    assert r.returncode == 1 and r.stdout == ""
    err = r.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {UNALLOCATABLE}")


# a point count past numpy's largest array dimension: numpy raises ValueError, not MemoryError
IMPOSSIBLE_POINTS = "10000000000000000000"
IMPOSSIBLE = f"cannot allocate a block of {IMPOSSIBLE_POINTS} candidate points: "


@pytest.mark.parametrize("args", [["syzygy", "toda"], ["noether", "toda", "--r", "1"]])
def test_impossible_sample_is_one_line(args):
    r = run_cli(*args, "--points", IMPOSSIBLE_POINTS)
    assert r.returncode == 1 and r.stdout == ""
    err = r.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {IMPOSSIBLE}")


# the ex81 checks that draw no sample
OWN_POINTS = ["projectable-frame", "adjoint-representation-property"]


def _drawn(check_id, points):
    """The size of the sample an ex81 check draws at ``--points points``."""
    n = int(points)
    if check_id == "ex81-scale:right-equivariance":
        return n // 3
    # fixed shares of --points: 20, 10 or 6 (the equivariant rewrite's probe) of every 50
    if check_id == "equivariant-laws":
        return n * 6 // 50
    if check_id.startswith(("maurer-cartan-invariance:", "negative-control:noninvariant")):
        return n * 10 // 50
    if check_id.startswith(("iota-", "replacement-rule:", "dcal-shift-commutation")):
        return n * 20 // 50
    return n


def _assert_each_sampling_check_fails(doc, message, points):
    """Every ex81 check that samples failed with its own error carrying ``message``,
    for the size of the sample it draws."""
    checks = doc["checks"]
    assert doc["status"] == "fail"
    assert [c["check_id"] for c in checks if c["status"] == "pass"] == OWN_POINTS
    failed = [c for c in checks if c["status"] == "fail"]
    assert all(c["check_id"].endswith(":error") and c["note"].startswith(message.replace(
        points, str(_drawn(c["check_id"].removesuffix(":error"), points)))) for c in failed)
    # each check of the first two suites; the noether suite's shared classification;
    # each of the frame's checks and the equivariant rewrite of the last
    assert {"syzygy:shifted-k1:error", "negative-control:shifted-k1+1e-3:error",
            "syzygy-operator:k1:error", "syzygy-operator:k2:error",
            "divergence-equivalence:error", "negative-control:el+1e-3:error", "noether:error",
            "ex81-scale:normalization-0:error", "ex81-scale:normalization-1:error",
            "ex81-scale:right-equivariance:error",
            "equivariant-laws:error", "iota-invariance:error",
            "maurer-cartan-invariance:1:error", "dcal-shift-commutation:error",
            "negative-control:noninvariant:error"} <= {c["check_id"] for c in failed}
    assert len(failed) == 30


class TestVerify:
    def test_toda_all_passes(self):
        r = run_cli("verify", "toda", "--suite", "all", "--points", "25")
        assert r.returncode == 0, r.stdout + r.stderr
        assert "checks passed" in r.stdout

    def test_nls_noether_includes_integration(self):
        r = run_cli("verify", "nls", "--suite", "noether", "--points", "25")
        assert r.returncode == 0, r.stdout + r.stderr
        assert "integration-drift" in r.stdout

    def test_unknown_suite_usage_error(self):
        r = run_cli("verify", "toda", "--suite", "bogus")
        assert r.returncode == 2

    def test_unknown_example_usage_error(self):
        r = run_cli("verify", "nope")
        assert r.returncode == 2

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_points_below_one_usage_error(self, points):
        r = run_cli("verify", "ex81", "--points", points)
        assert r.returncode == 2
        assert "--points" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
    def test_bad_tolerance_usage_error(self, tol):
        r = run_cli("verify", "ex81", "--suite", "syzygy", f"--tol={tol}")
        assert r.returncode == 2
        assert "--tol" in r.stderr and "Traceback" not in r.stderr

    def test_failed_check_does_not_hide_the_suite(self, toda, broken_toda,
                                                  monkeypatch, capsys):
        plan = toda.plan(n_points=10)
        want = [r.check_id for r in run_suite(toda, "invariant-el", plan)]
        monkeypatch.setitem(EXAMPLES, "toda", broken_toda)
        with pytest.raises(SystemExit) as exit_:
            cli.main(["--json", "--points", "10", "verify", "toda", "--suite", "invariant-el"])
        out, err = capsys.readouterr()
        assert exit_.value.code == 1
        checks = json.loads(out)["checks"]
        assert [c["check_id"] for c in checks] == want
        assert {c["check_id"] for c in checks if c["status"] == "fail"} >= {
            "syzygy-operator:kappa", "invariant-el:u"}
        assert "verification aborted" not in out + err

    def test_unallocatable_sample_fails_each_suite(self):
        # numpy refuses the terabytes of the first candidate block at once
        r = run_cli("--json", "verify", "ex81", "--suite", "all", "--points", HUGE_POINTS)
        assert r.returncode == 1 and r.stderr == ""
        _assert_each_sampling_check_fails(json.loads(r.stdout), UNALLOCATABLE, HUGE_POINTS)

    def test_impossible_sample_fails_each_suite(self):
        r = run_cli("--json", "verify", "ex81", "--points", IMPOSSIBLE_POINTS)
        assert r.returncode == 1 and r.stderr == ""
        _assert_each_sampling_check_fails(json.loads(r.stdout), IMPOSSIBLE, IMPOSSIBLE_POINTS)

    def test_valid_tolerance_override_passes(self):
        r = run_cli("--json", "verify", "ex81", "--suite", "syzygy", "--tol", "1e-8")
        assert r.returncode == 0, r.stdout + r.stderr
        assert json.loads(r.stdout)["status"] == "pass"


class TestEulerLagrange:
    def test_toda_display(self):
        r = run_cli("euler-lagrange", "ln((u[1,0]-u[0,1])/(u[1,1]-u[0,0]))",
                    "--fields", "u", "--dim", "2")
        assert r.returncode == 0
        assert "E_u(L)" in r.stdout and "spot checks" in r.stdout

    def test_two_fields(self):
        r = run_cli("--json", "euler-lagrange",
                    "(v[0]*d1 u[0] - u[0]*d1 v[0])/2",
                    "--fields", "u,v", "--dim", "1", "--differential")
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert set(out) == {"u", "v"}

    def test_constant_lagrangian(self):
        r = run_cli("--json", "euler-lagrange", "5", "--fields", "u", "--dim", "1")
        assert r.returncode == 0
        assert json.loads(r.stdout)["u"] == "0"

    def test_power_of_a_power_prints_in_the_grammar(self):
        r = run_cli("euler-lagrange", "(u[0]^2)^3")
        assert r.returncode == 0
        assert r.stdout.splitlines()[0] == "E_u(L) = 6*(u[0]^2)^2*u[0]"
        again = run_cli("euler-lagrange", r.stdout.splitlines()[0].split(" = ")[1])
        assert again.returncode == 0, again.stderr

    def test_parse_error_exit_2(self):
        r = run_cli("euler-lagrange", "u[0,0]*+", "--fields", "u", "--dim", "2")
        assert r.returncode == 2

    @pytest.mark.parametrize("text", [
        "u[0]*" + "9" * 400, "u[0]^" + "9" * 400, "2^" + "9" * 400,
        "u[0]^(-" + "9" * 400 + ")", "u[0]*" + "9" * 400 + ".5", "u[0]*1e999",
        # finite numbers whose folded product or sum is not
        "u[0]*1e300*1e300", "u[0]*(1e300+1e308+1e308)",
    ])
    def test_non_finite_number_is_a_parse_error(self, text):
        r = run_cli("euler-lagrange", text)
        assert r.returncode == 2
        assert r.stderr.startswith("parse error: number is not a finite double at position ")

    @pytest.mark.parametrize("lagrangian, message", [
        ("1/(u[0]-u[0])", "division by zero"), ("ln(u[0]-u[0])", "ln of zero")])
    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_lagrangian_singular_everywhere_fails(self, lagrangian, message, mode):
        # E_u(L) folds to 0, so only L itself shows the singularity
        r = run_cli(*mode, "euler-lagrange", lagrangian, "--fields", "u")
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr.splitlines() == [f"singular evaluation: {message}"]

    @pytest.mark.parametrize("args", [
        ["alt*u[0]^2", "--params", "alt"], ["u[0]^2", "--params", "x"],
        ["u[0]^2", "--params", "sqrt"], ["x[0]^2", "--fields", "x"],
        ["ln[0]^2", "--fields", "ln"], ["u[0]^2", "--fields", "u,abs"],
    ], ids=lambda args: f"{args[1]}={args[2]}")
    def test_grammar_name_is_a_usage_error(self, args):
        # a field or parameter the grammar would read as its own x, alt or function
        r = run_cli("euler-lagrange", *args)
        name = args[2].split(",")[-1]
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == (f"invalid signature: names reserved by the expression grammar: "
                            f"['{name}']\n")

    def test_power_overflow_one_line_failure(self):
        r = run_process("euler-lagrange", "u[0]^100000")
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        assert r.stderr.strip().splitlines() == [
            "singular evaluation: non-finite value of u[0]^99999"]

    @pytest.mark.parametrize("lagrangian, message", [
        ("u[0]*2.5^100000", "non-finite value of 2.5^100000"),
        ("u[0]*0^(-1)", "zero base with negative exponent"),
    ])
    def test_constant_power_fold_one_line_failure(self, lagrangian, message):
        r = run_cli("euler-lagrange", lagrangian)
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        assert r.stderr.strip().splitlines() == [f"singular evaluation: {message}"]


class TestNoether:
    def test_ex81_r1(self):
        r = run_cli("noether", "ex81", "--r", "1", "--points", "25")
        assert r.returncode == 0
        assert "original" in r.stdout and "invariant" in r.stdout \
            and "equivariant" in r.stdout

    def test_nls_r2_json(self):
        r = run_cli("--json", "noether", "nls", "--r", "2", "--points", "25")
        assert r.returncode == 0
        laws = json.loads(r.stdout)
        assert [law["form"] for law in laws] == ["original", "invariant", "equivariant"]
        assert all(law["residual_stats"] <= 1e-8 for law in laws)

    def test_non_symmetry_refused(self):
        r = run_cli("noether", "toda", "--r", "3")
        assert r.returncode == 1
        assert "not a variational symmetry" in r.stderr

    def test_note_follows_the_one_form(self, toda):
        # r = 4 has no invariant forms: one original law, then its note
        r = run_cli("noether", "toda", "--r", "4", "--points", "10")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert [line.split(",")[0] for line in lines if line.startswith("--- ")] == [
            "--- form: original (measure dx)"]
        assert lines[-1] == f"  note: {toda.generator(4).note}"
        assert sum(line.startswith("  note: ") for line in lines) == 1

    def test_out_of_range_usage_error(self):
        r = run_cli("noether", "toda", "--r", "9")
        assert r.returncode == 2

    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_non_positive_r_usage_error(self, r):
        # -1 names no generator, not the last one
        got = run_cli("noether", "toda", "--r", r)
        assert got.returncode == 2
        assert got.stderr == f"example 'toda' has no generator r={r} (valid: [1, 2, 3, 4])\n"

    def test_tolerance_override(self):
        # the residuals are about 1e-15: they pass the default 1e-8, not 1e-30
        assert run_cli("noether", "toda", "--r", "2", "--tol", "1e-30").returncode == 1
        assert run_cli("noether", "toda", "--r", "2", "--tol", "1e-8").returncode == 0

    def test_failed_construction_check_is_one_line(self, monkeypatch, capsys):
        # the equivariant rewrite raises when a coefficient is not invariant
        monkeypatch.setattr(noether, "invariance_residual", lambda *a, **kw: 1.0)
        with pytest.raises(SystemExit) as exit_:
            cli.main(["--points", "10", "noether", "toda", "--r", "2"])
        assert exit_.value.code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: equivariant coefficient ")


class TestIntegrate:
    def test_writes_csv_and_json(self, tmp_path):
        csv = tmp_path / "traj.csv"
        rep = tmp_path / "drift.json"
        r = run_cli("integrate", "nls", "--dt", "0.002", "--x-span", "0,0.2",
                    "--out-csv", str(csv), "--out-json", str(rep))
        assert r.returncode == 0
        header = csv.read_text().splitlines()[0]
        assert header == "x,energy,norm"
        report = json.loads(rep.read_text())
        assert report["drift"]["norm"] <= 1e-8
        assert "artifact choice" in report["note"]

    @pytest.mark.parametrize("flag", ["--out-csv", "--out-json"])
    def test_unwritable_output_is_one_line(self, tmp_path, flag):
        # a directory, and a file in a directory that does not exist
        for path, reason in ((tmp_path, "Is a directory"),
                             (tmp_path / "missing" / "out", "No such file or directory")):
            r = run_cli("integrate", "nls", "--x-span", "0,0.01", flag, str(path))
            assert r.returncode == 1 and r.stdout == ""
            assert r.stderr == f"error: cannot write {path}: {reason}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is full")
    def test_failed_write_names_its_path(self):
        # open() succeeds and the write fails, with no path in the error
        r = run_cli("integrate", "nls", "--x-span", "0,0.01", "--out-json", "/dev/full")
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr == "error: cannot write /dev/full: No space left on device\n"

    def test_stability_warning(self):
        r = run_cli("integrate", "nls", "--dt", "0.1", "--x-span", "0,0.2")
        assert "stability bound" in r.stderr

    def test_stability_warning_uses_the_flag_constant(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["integrate", "nls", "--dt", "0.1", "--x-span", "0,0.2"])
        assert exit_.value.code == 0
        c = flows.STABILITY_C
        assert capsys.readouterr().err == (
            f"warning: dt=0.1 violates the stability bound dt <= {c} h^2 = {c * 0.5 ** 2}\n")

    def test_unallocatable_dense_output_is_one_line(self, capsys):
        # 1e18 steps, and 1e300: a count of 301 digits is printed in short form
        for dt in ("1e-9", "1e-291"):
            with pytest.raises(SystemExit) as exit_:
                cli.main(["integrate", "nls", "--x-span", "0,1e9", "--dt", dt])
            assert exit_.value.code == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: cannot allocate the dense output")
            assert len(err[0]) < 200

    def test_unallocatable_lattice_is_one_line(self, capsys):
        # numpy refuses the 7 PiB of the site index at once: nothing is allocated
        with pytest.raises(SystemExit) as exit_:
            cli.main(["integrate", "nls", "--n-sites", "1000000000000000"])
        assert exit_.value.code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: cannot allocate a lattice of 1000000000000000 sites: ")

    def test_difference_example_rejected(self):
        r = run_cli("integrate", "toda")
        assert r.returncode == 2

    @pytest.mark.parametrize("h, message", [
        ("1e-200", "division by zero"),           # h^2 underflows to 0
        ("1e200", "non-finite value of h^2"),     # h^2 overflows
    ])
    def test_singular_step_parameter_is_one_line(self, h, message):
        r = run_cli("integrate", "nls", "--h", h)
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        assert r.stderr == f"singular evaluation: {message}\n"

    @pytest.mark.parametrize("h, message", [
        # u[0]^2 overflows in the second stage of the first step
        ("1e-150", "singular evaluation: non-finite value of u[0]^2"),
        # the field norm fails after four steps
        ("0.01", "blow-up: field norm 2.912e+86 at x = 0.005"),
    ])
    def test_failure_in_a_step_is_one_line(self, h, message):
        r = run_cli("integrate", "nls", "--h", h, "--x-span", "0,0.01")
        assert r.returncode == 1
        assert r.stderr == f"{message}\n"

    def test_non_finite_field_norm_is_one_line(self):
        # u[0]^2 overflows in the record of the initial state and the first
        # stages give NaN: no numpy warning, only the failed norm check
        r = run_process("integrate", "nls", "--h", "1e-155", "--dt", "5e-324",
                        "--x-span", "0,5e-323")
        assert r.returncode == 1
        assert r.stderr == "blow-up: field norm nan at x = 4.94066e-324\n"

    def test_non_finite_drift_is_one_line(self, nls, tmp_path, monkeypatch, capsys):
        # each density is finite, but the lattice sum of 16 of them overflows
        cfg = {**nls.integrate_config,
               "monitors": {**nls.integrate_config["monitors"], "big": Const(1e308)}}
        monkeypatch.setitem(EXAMPLES, "nls", dataclasses.replace(nls, integrate_config=cfg))
        csv, rep = tmp_path / "traj.csv", tmp_path / "drift.json"
        with warnings.catch_warnings(), pytest.raises(SystemExit) as exit_:
            warnings.simplefilter("error")
            cli.main(["integrate", "nls", "--x-span", "0,0.2", "--dt", "0.1",
                      "--out-csv", str(csv), "--out-json", str(rep)])
        assert exit_.value.code == 1
        assert capsys.readouterr() == ("", "error: drift not finite: big\n")
        assert not csv.exists() and not rep.exists()


@pytest.mark.parametrize("args", [
    ["euler-lagrange", "u[0]", "--dim", "0"],
    ["euler-lagrange", "u[0]", "--dim", "-1"],
    ["euler-lagrange", "u[0]", "--fields", "u", "--params", "u"],
    ["euler-lagrange", "u[0]", "--fields", "u,u"],
    ["integrate", "--n-sites", "0"],
    ["integrate", "--n-sites", "-4"],
    ["integrate", "--dt", "0"],
    ["integrate", "--dt=-1"],
    ["integrate", "--dt", "nan"],
    ["integrate", "--x-span", "1,0"],
    ["integrate", "--x-span", "0,nan"],
    ["integrate", "--x-span", "0"],
    ["integrate", "--h", "0"],
    ["integrate", "--h", "nan"],
    ["integrate", "--x-span", "1e308,1.7e308"],   # finite flags, non-finite step count
    ["verify", "ex81", "--suite", "syzygy", "--seed", "-1"],
    ["verify", "ex81", "--suite", "syzygy", "--seed", str(2**64)],   # seeds are u64
    ["integrate", "nls", "--x-span", "1,1"],      # no step
    ["integrate", "nls", "--dt", "1e300"],        # no step
    ["integrate", "nls", "--dt", "0.6"],          # the steps end at x = 1.2
    ["integrate", "nls", "--dt", "0.4"],          # the steps end at x = 0.8
])
def test_malformed_flag_usage_error(args):
    # any exception other than the usage exit fails the test
    with pytest.raises(SystemExit) as exit_:
        cli.main(args)
    assert exit_.value.code == 2


class TestOther:
    def test_invariantize_parse_error_is_one_line(self):
        r = run_cli("invariantize", "ex81", "u[0")
        assert r.returncode == 2
        assert [line.startswith("parse error:") for line in r.stderr.splitlines()] == [True]

    def test_invariantize(self):
        r = run_cli("invariantize", "toda", "u[2,1]")
        assert r.returncode == 0
        assert "iota" in r.stdout and "kappa" in r.stdout

    def test_invariantize_json(self, toda):
        r = run_cli("invariantize", "toda", "u[2,1]", "--json")
        assert r.returncode == 0 and r.stderr == ""
        doc = strict_json(r.stdout)
        text = run_cli("invariantize", "toda", "u[2,1]").stdout.splitlines()
        assert doc == {"input": "u[2,1]", "iota": text[0].removeprefix("iota = "),
                       "kappa_form": text[1].removeprefix("in invariants: ")}
        # the kappa form is the stored recurrence, and it invariantizes u[2,1]
        inv, fv = toda.invset, FieldVar("u", 0, (2, 1))
        stored = parse(toda.expected["recurrences"]["u[2,1]"], inv.kappa_sig)
        assert identity_check(inv.expand(parse(doc["kappa_form"], inv.kappa_sig)),
                              inv.expand(stored), toda.plan(), toda.sig).passed
        assert identity_check(parse(doc["iota"], toda.sig),
                              invariantize(toda.frame, Var(fv)),
                              toda.plan(), toda.sig).passed

    def test_invariantize_kappa_form_of_an_expression(self, toda):
        # each coordinate goes to its recurrence, not the whole input to one of them
        r = run_cli("invariantize", "toda", "u[1,0]^2", "--json")
        assert r.returncode == 0 and r.stderr == ""
        doc = strict_json(r.stdout)
        assert doc["kappa_form"] == "kappa[0,0]^2"
        inv = toda.invset
        assert identity_check(inv.expand(parse(doc["kappa_form"], inv.kappa_sig)),
                              parse(doc["iota"], toda.sig), toda.plan(), toda.sig).passed

    def test_invariantize_prints_no_kappa_form_when_x_is_read(self):
        # iota(x) = x - x on the nls frame has no recurrence: no form, in either output
        r = run_cli("invariantize", "nls", "x*u[0]", "--json")
        assert r.returncode == 0 and strict_json(r.stdout)["kappa_form"] is None
        text = run_cli("invariantize", "nls", "x*u[0]")
        assert text.returncode == 0
        assert [line.split(" = ")[0] for line in text.stdout.splitlines()] == ["iota"]

    @pytest.mark.parametrize("expression, error", [
        # the frame sends u[0] to 0: a denominator 0 at every point, folded or not
        ("x*u[1;0]/u[0]", "division by zero"),
        ("u[1;0]*u[1]/u[0]", "constant division by zero"),
    ])
    def test_invariantize_singular_everywhere_fails(self, expression, error):
        for args in (["invariantize", "ex81", expression],
                     ["invariantize", "ex81", expression, "--json"]):
            r = run_cli(*args)
            assert (r.returncode, r.stdout, r.stderr) == (1, "", f"singular evaluation: {error}\n")

    def test_syzygy(self):
        r = run_cli("syzygy", "nls", "--points", "25")
        assert r.returncode == 0

    @pytest.mark.parametrize("args", [["--json", "verify", "ex81", "--suite", "noether"],
                                      ["syzygy", "ex81"]])
    def test_closed_stdout_exits_1_without_a_traceback(self, args):
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        child = subprocess.Popen([sys.executable, "-m", "lattice_frames.cli", *args],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                 env={**os.environ, "PYTHONPATH": path})
        child.stdout.close()   # before the child has imported anything, let alone written
        err = child.stderr.read()
        assert child.wait() == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err
        assert len(err.splitlines()) <= 1

    def test_json_determinism(self):
        a = run_process("--json", "--seed", "42", "verify", "toda", "--suite", "syzygy")
        b = run_cli("--json", "--seed", "42", "verify", "toda", "--suite", "syzygy")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_memo_stays_inside_one_run(self):
        # a memo that outlived its run would hand seed 7 the points of seed 2024
        args = ("--json", "--seed", "7", "verify", "toda", "--suite", "all")
        first = run_cli(*args)
        other = run_cli("--json", "--seed", "2024", "verify", "toda", "--suite", "all")
        again = run_cli(*args)
        fresh = run_process(*args)
        assert first.returncode == other.returncode == again.returncode == fresh.returncode == 0
        assert first.stdout == again.stdout == fresh.stdout
        assert other.stdout != first.stdout

    def test_env_seed_override(self):
        a = run_process("--json", "verify", "toda", "--suite", "syzygy",
                        env={"LATTICE_FRAMES_SEED": "17"})
        b = run_cli("--json", "--seed", "17", "verify", "toda", "--suite", "syzygy")
        assert a.stdout == b.stdout

    @pytest.mark.parametrize("seed", ["-5", str(2**64), "seven"])
    def test_env_seed_outside_u64_is_a_usage_error(self, seed):
        r = run_process("verify", "ex81", "--suite", "syzygy", env={"LATTICE_FRAMES_SEED": seed})
        assert r.returncode == 2
        assert r.stderr == f"invalid LATTICE_FRAMES_SEED={seed!r}\n"


def strict_json(text):
    """``json.loads`` refusing NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    def test_error_report_writes_a_null_residual(self, monkeypatch):
        def broken(b, plan, **kw):
            raise ExprError("injected")

        monkeypatch.setitem(suites.SUITES, "syzygy", broken)
        r = run_cli("verify", "toda", "--suite", "syzygy", "--json", "--seed", "5")
        assert r.returncode == 1
        assert strict_json(r.stdout) == {"status": "fail", "checks": [
            {"check_id": "syzygy:error", "status": "fail", "max_residual": None,
             "n_points": 0, "seed": 5, "note": "injected"}]}

    def test_noether_writes_a_null_residual(self, monkeypatch):
        monkeypatch.setattr(cli, "offshell_residual",
                            lambda law, *args: math.nan if law.form == "invariant" else 0.0)
        r = run_cli("--json", "noether", "ex81", "--r", "2", "--points", "10")
        assert r.returncode == 1
        assert [law["residual_stats"] for law in strict_json(r.stdout)] == [0.0, None, 0.0]
