import json
import subprocess
import sys

import pytest


def run_cli(*args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "lattice_frames.cli", *args],
                          capture_output=True, text=True, env=full_env)


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

    def test_parse_error_exit_2(self):
        r = run_cli("euler-lagrange", "u[0,0]*+", "--fields", "u", "--dim", "2")
        assert r.returncode == 2

    def test_power_overflow_one_line_failure(self):
        r = run_cli("euler-lagrange", "u[0]^100000")
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        assert r.stderr.strip().splitlines() == [
            "singular evaluation: non-finite value of u[0]^99999"]


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

    def test_out_of_range_usage_error(self):
        r = run_cli("noether", "toda", "--r", "9")
        assert r.returncode == 2


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

    def test_stability_warning(self):
        r = run_cli("integrate", "nls", "--dt", "0.1", "--x-span", "0,0.2")
        assert "stability bound" in r.stderr

    def test_difference_example_rejected(self):
        r = run_cli("integrate", "toda")
        assert r.returncode == 2


class TestOther:
    def test_invariantize(self):
        r = run_cli("invariantize", "toda", "u[2,1]")
        assert r.returncode == 0
        assert "iota" in r.stdout and "kappa" in r.stdout

    def test_syzygy(self):
        r = run_cli("syzygy", "nls", "--points", "25")
        assert r.returncode == 0

    def test_json_determinism(self):
        a = run_cli("--json", "--seed", "42", "verify", "toda", "--suite", "syzygy")
        b = run_cli("--json", "--seed", "42", "verify", "toda", "--suite", "syzygy")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_env_seed_override(self):
        a = run_cli("--json", "verify", "toda", "--suite", "syzygy",
                    env={"LATTICE_FRAMES_SEED": "17"})
        b = run_cli("--json", "--seed", "17", "verify", "toda", "--suite", "syzygy")
        assert a.stdout == b.stdout
