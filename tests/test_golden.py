"""Golden reports: the command-line output for a fixed seed, byte for byte.

Each case runs ``cli.main`` in this process and compares its stdout and exit
code with a file under ``tests/golden/``.  Regenerate the files only for a
change that is meant to alter the output, and log that change in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from lattice_frames import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# file name, argv, exit code
CASES = [
    ("verify-toda.json", ["verify", "toda", "--suite", "all", "--json", "--seed", "31337"], 0),
    ("verify-ex81.json", ["verify", "ex81", "--suite", "all", "--json", "--seed", "31337"], 0),
    ("verify-nls.json", ["verify", "nls", "--suite", "all", "--json", "--seed", "31337"], 0),
    ("noether-toda-r2.json", ["noether", "toda", "--r", "2", "--json"], 0),
    ("noether-ex81-r2.json", ["noether", "ex81", "--r", "2", "--json"], 0),
    ("noether-nls-r1.json", ["noether", "nls", "--r", "1", "--json"], 0),
    ("noether-toda-r4.txt", ["noether", "toda", "--r", "4"], 0),
    ("syzygy-toda.json", ["syzygy", "toda", "--json"], 0),
    ("integrate-nls.json", ["integrate", "nls", "--json"], 0),
]


def _run(argv):
    """``cli.main(argv)`` with its captured stdout and exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return out.getvalue(), code


@pytest.mark.parametrize("name, argv, code", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden_file(name, argv, code, monkeypatch):
    monkeypatch.delenv("LATTICE_FRAMES_SEED", raising=False)
    stdout, got = _run(argv)
    assert got == code
    assert stdout == (GOLDEN / name).read_text()


if __name__ == "__main__":
    for name, argv, code in CASES:
        stdout, got = _run(argv)
        if got != code:
            sys.exit(f"{' '.join(argv)}: exit {got}, expected {code}")
        (GOLDEN / name).write_text(stdout)
