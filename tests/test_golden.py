"""Byte-level regression set for the command line.

``golden_cli.json`` holds, for a fixed list of CLI commands, the sha256 of
the command's stdout and its exit code. Each command runs in a fresh Python
process. Only stdout is hashed: stderr can carry a file path (warning
locations). Floating-point output depends on the Python and numpy builds, so
the test runs only on the versions the file was recorded with.

To record the file again (only when an output change is intended and written
down), run from the repository root:

    PYTHONPATH=src python tests/test_golden.py --record

It prints every command whose hash or exit code changed, old -> new.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qpcoherent.cli import main

DATA = Path(__file__).with_name("golden_cli.json")
SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = [
    ["qnum", "--q", "0.5", "--p", "1", "--nmax", "20"],
    ["qnum", "--q", "0.7+0.2j", "--p", "1.3-0.4j", "--nmax", "40"],
    ["qnum", "--q", "-0.5", "--p", "1", "--nmax", "15"],
    ["qnum", "--q", "0", "--p", "2", "--nmax", "10"],
    ["qnum", "--q", "1", "--p", "1", "--nmax", "12"],
    ["qnum", "--q", "0.5", "--p", "2", "--nmax", "30"],
    ["qnum", "--q", "1j", "--p", "1j", "--nmax", "12"],
    ["qnum", "--q", "3", "--p", "1", "--nmax", "200"],
    ["qnum", "--q", "0.5+0.5j", "--p", "1", "--nmax", "25", "--format", "json"],
    # next to the classical point, and q = 0 on the degenerate set: no [n]
    # there is a resonance
    ["qnum", "--q", "1", "--p", "1.000000000002", "--nmax", "5"],
    ["qnum", "--q", "0", "--p", "1e13", "--nmax", "4"],
    ["exp", "--which", "1", "--x", "1", "--q", "0.5", "--p", "1"],
    ["exp", "--which", "2", "--x", "1", "--q", "0.5", "--p", "1"],
    ["exp", "--which", "1", "--x", "-1.5", "--q", "0.9", "--p", "1"],
    ["exp", "--which", "2", "--x", "-0.8", "--q", "0.5+0.3j", "--p", "1"],
    ["exp", "--which", "1", "--x", "-5", "--q", "1", "--p", "1"],
    ["exp", "--which", "2", "--x", "0.3+0.4j", "--q", "1", "--p", "1.5"],
    ["exp", "--which", "1", "--x", "3", "--q", "0.5", "--p", "1"],
    ["exp", "--which", "1", "--x", "1", "--q", "1j", "--p", "1j"],
    ["coherent", "--q", "0.5", "--p", "1", "--z", "0.6", "--coeffs"],
    ["coherent", "--q", "0.8+0.3j", "--p", "1", "--z", "0.4+0.3j", "--coeffs"],
    ["coherent", "--q", "1", "--p", "1", "--z", "0.3", "--dim", "1", "--coeffs"],
    ["coherent", "--q", "1", "--p", "1.5", "--z", "1"],
    ["fock-check", "--q", "0.5", "--p", "1", "--dim", "20"],
    ["fock-check", "--q", "0.7+0.2j", "--p", "1.2", "--dim", "15"],
    ["fock-check", "--q", "1", "--p", "1", "--dim", "10"],
    ["verify", "--q", "0.5", "--p", "1"],
    ["verify", "--q", "0.99", "--p", "1"],
    ["verify", "--q", "1", "--p", "1.5"],
    ["weight", "--q", "0.5", "--p", "1"],
    ["weight", "--q", "0.5", "--p", "1", "--format", "json"],
    ["weight", "--q", "0.5", "--p", "1", "--method", "fourier", "--ycut", "12",
     "--damping", "2e-2"],
    ["weight", "--q", "0.5", "--p", "1", "--method", "fourier", "--ycut", "12",
     "--damping", "2e-2", "--format", "json"],
    ["weight", "--q", "1", "--p", "1", "--method", "fourier", "--format", "json"],
    # Fourier grids of G = 7, 514, 516 and 1027 (past one x-row chunk of the
    # transform), a quon that needs 8 panels, and a CSV with its wtilde_imag
    # column
    *(["weight", "--q", "0.5", "--p", "1", "--method", "fourier", "--ycut", "12",
       "--damping", "2e-2", "--grid-points", g, "--format", "json"]
      for g in ("7", "514", "516", "1027")),
    ["weight", "--q", "0.5", "--p", "1", "--method", "fourier", "--ycut", "15",
     "--damping", "2e-3", "--format", "json"],
    ["weight", "--q", "0.3", "--p", "1", "--method", "fourier", "--ycut", "16",
     "--damping", "1e-2", "--grid-points", "1025"],
    ["regimes", "--prop", "1"],
    ["regimes", "--prop", "1", "--format", "json"],
    ["regimes", "--prop", "2"],
    ["regimes", "--prop", "2", "--format", "json"],
    # physical-weight branches of the moments-route CSV: the degenerate
    # bracket, lambda = 1 with an upper bound, and |w| = 1 (a two-term streak)
    ["weight", "--q", "1", "--p", "1"],
    ["weight", "--q", "0.8775825618903728+0.479425538604203j",
     "--p", "0.6483627670417677+1.0097651817694757j"],
    ["weight", "--q", "0.8775825618903728+0.479425538604203j", "--p", "1"],
]


def _versions():
    return {"python": platform.python_version(), "numpy": np.__version__}


def _run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "qpcoherent.cli", *argv],
                          capture_output=True, env=env, check=False)
    return {"argv": argv, "sha256": hashlib.sha256(proc.stdout).hexdigest(),
            "exit": proc.returncode}


def _load():
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(argv):
    golden = _load()
    recorded = {k: golden[k] for k in ("python", "numpy")}
    if recorded != _versions():
        pytest.skip(f"golden output recorded with {recorded}, running {_versions()}")
    entry = next(e for e in golden["commands"] if e["argv"] == argv)
    assert _run(argv) == entry


def test_cli_output_matches_golden_in_one_process():
    # forward, then reversed: no parser or [n] store state may leak between
    # calls of cli.main in one interpreter
    golden = _load()
    recorded = {k: golden[k] for k in ("python", "numpy")}
    if recorded != _versions():
        pytest.skip(f"golden output recorded with {recorded}, running {_versions()}")
    for entry in golden["commands"] + golden["commands"][::-1]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(entry["argv"])
        got = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert (got, code) == (entry["sha256"], entry["exit"]), entry["argv"]


def test_golden_file_lists_every_command():
    assert [e["argv"] for e in _load()["commands"]] == COMMANDS


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    before = {tuple(e["argv"]): e for e in _load()["commands"]} if DATA.exists() else {}
    entries = [_run(a) for a in COMMANDS]
    for entry in entries:
        old = before.get(tuple(entry["argv"]))
        if old != entry:
            was = f"{old['sha256']} exit {old['exit']}" if old else "new"
            print(f"{' '.join(entry['argv'])}\n  {was} -> "
                  f"{entry['sha256']} exit {entry['exit']}")
    DATA.write_text(json.dumps({**_versions(), "commands": entries},
                               indent=1) + "\n", encoding="utf-8")
