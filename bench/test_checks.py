"""Each output check accepts the program's output and rejects a perturbed one.

Run from the repository root:

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from run import prepare  # noqa: E402

import qpcoherent.cli as cli  # noqa: E402
from qpcoherent import DeformationParams, convergence  # noqa: E402


def _first_round(name):
    return workloads.WORKLOADS[name].make_round(random.Random(f"{name}:0"))


def _op(name, kind):
    return next(op for op in _first_round(name) if op.kind == kind)


def _output(op):
    rc, out = prepare(op, cli, convergence, DeformationParams)()
    assert rc == 0
    return out


def _scale_cell(text, row, col, factor=None, value=None):
    rows = list(csv.reader(io.StringIO(text)))
    cell = rows[row + 1][col]
    rows[row + 1][col] = value if value is not None else f"{float(cell) * factor:.16e}"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _rejects(op, out):
    with pytest.raises(checks.CheckFailure):
        checks.check(op, out, deep=True)


WEIGHT_KINDS = ("weight_quon", "weight_regime_i", "weight_regime_ii",
                "weight_classical")


@pytest.mark.parametrize("kind", WEIGHT_KINDS)
def test_weight_checks(kind):
    op = max((op for op in _first_round("weight_grid") if op.kind == kind),
             key=lambda op: op.spec["grid"])
    out = _output(op)
    checks.check(op, out, deep=True)
    last = op.spec["grid"] - 1
    _rejects(op, _scale_cell(out, 3, 0, 1 + 1e-12))        # x column
    _rejects(op, _scale_cell(out, 0, 1, 1 + 1e-6))         # wtilde
    _rejects(op, _scale_cell(out, last, 2, 1 + 1e-7))      # w_physical, edge


@pytest.mark.parametrize("kind", ("fourier_quon", "fourier_classical"))
def test_fourier_checks(kind):
    op = _op("fourier_inversion", kind)
    out = _output(op)
    checks.check(op, out, deep=True)
    grid = op.spec["grid"]
    for key, i, rel in (("wtilde", grid // 3, 1e-5), ("x", 5, 1e-12)):
        payload = json.loads(out)
        values = payload["grid"][key]
        bump = rel * max(abs(float(v)) for v in values)
        values[i] = f"{float(values[i]) + bump:.16e}"
        _rejects(op, json.dumps(payload))


def test_verify_check():
    op = _op("klauder_verify", "verify")
    out = _output(op)
    checks.check(op, out, deep=True)
    _rejects(op, _scale_cell(out, 2, 3, value="false"))
    _rejects(op, _scale_cell(out, 6, 1, value="2e-6"))


@pytest.mark.parametrize("kind,row,col,factor", [
    ("coherent", 0, 3, 1 + 1e-9),      # norm_const
    ("exp", 0, 3, 1 + 1e-8),           # value_re
    ("qnum", 5, 1, 1 + 1e-9),          # number_re of [5]
    ("qnum", 7, 5, 1 + 1e-9),          # abs_factorial of [7]
    ("fock_check", 0, 5, 1e3),         # residual_qp
])
def test_klauder_minority_checks(kind, row, col, factor):
    op = _op("klauder_verify", kind)
    out = _output(op)
    checks.check(op, out, deep=True)
    _rejects(op, _scale_cell(out, row, col, factor))


def test_regime_checks():
    op = _op("regime_sweep", "prop2")
    out = _output(op)
    checks.check(op, out, deep=True)
    strata = [s for s, _, _ in op.spec["points"]]
    conv = strata.index("RegimeI")
    outside = strata.index("both_inside")
    _rejects(op, _scale_cell(out, conv, 7, value="Divergent"))
    est = out.splitlines()[conv + 1].split(",")[8].split(";")
    est[0] = f"{float(est[0]) + 2e-3:.16e}"
    _rejects(op, _scale_cell(out, conv, 8, value=";".join(est)))
    row = out.splitlines()[outside + 1].split(",")
    flipped = out
    for col in (5, 6, 7):
        if row[col] == "Divergent":
            flipped = _scale_cell(flipped, outside, col, value="Convergent")
    _rejects(op, flipped)


def test_prop1_check():
    op = _op("regime_sweep", "prop1")
    rows = _output(op)
    checks.check(op, rows, deep=True)
    conv = next(v for v in convergence.RatioVerdict if v.value == "Convergent")
    _rejects(op, [dataclasses.replace(rows[0], verdict=conv)] + rows[1:])
