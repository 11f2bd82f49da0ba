"""Command-line front end: parameter sweeps, verification suites, exports.

Every command is deterministic for a fixed configuration; numeric output is
written in fixed 17-significant-digit scientific notation so reruns are
byte-identical and diffable. Exit codes: 0 success, 1 computational failure
(divergence, conditioning), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import convergence
from .coherent import (
    annihilator_residual,
    label_distance_sq,
    make_state,
    overlap,
)
from .defexp import SeriesControl, convergence_radius, exp1, exp2
from .errors import InvalidParameterError, LabelOutOfDiskError, QpcError
from .fock import build_operators, relation_residuals
from .qnumbers import DeformationParams, qp_sequence
from .unity import (
    QuadratureSpec,
    format_float,
    open_output,
    resolution_residual,
    target_moments,
    weight_from_fourier,
    weight_from_moments,
    weight_to_csv,
    weight_to_json,
)

CONFIG_ENV = "QPCOHERENT_CONFIG"

_fmt = format_float


def _fmt_complex_pair(v: complex) -> list[str]:
    return [_fmt(v.real), _fmt(v.imag)]


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")


def _load_config(path: Optional[str]) -> dict:
    path = path or os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    cfg = {}
    for key, value in raw.items():
        if isinstance(value, list) and len(value) == 2:
            cfg[key] = complex(value[0], value[1])
        else:
            cfg[key] = value
    return cfg


def _setting(args, config: dict, name: str, default):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        value = config[name]
        if isinstance(default, complex) and not isinstance(value, complex):
            return complex(value)
        return value
    return default


def _params_from(args, config) -> DeformationParams:
    q = _setting(args, config, "q", 1.0 + 0.0j)
    p = _setting(args, config, "p", 1.0 + 0.0j)
    return DeformationParams(q=complex(q), p=complex(p))


def _emit_rows(header: list[str], rows: list[list[str]], args) -> None:
    with open_output(args.out or sys.stdout) as out:
        if args.format == "json":
            payload = [dict(zip(header, row)) for row in rows]
            out.write(json.dumps(payload, indent=2) + "\n")
        else:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)


# ----------------------------------------------------------------------
# commands


def _cmd_qnum(args, config) -> int:
    params = _params_from(args, config)
    n_max = int(_setting(args, config, "nmax", 12))
    seq = qp_sequence(n_max, params)
    header = ["n", "number_re", "number_im", "factorial_re", "factorial_im",
              "abs_factorial"]
    rows = []
    for n in range(n_max + 1):
        rows.append([str(n), *_fmt_complex_pair(seq.numbers[n]),
                     *_fmt_complex_pair(seq.factorials[n]),
                     _fmt(seq.abs_factorials[n])])
    _emit_rows(header, rows, args)
    return 0


def _cmd_exp(args, config) -> int:
    params = _params_from(args, config)
    which = int(_setting(args, config, "which", 1))
    if which not in (1, 2):
        raise InvalidParameterError("--which must be 1 or 2")
    x = complex(_setting(args, config, "x", 1.0 + 0.0j))
    ctrl = SeriesControl(
        n_max=int(_setting(args, config, "nmax_terms", 500)),
        tol=float(_setting(args, config, "tol", 1e-12)),
        min_terms=int(_setting(args, config, "min_terms", 10)),
    )
    ev = (exp1 if which == 1 else exp2)(x, params, ctrl)
    header = ["which", "x_re", "x_im", "value_re", "value_im", "terms_used",
              "tail_bound", "verdict"]
    rows = [[str(which), *_fmt_complex_pair(x), *_fmt_complex_pair(ev.value),
             str(ev.terms_used), _fmt(ev.tail_bound), ev.verdict.value]]
    _emit_rows(header, rows, args)
    return 0


def _cmd_coherent(args, config) -> int:
    params = _params_from(args, config)
    z = complex(_setting(args, config, "z", 0.5 + 0.0j))
    dim = _setting(args, config, "dim", None)
    state = make_state(z, params, dim=int(dim) if dim is not None else None)
    ops = build_operators(state.dim, params) if state.dim >= 2 else None
    norm_sq = float(np.sum(np.abs(state.coeffs) ** 2))
    resid = annihilator_residual(state, ops) if ops is not None else 0.0
    header = ["z_re", "z_im", "dim", "norm_const", "norm_sq", "tail_bound",
              "annihilator_residual"]
    rows = [[*_fmt_complex_pair(z), str(state.dim), _fmt(state.norm_const),
             _fmt(norm_sq), _fmt(state.tail_bound), _fmt(resid)]]
    if getattr(args, "coeffs", False):
        header = ["n", "coeff_re", "coeff_im"]
        rows = [[str(n), *_fmt_complex_pair(c)]
                for n, c in enumerate(state.coeffs)]
    _emit_rows(header, rows, args)
    return 0


def _cmd_fock_check(args, config) -> int:
    params = _params_from(args, config)
    dim = int(_setting(args, config, "dim", 20))
    report = relation_residuals(build_operators(dim, params))
    header = ["dim", "block_dim", "residual_qmutation", "residual_delta_comm",
              "residual_adag_comm", "residual_qp"]
    rows = [[str(dim), str(report.block_dim), _fmt(report.residual_qmutation),
             _fmt(report.residual_delta_comm), _fmt(report.residual_adag_comm),
             _fmt(report.residual_qp)]]
    _emit_rows(header, rows, args)
    return 0


def _cmd_weight(args, config) -> int:
    params = _params_from(args, config)
    method = str(_setting(args, config, "method", "moments"))
    if method not in ("moments", "fourier"):
        raise InvalidParameterError(f"unknown method {method!r}")
    grid_points = int(_setting(args, config, "grid_points", 513))
    if method == "moments":
        n_max = int(_setting(args, config, "nmax", 24))
        degree = int(_setting(args, config, "degree", 12))
        moments = target_moments(params, n_max)
        x_max = _setting(args, config, "xmax", None)
        weight = weight_from_moments(moments, degree, grid_points=grid_points,
                                     x_max=float(x_max) if x_max else None)
    else:
        y_cut = float(_setting(args, config, "ycut", 60.0))
        damping = float(_setting(args, config, "damping", 1e-3))
        radius = convergence_radius(params)
        span = radius if math.isfinite(radius) else 20.0
        x_grid = np.linspace(0.0, span, grid_points, endpoint=False)
        weight = weight_from_fourier(params, y_cut, damping, x_grid)
    if args.format == "json":
        weight_to_json(weight, args.out or sys.stdout)
    else:
        weight_to_csv(weight, params, args.out or sys.stdout)
    return 0


def _verify_checks(params: DeformationParams, dim: int, degree: int) -> list[dict]:
    """One row per check; a check that raises a library error is a failed row
    naming it, and the checks after it still run."""
    checks: list[dict] = []

    def record(name, value, threshold, passed, note=""):
        checks.append({"check": name, "value": value, "threshold": threshold,
                       "passed": bool(passed), "note": note})

    regime = convergence.classify_regime(params)
    regime_ok = regime is not convergence.Regime.OUTSIDE
    record("regime", math.nan, math.nan, regime_ok,
           regime.value if regime_ok else "Outside Proposition 2")
    if not regime_ok:
        return checks

    radius = convergence_radius(params)
    if radius == 0.0:
        # q p = 1 with |q| < 1: no label exists, so no check can run
        raise LabelOutOfDiskError("|z|^2 = 0 >= convergence radius 0")
    span = radius if math.isfinite(radius) else 4.0

    def fock_relations():
        report = relation_residuals(build_operators(dim, params))
        worst = max(report.residual_qmutation, report.residual_delta_comm,
                    report.residual_adag_comm, report.residual_qp)
        return worst, 1e-12, worst <= 1e-12

    @functools.cache
    def label_states():
        return [make_state(math.sqrt(f * span) * complex(math.cos(t), math.sin(t)),
                           params)
                for f in (0.2, 0.5, 0.8) for t in (0.0, 1.1, 2.4, 4.0)]

    def normalization():
        worst = 0.0
        for state in label_states():
            worst = max(worst,
                        abs(float(np.sum(np.abs(state.coeffs) ** 2)) - 1.0))
        return worst, 1e-10, worst <= 1e-10

    def annihilator():
        worst, budget = 0.0, math.inf
        for state in label_states():
            if state.dim >= 2:
                ops = build_operators(state.dim, params)
                worst = max(worst, annihilator_residual(state, ops))
                budget = min(budget, max(1e-10, 10.0 * state.tail_bound))
        return worst, budget, worst <= budget

    def continuity():
        z0 = math.sqrt(0.4 * span)
        dists = [label_distance_sq(make_state(z0, params),
                                   make_state(z0 + d, params))
                 for d in (1e-2, 1e-3, 1e-4)]
        monotone = all(b < a for a, b in zip(dists, dists[1:]))
        return dists[-1], 1e-6, monotone and dists[-1] <= 1e-6

    def overlap_consistency():
        s1 = make_state(0.3 * math.sqrt(span), params)
        s2 = make_state(0.45 * math.sqrt(span)
                        * complex(math.cos(0.7), math.sin(0.7)), params)
        gamma = overlap(s1, s2)  # raises on closed-form disagreement
        return abs(gamma), 1.0, abs(gamma) <= 1.0 + 1e-10

    @functools.cache
    def weight():
        moments = target_moments(params, max(2 * degree, degree + 4))
        return weight_from_moments(moments, degree)

    def moment_residuals():
        mres = float(np.max(weight().diagnostics["moment_residuals"]))
        return mres, 1e-6, mres <= 1e-6

    def resolution():
        rres = resolution_residual(weight(), params, min(dim, degree),
                                   QuadratureSpec())
        return rres, 1e-4, rres <= 1e-4

    for name, check in (("fock_relations", fock_relations),
                        ("normalization", normalization),
                        ("annihilator", annihilator),
                        ("continuity", continuity),
                        ("overlap_consistency", overlap_consistency),
                        ("moment_residuals", moment_residuals),
                        ("resolution_residual", resolution)):
        try:
            value, threshold, passed = check()
        except InvalidParameterError:
            raise  # a usage error, not a failed check
        except QpcError as exc:
            record(name, math.nan, math.nan, False,
                   f"{type(exc).__name__}: {exc}")
        else:
            record(name, value, threshold, passed)
    return checks


def _cmd_verify(args, config) -> int:
    params = _params_from(args, config)
    dim = int(_setting(args, config, "dim", 20))
    degree = int(_setting(args, config, "degree", 12))
    checks = _verify_checks(params, dim, degree)
    header = ["check", "value", "threshold", "passed", "note"]
    rows = [[c["check"],
             _fmt(c["value"]) if not math.isnan(c["value"]) else "",
             _fmt(c["threshold"]) if not math.isnan(c["threshold"]) else "",
             str(c["passed"]).lower(), c["note"]] for c in checks]
    _emit_rows(header, rows, args)
    return 0 if all(c["passed"] for c in checks) else 1


def _cmd_regimes(args, config) -> int:
    prop = int(_setting(args, config, "prop", 2))
    if prop == 2:
        rows = convergence.proposition2_check(
            convergence.default_parameter_grid())
        if args.format == "json":
            convergence.regime_report_to_json(rows, args.out or sys.stdout)
        else:
            convergence.regime_report_to_csv(rows, args.out or sys.stdout)
        bad = sum(r.contradiction for r in rows)
        return 0 if bad == 0 else 1
    if prop == 1:
        header = ["Q_re", "Q_im", "y", "verdict", "estimate", "expected",
                  "consistent", "skipped"]
        table = []
        ok = True
        for modulus in (0.5, 0.9, 1.1, 2.0):
            for j in range(10):
                theta = 0.25 + 0.28 * j
                Q = modulus * complex(math.cos(theta), math.sin(theta))
                for row in convergence.proposition1_check(Q, (1.0,)):
                    ok = ok and row.consistent
                    table.append([
                        *_fmt_complex_pair(row.Q), _fmt(row.y),
                        row.verdict.value if row.verdict else "Skipped",
                        _fmt(row.estimate), row.expected.value,
                        str(row.consistent).lower(), row.skipped or ""])
        _emit_rows(header, table, args)
        return 0 if ok else 1
    raise InvalidParameterError("--prop must be 1 or 2")


# ----------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qpcoherent",
        description="Deformed-oscillator coherent states: tables, checks, sweeps.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--q", type=_parse_complex, default=None,
                       help="deformation parameter q (complex literal)")
        p.add_argument("--p", type=_parse_complex, default=None,
                       help="deformation parameter p (complex literal, nonzero)")
        p.add_argument("--config", default=None,
                       help=f"JSON config file (or ${CONFIG_ENV})")
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("qnum", help="table of [n], [n]!, |[n]|!")
    common(p)
    p.add_argument("--nmax", type=int, default=None)
    p.set_defaults(func=_cmd_qnum)

    p = sub.add_parser("exp", help="evaluate a deformed exponential")
    common(p)
    p.add_argument("--which", type=int, choices=(1, 2), default=None)
    p.add_argument("--x", type=_parse_complex, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--nmax-terms", dest="nmax_terms", type=int, default=None)
    p.add_argument("--min-terms", dest="min_terms", type=int, default=None)
    p.set_defaults(func=_cmd_exp)

    p = sub.add_parser("coherent", help="construct a coherent state")
    common(p)
    p.add_argument("--z", type=_parse_complex, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--coeffs", action="store_true",
                   help="dump the coefficient vector instead of the summary")
    p.set_defaults(func=_cmd_coherent)

    p = sub.add_parser("fock-check", help="algebra relation residuals")
    common(p)
    p.add_argument("--dim", type=int, default=None)
    p.set_defaults(func=_cmd_fock_check)

    p = sub.add_parser("weight", help="recover the unity weight function")
    common(p)
    p.add_argument("--method", choices=("moments", "fourier"), default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--ycut", type=float, default=None)
    p.add_argument("--damping", type=float, default=None)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=None)
    p.add_argument("--xmax", type=float, default=None)
    p.set_defaults(func=_cmd_weight)

    p = sub.add_parser("verify", help="run the verification suite")
    common(p)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("regimes", help="convergence-regime sweep")
    common(p)
    p.add_argument("--prop", type=int, choices=(1, 2), default=None)
    p.set_defaults(func=_cmd_regimes)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        config = _load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, config)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QpcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream consumer (head, etc.) closed the pipe; leave quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
