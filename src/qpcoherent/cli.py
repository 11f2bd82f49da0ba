"""Command-line front end: parameter sweeps, verification suites, exports.

Every command is deterministic for a fixed configuration; numeric output is
written in fixed 17-significant-digit scientific notation so reruns are
byte-identical and diffable. Exit codes: 0 success, 1 computational failure
(divergence, conditioning), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
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
from .errors import InvalidParameterError, QpcError
from .fock import build_operators, relation_residuals
from .qnumbers import DeformationParams, qp_sequence
from .unity import (
    WBAR_NOISE_LIMIT,
    WBAR_ROUNDING,
    format_float,
    resolution_residual,
    target_moments,
    weight_from_fourier,
    weight_from_moments,
    weight_to_csv,
    weight_to_json,
    write_table,
)

_fmt = format_float


def _fmt_complex_pair(v: complex) -> list[str]:
    return [_fmt(v.real), _fmt(v.imag)]


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")


# ----------------------------------------------------------------------
# commands


def _cmd_qnum(args) -> int:
    seq = qp_sequence(args.nmax, DeformationParams(args.q, args.p))
    header = ["n", "number_re", "number_im", "factorial_re", "factorial_im",
              "abs_factorial"]
    rows = []
    for n in range(args.nmax + 1):
        rows.append([str(n), *_fmt_complex_pair(seq.numbers[n]),
                     *_fmt_complex_pair(seq.factorials[n]),
                     _fmt(seq.abs_factorials[n])])
    write_table(header, rows, args.format, args.out or sys.stdout)
    return 0


def _cmd_exp(args) -> int:
    ctrl = SeriesControl(n_max=args.nmax_terms, tol=args.tol,
                         min_terms=args.min_terms)
    series = exp1 if args.which == 1 else exp2
    ev = series(args.x, DeformationParams(args.q, args.p), ctrl)
    header = ["which", "x_re", "x_im", "value_re", "value_im", "terms_used",
              "tail_bound", "verdict"]
    rows = [[str(args.which), *_fmt_complex_pair(args.x),
             *_fmt_complex_pair(ev.value), str(ev.terms_used),
             _fmt(ev.tail_bound), ev.verdict.value]]
    write_table(header, rows, args.format, args.out or sys.stdout)
    return 0


def _cmd_coherent(args) -> int:
    params = DeformationParams(args.q, args.p)
    state = make_state(args.z, params, dim=args.dim)
    ops = build_operators(state.dim, params) if state.dim >= 2 else None
    norm_sq = float(np.sum(np.abs(state.coeffs) ** 2))
    resid = annihilator_residual(state, ops) if ops is not None else 0.0
    header = ["z_re", "z_im", "dim", "norm_const", "norm_sq", "tail_bound",
              "annihilator_residual"]
    rows = [[*_fmt_complex_pair(args.z), str(state.dim), _fmt(state.norm_const),
             _fmt(norm_sq), _fmt(state.tail_bound), _fmt(resid)]]
    if args.coeffs:
        header = ["n", "coeff_re", "coeff_im"]
        rows = [[str(n), *_fmt_complex_pair(c)]
                for n, c in enumerate(state.coeffs)]
    write_table(header, rows, args.format, args.out or sys.stdout)
    return 0


def _cmd_fock_check(args) -> int:
    ops = build_operators(args.dim, DeformationParams(args.q, args.p))
    report = relation_residuals(ops)
    header = ["dim", "block_dim", "residual_qmutation", "residual_delta_comm",
              "residual_adag_comm", "residual_qp"]
    rows = [[str(args.dim), str(report.block_dim),
             _fmt(report.residual_qmutation), _fmt(report.residual_delta_comm),
             _fmt(report.residual_adag_comm), _fmt(report.residual_qp)]]
    write_table(header, rows, args.format, args.out or sys.stdout)
    return 0


def _cmd_weight(args) -> int:
    params = DeformationParams(args.q, args.p)
    if args.grid_points < 1:
        raise InvalidParameterError("--grid-points must be at least 1")
    radius = convergence_radius(params)
    if args.xmax is not None:
        if not 0 < args.xmax < math.inf:
            raise InvalidParameterError("--xmax must be positive and finite")
        if math.isfinite(radius) or args.method == "fourier":
            raise InvalidParameterError("--xmax applies only to the moments "
                                        "route where the radius is infinite")
    if args.method == "moments":
        moments = target_moments(params, args.nmax)
        weight = weight_from_moments(moments, args.degree,
                                     grid_points=args.grid_points,
                                     x_max=args.xmax)
    else:
        y_cut = args.ycut
        if y_cut is None:   # keep the Wbar cancellation below its gate
            y_cut = (math.log(WBAR_NOISE_LIMIT / WBAR_ROUNDING) / radius
                     if 0 < radius < math.inf else 60.0)
        span = radius if math.isfinite(radius) else 20.0
        x_grid = np.linspace(0.0, span, args.grid_points, endpoint=False)
        weight = weight_from_fourier(params, y_cut, args.damping, x_grid)
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
    span = radius if math.isfinite(radius) else 4.0

    @functools.cache   # label states share a few dimensions
    def operators(d):
        return build_operators(d, params)

    def fock_relations():
        report = relation_residuals(operators(dim))
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
                worst = max(worst, annihilator_residual(state, operators(state.dim)))
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
        rres = resolution_residual(weight(), params, min(dim, degree))
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


def _cmd_verify(args) -> int:
    if args.degree == 0:   # weight_from_moments rejects a negative degree
        raise InvalidParameterError("--degree must be at least 1")
    checks = _verify_checks(DeformationParams(args.q, args.p), args.dim,
                            args.degree)
    header = ["check", "value", "threshold", "passed", "note"]
    rows = [[c["check"],
             _fmt(c["value"]) if not math.isnan(c["value"]) else "",
             _fmt(c["threshold"]) if not math.isnan(c["threshold"]) else "",
             str(c["passed"]).lower(), c["note"]] for c in checks]
    write_table(header, rows, args.format, args.out or sys.stdout)
    return 0 if all(c["passed"] for c in checks) else 1


def _cmd_regimes(args) -> int:
    if args.prop == 2:
        rows = convergence.proposition2_check(
            convergence.default_parameter_grid())
        if args.format == "json":
            convergence.regime_report_to_json(rows, args.out or sys.stdout)
        else:
            convergence.regime_report_to_csv(rows, args.out or sys.stdout)
        bad = sum(r.contradiction for r in rows)
        return 0 if bad == 0 else 1
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
    write_table(header, table, args.format, args.out or sys.stdout)
    return 0 if ok else 1


# ----------------------------------------------------------------------
# parser


@functools.cache   # parse_args does not change the parser
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qpcoherent",
        description="Deformed-oscillator coherent states: tables, checks, sweeps.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, summary, params=True):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        if params:
            p.add_argument("--q", type=_parse_complex, default=1 + 0j,
                           help="deformation parameter q (complex literal)")
            p.add_argument("--p", type=_parse_complex, default=1 + 0j,
                           help="deformation parameter p (complex literal, nonzero)")
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(func=func)
        return p

    p = command("qnum", _cmd_qnum, "table of [n], [n]!, |[n]|!")
    p.add_argument("--nmax", type=int, default=12)

    p = command("exp", _cmd_exp, "evaluate a deformed exponential")
    p.add_argument("--which", type=int, choices=(1, 2), default=1)
    p.add_argument("--x", type=_parse_complex, default=1 + 0j)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--nmax-terms", dest="nmax_terms", type=int, default=500)
    p.add_argument("--min-terms", dest="min_terms", type=int, default=10)

    p = command("coherent", _cmd_coherent, "construct a coherent state")
    p.add_argument("--z", type=_parse_complex, default=0.5 + 0j)
    p.add_argument("--dim", type=int, default=None,
                   help="truncation (default: where the normalization tail "
                        "is certified)")
    p.add_argument("--coeffs", action="store_true",
                   help="dump the coefficient vector instead of the summary")

    p = command("fock-check", _cmd_fock_check, "algebra relation residuals")
    p.add_argument("--dim", type=int, default=20)

    p = command("weight", _cmd_weight, "recover the unity weight function")
    p.add_argument("--method", choices=("moments", "fourier"), default="moments")
    p.add_argument("--degree", type=int, default=12)
    p.add_argument("--nmax", type=int, default=24)
    p.add_argument("--ycut", type=float, default=None,
                   help="Fourier window (default: ln(1e-2/2.3e-16)/R, or 60 "
                        "where R is infinite)")
    p.add_argument("--damping", type=float, default=1e-3)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=513)
    p.add_argument("--xmax", type=float, default=None,
                   help="moments-route grid span where R is infinite "
                        "(default: max(20, 2 degree))")

    p = command("verify", _cmd_verify, "run the verification suite")
    p.add_argument("--dim", type=int, default=20)
    p.add_argument("--degree", type=int, default=12)

    p = command("regimes", _cmd_regimes, "convergence-regime sweep", params=False)
    p.add_argument("--prop", type=int, choices=(1, 2), default=2)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
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
    except OSError as exc:   # an --out path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
