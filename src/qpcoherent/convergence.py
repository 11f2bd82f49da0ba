"""Regime classification and numerical ratio tests for the three series.

The deformed exponentials and the Wbar series converge simultaneously in two
parameter regimes, (i) |q| <= 1 with |p| = 1 and (ii) |q| = 1 with |p| >= 1;
outside them at least one of the series diverges. The tests here corroborate
that numerically with median ratio estimates computed from log-magnitude term
sequences (so super-exponential growth never overflows). They are indications,
not proof; verdicts near |ratio| = 1 are honestly Inconclusive.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .defexp import convergence_radius, growth_rate
from .errors import InvalidParameterError
from .qnumbers import DeformationParams, log_abs_numbers
from .unity import format_float, open_output

MODULUS_TOL = 1e-9
DEFAULT_WINDOW = 50


class Regime(Enum):
    REGIME_I = "RegimeI"
    REGIME_II = "RegimeII"
    DEGENERATE = "Degenerate"
    OUTSIDE = "Outside"


class RatioVerdict(Enum):
    CONVERGENT = "Convergent"
    DIVERGENT = "Divergent"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class RatioTestResult:
    verdict: RatioVerdict
    estimate: float
    sigma: float
    n_ratios: int


@dataclass(frozen=True)
class Prop1Row:
    Q: complex
    y: float
    verdict: Optional[RatioVerdict]
    estimate: float
    expected: RatioVerdict
    consistent: bool
    skipped: Optional[str] = None


@dataclass(frozen=True)
class RegimeVerdict:
    """One sweep row: classification, per-series verdicts and ratio
    estimates, boundary margin and contradiction flag, as the reports print
    them."""

    params: DeformationParams
    regime: Regime
    v_exp1: Optional[RatioVerdict]
    v_exp2: Optional[RatioVerdict]
    v_wbar: Optional[RatioVerdict]
    estimates: tuple[float, float, float]
    boundary_margin: float
    contradiction: bool
    note: str = ""


def classify_regime(params: DeformationParams) -> Regime:
    """Case analysis on (|q|, |p|) with a 1e-9 tolerance band."""
    if params.is_degenerate:
        return Regime.DEGENERATE
    aq = abs(params.q)
    ap = abs(params.p)
    if aq <= 1.0 + MODULUS_TOL and abs(ap - 1.0) <= MODULUS_TOL:
        return Regime.REGIME_I
    if abs(aq - 1.0) <= MODULUS_TOL and ap >= 1.0 - MODULUS_TOL:
        return Regime.REGIME_II
    return Regime.OUTSIDE


def boundary_margin(params: DeformationParams) -> float:
    """Distance of the deformed-number growth rate max(|q|, 1/|p|) from 1.

    Points in the two convergence regimes sit exactly at the marginal rate
    and are decided by the factorial damping of the series, so they carry a
    zero margin by construction. Outside points with a tiny nonzero margin
    are the genuinely hard band: their asymptotic behavior only emerges
    beyond any fixed term budget, so Inconclusive verdicts are honest there.
    """
    return abs(growth_rate(params) - 1.0)


def ratio_test_logmag(log_terms: np.ndarray, window: int = DEFAULT_WINDOW) -> RatioTestResult:
    """Median-based lim sup |t_{n+1}/t_n| estimate from log-magnitudes.

    The 3-sigma decision band is applied on the log scale, which agrees with
    the linear-scale band to first order once the ratios have settled and
    stays meaningful when they grow without bound.
    """
    logs = np.asarray(log_terms, dtype=float)
    return _ratio_kernel(logs[np.isfinite(logs)][np.newaxis], window)[0]


def _ratio_kernel(logs: np.ndarray, window: int) -> list[RatioTestResult]:
    # the ratio test on each row of a 2-D array of finite log-magnitudes
    if logs.shape[1] < 2 * window:
        raise InvalidParameterError(
            f"need at least {2 * window} finite nonzero terms, got {logs.shape[1]}"
        )
    log_ratios = np.diff(logs, axis=1)[:, -window:]
    meds = np.median(log_ratios, axis=1).tolist()
    sigs = np.std(log_ratios, axis=1).tolist()
    results = []
    for med, sig in zip(meds, sigs):
        if med < -3.0 * sig:
            verdict = RatioVerdict.CONVERGENT
        elif med > 3.0 * sig:
            verdict = RatioVerdict.DIVERGENT
        else:
            verdict = RatioVerdict.INCONCLUSIVE
        results.append(RatioTestResult(
            verdict=verdict, estimate=math.exp(med), sigma=sig,
            n_ratios=log_ratios.shape[1]))
    return results


# ----------------------------------------------------------------------
# log-magnitude term sequences for the three series


# Each takes cum = cumsum(log|[n]|), n = 1..count, and gives one row of
# log|t_n|, n = 0..count, per sample point.


def _log_factorials(count: int) -> np.ndarray:
    return np.array([math.lgamma(k + 1) for k in range(1, count + 1)])


def _wbar_log_terms(cum: np.ndarray, ys: Sequence[float],
                    lgam: np.ndarray) -> np.ndarray:
    if any(y == 0 for y in ys):
        raise InvalidParameterError("y must be nonzero for a ratio test")
    n = np.arange(1, len(cum) + 1, dtype=float)
    log_y = np.array([math.log(abs(y)) for y in ys]).reshape(-1, 1)
    logs = cum + n * log_y - lgam - math.log(math.pi)
    return np.hstack([np.full((len(ys), 1), -math.log(math.pi)), logs])


def _exp_log_terms(cum: np.ndarray, xs: Sequence[float]) -> np.ndarray:
    # |x**n / [n]!| and x**n / |[n]|! have identical magnitudes, so one
    # sequence serves both deformed exponentials
    n = np.arange(1, len(cum) + 1, dtype=float)
    log_x = np.array([math.log(abs(x)) for x in xs]).reshape(-1, 1)
    return np.hstack([np.zeros((len(xs), 1)), n * log_x - cum])


# ----------------------------------------------------------------------
# proposition checks


def proposition1_check(Q: complex, y_samples: Sequence[float]) -> list[Prop1Row]:
    """Wbar ratio tests for the symmetric one-parameter deformation.

    Expected behavior: Divergent for |Q| != 1, Convergent on the unit circle
    away from roots of unity. Root-of-unity resonances are skipped with a
    notation instead of producing a misleading verdict. Each test reads 400
    terms and the last 100 ratios.
    """
    Q = complex(Q)
    if Q == 0 or Q == 1 or Q == -1:
        raise InvalidParameterError("Q must differ from 0 and +-1")
    params = DeformationParams(q=Q, p=Q)
    on_circle = abs(abs(Q) - 1.0) <= MODULUS_TOL
    expected = RatioVerdict.CONVERGENT if on_circle else RatioVerdict.DIVERGENT
    ys = [float(y) for y in y_samples]
    logs = log_abs_numbers(params, 400)
    if np.isneginf(logs).any():   # a flagged (vanishing) [n]
        return [Prop1Row(Q=Q, y=y, verdict=None, estimate=math.nan,
                         expected=expected, consistent=True,
                         skipped="root-of-unity degeneracy") for y in ys]
    results = _ratio_kernel(
        _wbar_log_terms(np.cumsum(logs), ys, _log_factorials(400)), 100)
    return [Prop1Row(Q=Q, y=y, verdict=res.verdict, estimate=res.estimate,
                     expected=expected, consistent=res.verdict is expected)
            for y, res in zip(ys, results)]


_ORDER = {RatioVerdict.CONVERGENT: 0, RatioVerdict.INCONCLUSIVE: 1,
          RatioVerdict.DIVERGENT: 2}


def _worst(verdicts: list[RatioVerdict]) -> RatioVerdict:
    return max(verdicts, key=lambda v: _ORDER[v])


def proposition2_check(grid: Sequence[DeformationParams],
                       y_samples: Sequence[float] = (0.5, 1.0, 2.0)
                       ) -> list[RegimeVerdict]:
    """Classify every grid point and ratio-test all three series there.

    Each test reads 300 terms and the last DEFAULT_WINDOW ratios. The exp
    series are sampled at x = R/2 inside the nominal disk (a fixed x = 2.5
    stands in when R is infinite or zero). A
    contradiction is a regime-(i)/(ii) point with a Divergent series, or an
    outside point where no series diverges; Inconclusive rows are flagged
    through the boundary margin instead.
    """
    if not grid:
        raise InvalidParameterError("grid must be nonempty")
    lgam = _log_factorials(300)
    rows = []
    for params in grid:
        regime = classify_regime(params)
        radius = convergence_radius(params)
        note = ""
        logs = log_abs_numbers(params, 300)
        if np.isneginf(logs).any():   # a flagged (vanishing) [n]
            rows.append(RegimeVerdict(
                params=params, regime=regime, v_exp1=None, v_exp2=None,
                v_wbar=None, estimates=(math.nan,) * 3,
                boundary_margin=boundary_margin(params),
                contradiction=False, note="root-of-unity degeneracy; skipped"))
            continue

        x = 0.5 * radius if 0 < radius < math.inf else 2.5
        cum = np.cumsum(logs)
        exp_res, *wbar_res = _ratio_kernel(np.vstack([
            _exp_log_terms(cum, [x]), _wbar_log_terms(cum, y_samples, lgam)]),
            DEFAULT_WINDOW)
        v_exp = exp_res.verdict
        v_wbar = _worst([r.verdict for r in wbar_res])

        if regime in (Regime.REGIME_I, Regime.REGIME_II):
            contradiction = (v_exp is RatioVerdict.DIVERGENT or
                             v_wbar is RatioVerdict.DIVERGENT)
        elif regime is Regime.OUTSIDE:
            contradiction = not (v_exp is RatioVerdict.DIVERGENT or
                                 v_wbar is RatioVerdict.DIVERGENT)
        else:
            contradiction = False
            note = "degenerate branch; not covered by the regime dichotomy"

        rows.append(RegimeVerdict(
            params=params, regime=regime, v_exp1=v_exp, v_exp2=v_exp,
            v_wbar=v_wbar,
            estimates=(exp_res.estimate, exp_res.estimate,
                       max(r.estimate for r in wbar_res)),
            boundary_margin=boundary_margin(params),
            contradiction=contradiction, note=note))
    return rows


def default_parameter_grid() -> list[DeformationParams]:
    """Deterministic 100-point sweep covering both regimes and all outside cases.

    Points keep a margin of at least 0.05 from the regime boundaries and from
    the degenerate set, so every verdict is expected to be decisive.
    """
    pts: list[DeformationParams] = []

    def add(q_mod, q_phase, p_mod, p_phase):
        q = q_mod * complex(math.cos(q_phase), math.sin(q_phase))
        p = p_mod * complex(math.cos(p_phase), math.sin(p_phase))
        pts.append(DeformationParams(q=q, p=p))

    for q_mod in (0.3, 0.55, 0.8, 0.95):            # regime (i): 36 points
        for q_phase in (0.0, 0.9, 2.1):
            for p_phase in (0.4, 1.7, 2.9):
                add(q_mod, q_phase, 1.0, p_phase)
    for q_phase in (0.3, 1.1, 2.4):                 # regime (ii): 18 points
        for p_mod in (1.15, 1.5, 2.2):
            for p_phase in (0.6, 2.0):
                add(1.0, q_phase, p_mod, p_phase)
    for q_mod in (1.15, 1.6):                       # outside, |q| > 1: 8
        for q_phase in (0.5, 1.9):
            for p_phase in (0.8, 2.5):
                add(q_mod, q_phase, 1.0, p_phase)
    for q_mod in (0.5, 0.85):                       # outside, both inside: 8
        for p_mod in (0.5, 0.8):
            for phases in ((0.7, 1.3), (2.2, 0.5)):
                add(q_mod, phases[0], p_mod, phases[1])
    for q_mod in (0.45, 0.75):                      # outside, [n] -> 0: 8
        for p_mod in (1.3, 2.0):
            for phases in ((0.6, 1.1), (1.8, 2.6)):
                add(q_mod, phases[0], p_mod, phases[1])
    for q_mod in (0.45, 0.7, 0.9):                  # regime (i) fill: 6
        for p_phase in (0.9, 2.3):
            add(q_mod, 2.8, 1.0, p_phase)
    for q_phase in (0.85, 1.55):                    # regime (ii) fill: 4
        for p_mod in (1.25, 1.9):
            add(1.0, q_phase, p_mod, 1.2)
    for q_phase in (1.0, 2.2):                      # outside fill: 12
        for p_phase in (1.5, 0.3):
            add(1.3, q_phase, 1.0, p_phase)
    for q_mod in (0.6, 0.9):
        for p_mod in (0.55, 0.75):
            add(q_mod, 1.4, p_mod, 2.0)
    for p_mod in (1.4, 2.4):
        for p_phase in (0.2, 1.9):
            add(0.65, 0.35, p_mod, p_phase)
    assert len(pts) == 100
    return pts


# ----------------------------------------------------------------------
# report export


def _verdict_str(v: Optional[RatioVerdict]) -> str:
    return v.value if v is not None else "Skipped"


def regime_report_to_csv(rows: Sequence[RegimeVerdict], file_or_path) -> None:
    with open_output(file_or_path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["q_re", "q_im", "p_re", "p_im", "regime",
                         "v_exp1", "v_exp2", "v_wbar", "ratio_estimates"])
        for row in rows:
            q, p = row.params.q, row.params.p
            writer.writerow([
                format_float(q.real), format_float(q.imag),
                format_float(p.real), format_float(p.imag),
                row.regime.value,
                _verdict_str(row.v_exp1), _verdict_str(row.v_exp2),
                _verdict_str(row.v_wbar),
                ";".join(format_float(e) for e in row.estimates),
            ])


def regime_report_to_json(rows: Sequence[RegimeVerdict], file_or_path) -> None:
    payload = []
    for row in rows:
        payload.append({
            "q": [row.params.q.real, row.params.q.imag],
            "p": [row.params.p.real, row.params.p.imag],
            "regime": row.regime.value,
            "v_exp1": _verdict_str(row.v_exp1),
            "v_exp2": _verdict_str(row.v_exp2),
            "v_wbar": _verdict_str(row.v_wbar),
            "estimates": [format_float(e) for e in row.estimates],
            "boundary_margin": format_float(row.boundary_margin),
            "contradiction": row.contradiction,
            "note": row.note,
        })
    with open_output(file_or_path) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
