"""Regime classification and numerical ratio tests for the three series.

The deformed exponentials and the Wbar series converge simultaneously in two
parameter regimes, (i) |q| <= 1 with |p| = 1 and (ii) |q| = 1 with |p| >= 1;
outside them at least one of the series diverges. The tests here corroborate
that numerically with median ratio estimates computed from log-magnitude term
sequences (so super-exponential growth never overflows). They are indications,
not proof; verdicts near |ratio| = 1 are honestly Inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence

import numpy as np

from .defexp import convergence_radius, growth_rate
from .errors import InvalidParameterError
from .qnumbers import DeformationParams, log_abs_numbers
from .unity import format_float, write_table

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
    """One sweep row: classification, the exp and Wbar verdicts and ratio
    estimates, boundary margin and contradiction flag. One exp verdict
    serves both deformed exponentials, whose terms have equal magnitudes."""

    params: DeformationParams
    regime: Regime
    v_exp: Optional[RatioVerdict]
    v_wbar: Optional[RatioVerdict]
    estimates: tuple[float, float]
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


def _ratio_kernel(logs: np.ndarray, window: int) -> list[tuple[RatioVerdict, float]]:
    """(verdict, median lim sup |t_{n+1}/t_n| estimate) for each row of a 2-D
    array of finite log-magnitudes, from its last ``window`` ratios.

    The 3-sigma decision band is applied on the log scale, which agrees with
    the linear-scale band to first order once the ratios have settled and
    stays meaningful when they grow without bound.
    """
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
        results.append((verdict, math.exp(med)))
    return results


# ----------------------------------------------------------------------
# proposition checks


#: grid points per ratio-test block: the [n] rows of a block, 16 x 300
#: complex values in a sweep, stay near 77 KB whatever the grid length
_BLOCK = 16


def _ratio_tests(grid: Sequence[DeformationParams], count: int, window: int,
                 xs: Sequence[float], ys: Sequence[float]
                 ) -> Iterator[Optional[list[tuple[RatioVerdict, float]]]]:
    """Per grid point, ratio tests over ``count`` terms of the exp series at
    its x (none where ``xs`` is empty), then of Wbar at each y; None where one
    of those [n] is flagged (vanishing). Yielded a block at a time.

    With cum = cumsum(log|[n]|), log|t_n| is n log|x| - cum_n for both deformed
    exponentials (|x**n / [n]!| = x**n / |[n]|!) and cum_n + n log|y| -
    log n! - log pi for Wbar. Only the last ``window`` + 1 terms are formed:
    the ratios the kernel reads.
    """
    if any(y == 0 for y in ys):
        raise InvalidParameterError("y must be nonzero for a ratio test")
    first = count - window
    n = np.arange(first, count + 1, dtype=float)
    lgam = np.array([math.lgamma(k + 1) for k in range(first, count + 1)])
    n_log_y = n * np.array([math.log(abs(y)) for y in ys]).reshape(-1, 1)
    log_x = np.array([math.log(abs(x)) for x in xs]).reshape(-1, 1, 1)
    for start in range(0, len(grid), _BLOCK):
        cum = np.cumsum(log_abs_numbers(grid[start:start + _BLOCK], count),
                        axis=1)
        finite = ~np.isneginf(cum[:, -1])   # a -inf log|[n]| stays in cum
        cum = cum[finite, None, first - 1:]
        terms = [cum + n_log_y - lgam - math.log(math.pi)]
        if len(xs):
            terms.insert(0, n * log_x[start:start + _BLOCK][finite] - cum)
        rows = np.concatenate(terms, axis=1)
        found = iter(_ratio_kernel(rows.reshape(-1, window + 1), window))
        for ok in finite.tolist():
            yield [next(found) for _ in range(rows.shape[1])] if ok else None


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
    on_circle = abs(abs(Q) - 1.0) <= MODULUS_TOL
    expected = RatioVerdict.CONVERGENT if on_circle else RatioVerdict.DIVERGENT
    ys = [float(y) for y in y_samples]
    tests = next(_ratio_tests([DeformationParams(q=Q, p=Q)], 400, 100, (), ys))
    if tests is None:
        return [Prop1Row(Q=Q, y=y, verdict=None, estimate=math.nan,
                         expected=expected, consistent=True,
                         skipped="root-of-unity degeneracy") for y in ys]
    return [Prop1Row(Q=Q, y=y, verdict=verdict, estimate=estimate,
                     expected=expected, consistent=verdict is expected)
            for y, (verdict, estimate) in zip(ys, tests)]


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
    xs = [0.5 * radius if 0 < radius < math.inf else 2.5
          for radius in map(convergence_radius, grid)]
    rows = []
    for params, tests in zip(grid, _ratio_tests(grid, 300, DEFAULT_WINDOW, xs,
                                                y_samples)):
        regime = classify_regime(params)
        if tests is None:
            rows.append(RegimeVerdict(
                params=params, regime=regime, v_exp=None, v_wbar=None,
                estimates=(math.nan,) * 2,
                boundary_margin=boundary_margin(params),
                contradiction=False, note="root-of-unity degeneracy; skipped"))
            continue

        (v_exp, exp_estimate), *wbar = tests
        v_wbar = _worst([verdict for verdict, _ in wbar])
        divergent = RatioVerdict.DIVERGENT in (v_exp, v_wbar)
        contradiction, note = divergent, ""   # regimes (i) and (ii)
        if regime is Regime.OUTSIDE:
            contradiction = not divergent
        elif regime is Regime.DEGENERATE:
            contradiction = False
            note = "degenerate branch; not covered by the regime dichotomy"

        rows.append(RegimeVerdict(
            params=params, regime=regime, v_exp=v_exp, v_wbar=v_wbar,
            estimates=(exp_estimate, max(e for _, e in wbar)),
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


def _estimate_cells(row: RegimeVerdict) -> list[str]:
    # the exp estimate is printed once for each deformed exponential
    exp_estimate, wbar_estimate = (format_float(e) for e in row.estimates)
    return [exp_estimate, exp_estimate, wbar_estimate]


def regime_report_to_csv(rows: Sequence[RegimeVerdict], file_or_path) -> None:
    header = ["q_re", "q_im", "p_re", "p_im", "regime",
              "v_exp1", "v_exp2", "v_wbar", "ratio_estimates"]
    write_table(header, [
        [*(format_float(v) for v in (row.params.q.real, row.params.q.imag,
                                     row.params.p.real, row.params.p.imag)),
         row.regime.value, _verdict_str(row.v_exp), _verdict_str(row.v_exp),
         _verdict_str(row.v_wbar), ";".join(_estimate_cells(row))]
        for row in rows], "csv", file_or_path)


def regime_report_to_json(rows: Sequence[RegimeVerdict], file_or_path) -> None:
    header = ["q", "p", "regime", "v_exp1", "v_exp2", "v_wbar", "estimates",
              "boundary_margin", "contradiction", "note"]
    write_table(header, [
        [[row.params.q.real, row.params.q.imag],
         [row.params.p.real, row.params.p.imag],
         row.regime.value, _verdict_str(row.v_exp), _verdict_str(row.v_exp),
         _verdict_str(row.v_wbar), _estimate_cells(row),
         format_float(row.boundary_margin), row.contradiction, row.note]
        for row in rows], "json", file_or_path)
