"""Deformed exponential series and their convergence disk.

Two series are attached to the deformation: sum x**n / [n]! and
sum x**n / |[n]|!. Both reduce to exp(x) in the classical limit and share the
convergence radius R = 1/|q - 1/p| (on the degenerate branch infinite for
|q| >= 1 and zero for |q| < 1).
Partial sums are accumulated in extended precision so that alternating
classical inputs (x < 0) keep full double accuracy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError, RootOfUnityDegeneracyError
from .qnumbers import DeformationParams, _moduli, _stored


class Verdict(Enum):
    CONVERGED = "Converged"
    TRUNCATED = "Truncated"
    DIVERGENT_INPUT = "DivergentInput"


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy: hard cap, relative tail tolerance, warm-up length."""

    n_max: int = 500
    tol: float = 1e-12
    min_terms: int = 10

    def __post_init__(self):
        if self.n_max < 1 or self.min_terms < 1 or self.min_terms > self.n_max:
            raise InvalidParameterError("need 1 <= min_terms <= n_max")
        if not self.tol > 0:
            raise InvalidParameterError("tol must be positive")


@dataclass(frozen=True)
class SeriesEvaluation:
    value: complex
    terms_used: int
    tail_bound: float
    verdict: Verdict


DEFAULT_CONTROL = SeriesControl()

_NAN = complex(math.nan, math.nan)

#: a modulus within this of 1 counts as 1 where a growth rate decides between
#: convergence and divergence: |exp(i t)| itself can round to 1 - 1 ulp
UNIT_MODULUS_TOL = 4 * np.finfo(float).eps


def growth_rate(params: DeformationParams) -> float:
    """max(|q|, 1/|p|): |[n]| grows or decays like its n-th power."""
    return max(abs(params.q), 1.0 / abs(params.p))


def convergence_radius(params: DeformationParams) -> float:
    """Radius of the convergence disk, 1/|q - 1/p|.

    On the degenerate branch [n] = n q**(n-1): the radius is +inf for
    |q| >= 1 and 0 for |q| < 1, where both series diverge for every x != 0.
    The branch holds q within 1e-12 of 1/p, so the growth rate is compared
    with 1, up to rounding.
    """
    if params.is_degenerate:
        return math.inf if growth_rate(params) >= 1.0 - UNIT_MODULUS_TOL else 0.0
    return 1.0 / abs(params.denom)


def _sum_series(
    x: complex,
    params: DeformationParams,
    ctrl: SeriesControl,
    use_abs: bool,
) -> SeriesEvaluation:
    if cmath.isnan(x):
        raise InvalidParameterError(f"x must not be NaN, got {x}")
    radius = convergence_radius(params)
    ax = abs(x)
    if ax >= radius and ax > 0:
        return SeriesEvaluation(_NAN, 0, math.inf, Verdict.DIVERGENT_INPUT)

    r_geom = ax / radius if 0 < radius < math.inf else 0.0
    # Blocks of terms, each twice as deep as the one before. Sequential
    # accumulations form every product and sum in the order of a term-by-term
    # loop, in extended precision (it keeps cancellation error below the 1e-12
    # tail targets), and the stop rule runs per row; row 0 holds the term
    # before the block. Stops land a term or two past ln(tol)/ln(r_geom), and
    # a second block costs as much as 200 more rows.
    rows = 16
    if r_geom > 0.0 and ctrl.tol < 1.0:
        rows = max(rows, math.ceil(math.log(ctrl.tol) / math.log(r_geom)) + 8)
    xl = np.clongdouble(x)
    total = term = np.clongdouble(1.0)
    tail, n = math.inf, 0
    with np.errstate(all="ignore"):
        while n < ctrl.n_max:
            end = min(n + rows, ctrl.n_max)
            values = _stored(params, end).numbers[n + 1:end + 1]
            zero = values == 0   # a flagged [n]
            count = int(zero.argmax()) if zero.any() else len(values)
            divisors = (_moduli(values) if use_abs else values)[:count]
            terms = np.multiply.accumulate(np.concatenate([[term], xl / divisors]))
            totals = np.add.accumulate(np.concatenate([[total], terms[1:]]))[1:]
            at = np.abs(terms).astype(float)
            prev, at = at[:-1], at[1:]
            r = r_geom if r_geom > 0.0 else np.where(prev > 0, at / prev, 0.0)
            tails = at * r / (1.0 - r)
            ratio_test = (at <= prev) & (r < 1.0)
            ratio_test[:max(ctrl.min_terms - n - 1, 0)] = False
            mags = np.abs(totals).astype(float)
            budget = ctrl.tol * np.maximum(mags, 1.0)
            # a total beyond double range ends the sum: inf <= tol * inf
            overflow = ~np.isfinite(mags)
            stop = (ratio_test & (np.maximum(at, tails) <= budget)) | overflow
            if stop.any():
                i = int(stop.argmax())
                if overflow[i]:
                    return SeriesEvaluation(_NAN, n + i + 1, math.inf,
                                            Verdict.DIVERGENT_INPUT)
                return SeriesEvaluation(complex(totals[i]), n + i + 1,
                                        float(tails[i]), Verdict.CONVERGED)
            if ratio_test.any():
                tail = float(tails[count - 1 - int(ratio_test[::-1].argmax())])
            if count < len(values):
                raise RootOfUnityDegeneracyError(n + count + 1)
            term, total = terms[-1], totals[-1]
            n, rows = n + count, 2 * rows
    return SeriesEvaluation(complex(total), n, tail, Verdict.TRUNCATED)


def exp1(
    x: complex,
    params: DeformationParams,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> SeriesEvaluation:
    """Evaluate sum x**n / [n]! with tail control.

    Inputs on or beyond the convergence disk, and sums whose partial sum
    leaves double range before they stop, return a DivergentInput verdict
    with a NaN value rather than raising; a vanishing [n] below the
    truncation raises RootOfUnityDegeneracyError.
    """
    return _sum_series(complex(x), params, ctrl, use_abs=False)


def exp2(
    x: complex,
    params: DeformationParams,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> SeriesEvaluation:
    """Evaluate sum x**n / |[n]|!.

    For real x >= 0 (the normalization use, x = |z|**2) all terms are positive
    and partial sums are monotone. Complex arguments are accepted with the
    identical contract; they arise in overlaps through conj(z) * z'.
    """
    return _sum_series(complex(x), params, ctrl, use_abs=True)
