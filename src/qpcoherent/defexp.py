"""Deformed exponential series and their convergence disk.

Two series are attached to the deformation: sum x**n / [n]! and
sum x**n / |[n]|!. Both reduce to exp(x) in the classical limit and share the
convergence radius R = 1/|q - 1/p| (on the degenerate branch infinite for
|q| >= 1 and zero for |q| < 1).
Partial sums are accumulated in extended precision so that alternating
classical inputs (x < 0) keep full double accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
    InvalidParameterError,
    ParameterMismatchError,
    RootOfUnityDegeneracyError,
)
from .qnumbers import DeformationParams, QNumberSequence, iter_numbers


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

    @property
    def converged(self) -> bool:
        return self.verdict is Verdict.CONVERGED


DEFAULT_CONTROL = SeriesControl()

_NAN = complex(math.nan, math.nan)

#: a modulus within this of 1 counts as 1 where a growth rate decides between
#: convergence and divergence: |exp(i t)| itself can round to 1 - 1 ulp
UNIT_MODULUS_TOL = 4 * np.finfo(float).eps


def convergence_radius(params: DeformationParams) -> float:
    """Radius of the convergence disk, 1/|q - 1/p|.

    On the degenerate branch [n] = n q**(n-1): the radius is +inf for
    |q| >= 1 and 0 for |q| < 1, where both series diverge for every x != 0.
    The branch holds q within 1e-12 of 1/p, so the larger of |q| and 1/|p|
    is compared with 1, up to rounding.
    """
    if params.is_degenerate:
        rate = max(abs(params.q), 1.0 / abs(params.p))
        return math.inf if rate >= 1.0 - UNIT_MODULUS_TOL else 0.0
    return 1.0 / abs(params.denom)


def _sum_series(
    x: complex,
    params: DeformationParams,
    ctrl: SeriesControl,
    use_abs: bool,
    seq: Optional[QNumberSequence],
) -> SeriesEvaluation:
    n_max = ctrl.n_max
    if seq is not None:
        if seq.params is None or (seq.params.q, seq.params.p) != (params.q, params.p):
            raise ParameterMismatchError("sequence was built from different parameters")
        n_max = min(n_max, seq.n_max)

    radius = convergence_radius(params)
    ax = abs(x)
    if ax >= radius and ax > 0:
        return SeriesEvaluation(_NAN, 0, math.inf, Verdict.DIVERGENT_INPUT)

    r_geom = ax / radius if 0 < radius < math.inf else 0.0
    # extended precision keeps cancellation error below the 1e-12 tail targets
    total = np.clongdouble(1.0)
    term = np.clongdouble(1.0)
    prev_abs = 1.0
    xl = np.clongdouble(x)

    n = 0
    tail = math.inf
    for n, (value, resonant) in zip(range(1, n_max + 1), iter_numbers(params)):
        if resonant:
            raise RootOfUnityDegeneracyError(n)
        term = term * (xl / np.clongdouble(abs(value) if use_abs else value))
        total = total + term
        at = float(abs(term))
        if n >= ctrl.min_terms and at <= prev_abs:
            if r_geom > 0.0:
                r = r_geom
            else:
                r = at / prev_abs if prev_abs > 0 else 0.0
            if r < 1.0:
                tail = at * r / (1.0 - r)
                budget = ctrl.tol * max(float(abs(total)), 1.0)
                if at <= budget and tail <= budget:
                    return SeriesEvaluation(complex(total), n, tail, Verdict.CONVERGED)
        prev_abs = at
    return SeriesEvaluation(complex(total), n, tail, Verdict.TRUNCATED)


def exp1(
    x: complex,
    params: DeformationParams,
    ctrl: SeriesControl = DEFAULT_CONTROL,
    *,
    seq: Optional[QNumberSequence] = None,
) -> SeriesEvaluation:
    """Evaluate sum x**n / [n]! with tail control.

    Inputs on or beyond the convergence disk return a DivergentInput verdict
    rather than raising; a vanishing [n] below the truncation raises
    RootOfUnityDegeneracyError. A QNumberSequence passed as ``seq`` must carry
    the same (q, p); it caps the terms at its ``n_max``.
    """
    return _sum_series(complex(x), params, ctrl, use_abs=False, seq=seq)


def exp2(
    x: complex,
    params: DeformationParams,
    ctrl: SeriesControl = DEFAULT_CONTROL,
    *,
    seq: Optional[QNumberSequence] = None,
) -> SeriesEvaluation:
    """Evaluate sum x**n / |[n]|!.

    For real x >= 0 (the normalization use, x = |z|**2) all terms are positive
    and partial sums are monotone. Complex arguments are accepted with the
    identical contract; they arise in overlaps through conj(z) * z'.
    """
    return _sum_series(complex(x), params, ctrl, use_abs=True, seq=seq)
