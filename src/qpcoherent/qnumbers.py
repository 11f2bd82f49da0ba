"""Deformed integer sequences for the two-parameter oscillator family.

The deformation replaces the integer n by

    [n] = (q**n - p**(-n)) / (q - 1/p),

with the analytic limit n * q**(n-1) on the degenerate set q = 1/p (which
contains the classical point q = p = 1, where [n] = n). Factorials of these
numbers and their moduli feed every other module: ladder matrices, deformed
exponentials and the weight-function moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import InvalidParameterError

#: |q - 1/p| below this is treated as the degenerate (classical-like) branch.
DEGENERACY_THRESHOLD = 1e-12

#: Relative cancellation level at which q**n - p**(-n) counts as an exact zero
#: (q*p at a root of unity). The direct formula has no correct digits there.
RESONANCE_RTOL = 1e-12


@dataclass(frozen=True)
class DeformationParams:
    """The complex deformation pair (q, p) with derived quantities."""

    q: complex
    p: complex
    degeneracy_threshold: float = DEGENERACY_THRESHOLD

    def __post_init__(self):
        object.__setattr__(self, "q", complex(self.q))
        object.__setattr__(self, "p", complex(self.p))
        if self.p == 0:
            raise InvalidParameterError("p must be nonzero")

    @property
    def p_inv(self) -> complex:
        return 1.0 / self.p

    @property
    def denom(self) -> complex:
        return self.q - 1.0 / self.p

    @property
    def is_degenerate(self) -> bool:
        return abs(self.denom) < self.degeneracy_threshold


@dataclass(frozen=True)
class QNumberSequence:
    """Precomputed [n], [n]! and |[n]|! for n = 0..n_max.

    ``abs_factorials`` is the running product of |[k]| (not |factorials|
    recomputed); the two agree to rounding. ``overflow_index`` is the first n
    whose factorial is no longer finite in double precision, ``resonance_index``
    the first n >= 1 whose [n] is a catastrophic cancellation (treated as an
    exact zero by consumers that would divide by it).
    """

    params: Optional[DeformationParams]
    n_max: int
    numbers: np.ndarray
    factorials: np.ndarray
    abs_factorials: np.ndarray
    overflow_index: Optional[int] = None
    resonance_index: Optional[int] = None


def _degenerate_number(n: int, q: complex) -> complex:
    # limit of the direct formula as p -> 1/q
    qpow = 1.0 + 0.0j
    for _ in range(n - 1):
        qpow *= q
    return n * qpow


def qp_number(n: int, params: DeformationParams) -> complex:
    """The n-th deformed number [n]; exact 0 at n = 0.

    Powers are accumulated by running products so that exactly representable
    inputs give reproducible results.
    """
    if n < 0:
        raise InvalidParameterError("n must be a nonnegative integer")
    if n == 0:
        return 0.0 + 0.0j
    if params.is_degenerate:
        return _degenerate_number(n, params.q)
    qn = 1.0 + 0.0j
    pn = 1.0 + 0.0j
    p_inv = params.p_inv
    for _ in range(n):
        qn *= params.q
        pn *= p_inv
    return (qn - pn) / params.denom


def qp_number_special(n: int, Q: complex) -> complex:
    """Symmetric one-parameter case [n] = (Q**n - Q**(-n))/(Q - 1/Q).

    Same code path as ``qp_number`` with q = p = Q; Q = +-1 routes through the
    degenerate limit n * Q**(n-1).
    """
    Q = complex(Q)
    if Q == 0:
        raise InvalidParameterError("Q must be nonzero")
    return qp_number(n, DeformationParams(q=Q, p=Q))


def iter_numbers(params: DeformationParams) -> Iterator[tuple[complex, bool]]:
    """Yield ([n], resonant) for n = 1, 2, ... without storing the sequence.

    ``resonant`` marks a numerator cancellation below RESONANCE_RTOL relative
    to its natural scale; callers dividing by [n] must treat it as zero.
    """
    if params.is_degenerate:
        q = params.q
        qpow = 1.0 + 0.0j
        n = 1
        while True:
            value = n * qpow
            yield value, value == 0
            qpow *= q
            n += 1
    else:
        qn = 1.0 + 0.0j
        pn = 1.0 + 0.0j
        p_inv = params.p_inv
        denom = params.denom
        while True:
            qn *= params.q
            pn *= p_inv
            num = qn - pn
            scale = abs(qn) + abs(pn)
            yield num / denom, abs(num) <= RESONANCE_RTOL * scale


def qp_sequence(n_max: int, params: DeformationParams) -> QNumberSequence:
    """Fill numbers, factorials and modulus-factorials up to n_max."""
    if n_max < 0:
        raise InvalidParameterError("n_max must be a nonnegative integer")
    numbers = np.zeros(n_max + 1, dtype=complex)
    factorials = np.ones(n_max + 1, dtype=complex)
    abs_factorials = np.ones(n_max + 1, dtype=float)
    overflow_index = None
    resonance_index = None
    gen = iter_numbers(params)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_max + 1):
            value, resonant = next(gen)
            if resonant and resonance_index is None:
                resonance_index = n
            if resonant:
                value = 0.0 + 0.0j
            numbers[n] = value
            factorials[n] = factorials[n - 1] * value
            abs_factorials[n] = abs_factorials[n - 1] * abs(value)
            if overflow_index is None and not (
                np.isfinite(factorials[n]) and np.isfinite(abs_factorials[n])
            ):
                overflow_index = n
    for arr in (numbers, factorials, abs_factorials):
        arr.flags.writeable = False
    return QNumberSequence(
        params=params,
        n_max=n_max,
        numbers=numbers,
        factorials=factorials,
        abs_factorials=abs_factorials,
        overflow_index=overflow_index,
        resonance_index=resonance_index,
    )


def _unit_powers(params: DeformationParams, count: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """|w**n| and |w**n - 1| for n = 1..count, w = qp if |qp| <= 1 else 1/(qp).

    ``np.cumprod`` forms the same products in the same order as a running
    product from 1, and ``np.hypot`` rounds as the built-in complex ``abs``
    does (``np.abs`` of a complex array does not), so both are byte-identical
    to the scalar loop.
    """
    w = params.q * params.p
    base = w if abs(w) <= 1.0 else 1.0 / w
    powers = np.cumprod(np.full(count, base))
    gaps = powers - 1.0
    return np.hypot(powers.real, powers.imag), np.hypot(gaps.real, gaps.imag)


def log_abs_numbers(params: DeformationParams, count: int) -> np.ndarray:
    """log|[n]| for n = 1..count, stable at any scale.

    Uses q**n - p**(-n) = p**(-n) ((qp)**n - 1) when |qp| <= 1 and
    q**n (1 - (qp)**(-n)) otherwise, so neither power can overflow.
    Resonant cancellations come out as large negative values (log of a tiny
    modulus), or -inf for an exact zero, never as NaN.
    """
    n = np.arange(1, count + 1, dtype=float)
    if params.is_degenerate:
        la_q = np.log(abs(params.q)) if params.q != 0 else -np.inf
        return np.log(n) + (n - 1) * la_q
    if abs(params.q * params.p) <= 1.0:
        la_lead = -np.log(abs(params.p))
    else:
        la_lead = np.log(abs(params.q))
    la_denom = np.log(abs(params.denom))
    with np.errstate(divide="ignore"):
        log_resid = np.log(_unit_powers(params, count)[1])
    return n * la_lead + log_resid - la_denom
