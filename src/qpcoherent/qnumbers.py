"""Deformed integer sequences for the two-parameter oscillator family.

The deformation replaces the integer n by

    [n] = (q**n - p**(-n)) / (q - 1/p),

with the analytic limit n * q**(n-1) on the degenerate set q = 1/p (which
contains the classical point q = p = 1, where [n] = n). Factorials of these
numbers and their moduli feed every other module: ladder matrices, deformed
exponentials and the weight-function moments.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import InvalidParameterError

#: |q - 1/p| below this is treated as the degenerate (classical-like) branch.
DEGENERACY_THRESHOLD = 1e-12

#: Relative cancellation level at which q**n - p**(-n) counts as an exact zero
#: (q*p at a root of unity). The direct formula has no correct digits there.
RESONANCE_RTOL = 1e-12

#: terms the per-process [n] store keeps over all (q, p), 57 bytes each
_STORE_TERMS = 8192


@dataclass(frozen=True)
class DeformationParams:
    """The complex deformation pair (q, p) with derived quantities."""

    q: complex
    p: complex

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
        return abs(self.denom) < DEGENERACY_THRESHOLD


@dataclass(frozen=True)
class QNumberSequence:
    """Precomputed [n], [n]! and |[n]|! for n = 0..n_max.

    ``abs_factorials`` is the running product of |[k]| (not |factorials|
    recomputed); the two agree to rounding. ``overflow_index`` is the first n
    whose factorial is no longer finite in double precision, ``resonance_index``
    the first n >= 1 whose [n] is zero or a catastrophic cancellation (treated
    as an exact zero by consumers that would divide by it).
    """

    params: Optional[DeformationParams]
    n_max: int
    numbers: np.ndarray
    factorials: np.ndarray
    abs_factorials: np.ndarray
    overflow_index: Optional[int] = None
    resonance_index: Optional[int] = None


def _running_products(factors: np.ndarray) -> np.ndarray:
    """1, f[0], f[0] f[1], ...: one more entry than ``factors``.

    ``np.cumprod`` from a leading 1 multiplies in the same order, with the
    same complex product formula, as a scalar running product from 1 + 0j.
    """
    return np.cumprod(np.concatenate([np.ones(1, factors.dtype), factors]))


def _moduli(z: np.ndarray) -> np.ndarray:
    # np.hypot rounds as the built-in complex abs does; np.abs does not
    return np.hypot(z.real, z.imag)


def _build(params: DeformationParams, count: int
           ) -> tuple[np.ndarray, np.ndarray]:
    """[n] and its resonance flag for n = 1..count, as arrays.

    A flagged [n] is an exact zero or, off the degenerate set, a numerator
    cancellation below RESONANCE_RTOL relative to its natural scale,
    |q**n| + |p**(-n)|. Callers dividing by [n] must treat it as zero.
    The division by q - 1/p applies CPython's rule for complex division
    (Smith, CACM Algorithm 116, 1962) to the real and imaginary parts, so
    every entry equals the scalar running-product formula bit for bit;
    numpy's complex ``/`` rounds differently.
    """
    out = np.empty(count, dtype=complex)
    with np.errstate(all="ignore"):
        if params.is_degenerate:
            # limit of the direct formula as p -> 1/q: n q**(n-1), with the
            # integer n taken as the complex n + 0j
            n = np.arange(1, count + 1, dtype=float)
            qpow = _running_products(np.full(count, params.q))[:-1]
            out.real = n * qpow.real - 0.0 * qpow.imag
            out.imag = n * qpow.imag + 0.0 * qpow.real
            return out, out == 0
        qn = _running_products(np.full(count, params.q))[1:]
        pn = _running_products(np.full(count, params.p_inv))[1:]
        num = qn - pn
        a, b, d = num.real, num.imag, params.denom
        if abs(d.real) >= abs(d.imag):
            ratio = d.imag / d.real
            den = d.real + d.imag * ratio
            out.real = (a + b * ratio) / den
            out.imag = (b - a * ratio) / den
        else:
            ratio = d.real / d.imag
            den = d.real * ratio + d.imag
            out.real = (a * ratio + b) / den
            out.imag = (b * ratio - a) / den
        cancelled = _moduli(num) <= RESONANCE_RTOL * (_moduli(qn) + _moduli(pn))
        return out, cancelled | (out == 0)


def _full_sequence(params: DeformationParams, count: int
                   ) -> tuple[np.ndarray, np.ndarray, QNumberSequence]:
    """``_build``'s arrays and the sequence of n_max = count, all read-only."""
    values, resonant = _build(params, count)
    numbers = np.concatenate([np.zeros(1, complex), np.where(resonant, 0, values)])
    with np.errstate(over="ignore", invalid="ignore"):
        factorials = _running_products(numbers[1:])
        abs_factorials = _running_products(_moduli(numbers[1:]))
    overflow = ~(np.isfinite(factorials) & np.isfinite(abs_factorials))
    for arr in (values, resonant, numbers, factorials, abs_factorials):
        arr.flags.writeable = False
    return values, resonant, QNumberSequence(
        params, count, numbers, factorials, abs_factorials,
        int(np.argmax(overflow)) if overflow.any() else None,
        int(np.argmax(resonant)) + 1 if resonant.any() else None)


#: bit pattern of (q, p) -> ``_full_sequence``, least recently used first; not
#: ``DeformationParams`` equality, as the sign of a zero part shows in [n].
_store: OrderedDict[bytes, tuple] = OrderedDict()


def _stored(params: DeformationParams, count: int):
    """``_full_sequence`` of at least ``count`` terms, of which callers take
    prefixes: entry n of every array depends only on entries up to n. An entry
    grows by doubling from 64 terms; the least recently used (q, p) go to keep
    _STORE_TERMS terms in all, and a longer request is built and not kept."""
    if count > _STORE_TERMS:
        return _full_sequence(params, count)
    q, p = params.q, params.p
    key = struct.pack("<4d", q.real, q.imag, p.real, p.imag)
    entry = _store.pop(key, None)
    if entry is None or entry[2].n_max < count:
        grown = 2 * entry[2].n_max if entry is not None else 64
        entry = _full_sequence(params, min(max(count, grown), _STORE_TERMS))
        while sum(e[2].n_max for e in _store.values()) + entry[2].n_max > _STORE_TERMS:
            _store.popitem(last=False)
    _store[key] = entry
    return entry


def _numbers(params: DeformationParams, count: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """``_build(params, count)``, as read-only prefixes of the stored arrays."""
    if count > _STORE_TERMS:
        return _build(params, count)
    values, resonant, _ = _stored(params, count)
    return values[:count], resonant[:count]


def qp_number(n: int, params: DeformationParams) -> complex:
    """The n-th deformed number [n]; exact 0 at n = 0."""
    if n < 0:
        raise InvalidParameterError("n must be a nonnegative integer")
    if n == 0:
        return 0.0 + 0.0j
    return complex(_numbers(params, n)[0][-1])


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
    """Yield ([n], resonant) for n = 1, 2, ... as Python scalars.

    A view over ``_numbers`` in blocks of 64, 128, ... terms, so a consumer
    that stops early never asks for its cap.
    """
    start, count = 0, 64
    while True:
        values, resonant = _numbers(params, count)
        yield from zip(values[start:].tolist(), resonant[start:].tolist())
        start, count = count, 2 * count


def qp_sequence(n_max: int, params: DeformationParams) -> QNumberSequence:
    """Fill numbers, factorials and modulus-factorials up to n_max."""
    if n_max < 0:
        raise InvalidParameterError("n_max must be a nonnegative integer")
    full, cut = _stored(params, n_max)[2], n_max + 1
    return QNumberSequence(
        params, n_max, full.numbers[:cut], full.factorials[:cut],
        full.abs_factorials[:cut],
        *(i if i is not None and i < cut else None
          for i in (full.overflow_index, full.resonance_index)))


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
        if params.q == 0:   # [1] = 1, and [n] = 0 beyond
            return np.where(n == 1, 0.0, -np.inf)
        return np.log(n) + (n - 1) * np.log(abs(params.q))
    if abs(params.q * params.p) <= 1.0:
        la_lead = -np.log(abs(params.p))
    else:
        la_lead = np.log(abs(params.q))
    la_denom = np.log(abs(params.denom))
    with np.errstate(divide="ignore"):
        log_resid = np.log(_unit_powers(params, count)[1])
    return n * la_lead + log_resid - la_denom
