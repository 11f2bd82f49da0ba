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
#: The one resonance rule: the store's builder and ``log_abs_numbers`` (and
#: through it the regime sweeps) flag the same n.
RESONANCE_RTOL = 1e-12

#: terms the per-process store keeps over all (q, p): one [n] array (0 where
#: flagged), [n]! and |[n]|!, 40 bytes a term
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
    the first n >= 1 whose [n] is zero or a catastrophic cancellation; such an
    [n] is stored as an exact 0, and ``numbers[1:]`` is 0 nowhere else.
    """

    params: DeformationParams
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
    # np.hypot rounds as the built-in complex abs does; np.abs does not. The
    # outer abs makes a NaN positive, as the built-in abs returns it: past an
    # overflow, [n] can hold NaN parts of either sign
    return np.abs(np.hypot(z.real, z.imag))


def _build(params: DeformationParams, count: int
           ) -> tuple[np.ndarray, np.ndarray]:
    """[n] and its resonance flag for n = 1..count, as arrays.

    A flagged [n] is an exact zero or, off the degenerate set, a numerator
    cancellation below RESONANCE_RTOL relative to its natural scale,
    |q**n| + |p**(-n)|, where that scale is finite: an overflowed power is
    not a cancellation. Callers dividing by [n] must treat it as zero.
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
        scale = _moduli(qn) + _moduli(pn)
        cancelled = np.isfinite(scale) & (_moduli(num) <= RESONANCE_RTOL * scale)
        return out, cancelled | (out == 0)


def _full_sequence(params: DeformationParams, count: int) -> QNumberSequence:
    """The sequence of n_max = count, read-only; ``_build``'s flagged [n] are
    stored as 0.

    ``_build`` flags every exact zero, so ``numbers[1:] == 0`` holds exactly
    at the flagged n: readers that divide by [n] test for a zero, and the
    first such n is the resonance index."""
    values, resonant = _build(params, count)
    numbers = np.concatenate([np.zeros(1, complex), np.where(resonant, 0, values)])
    with np.errstate(over="ignore", invalid="ignore"):
        factorials = _running_products(numbers[1:])
        abs_factorials = _running_products(_moduli(numbers[1:]))
    overflow = ~(np.isfinite(factorials) & np.isfinite(abs_factorials))
    for arr in (numbers, factorials, abs_factorials):
        arr.flags.writeable = False
    return QNumberSequence(
        params, count, numbers, factorials, abs_factorials,
        int(np.argmax(overflow)) if overflow.any() else None,
        int(np.argmax(resonant)) + 1 if resonant.any() else None)


#: bit pattern of (q, p) -> ``_full_sequence``, least recently used first; not
#: ``DeformationParams`` equality, as the sign of a zero part shows in [n].
_store: OrderedDict[bytes, QNumberSequence] = OrderedDict()


def _stored(params: DeformationParams, count: int) -> QNumberSequence:
    """``_full_sequence`` of at least ``count`` terms, of which callers take
    prefixes: entry n of every array depends only on entries up to n. An entry
    grows by doubling from 64 terms; the least recently used (q, p) go to keep
    _STORE_TERMS terms in all, and a longer request is built and not kept."""
    if count > _STORE_TERMS:
        return _full_sequence(params, count)
    q, p = params.q, params.p
    key = struct.pack("<4d", q.real, q.imag, p.real, p.imag)
    entry = _store.pop(key, None)
    if entry is None or entry.n_max < count:
        grown = 2 * entry.n_max if entry is not None else 64
        entry = _full_sequence(params, min(max(count, grown), _STORE_TERMS))
        while sum(e.n_max for e in _store.values()) + entry.n_max > _STORE_TERMS:
            _store.popitem(last=False)
    _store[key] = entry
    return entry


def iter_numbers(params: DeformationParams) -> Iterator[complex]:
    """Yield [n] for n = 1, 2, ... as Python complex numbers; 0 where flagged.

    A view over the stored numbers in blocks of 64, 128, ... terms, so a
    consumer that stops early never asks for its cap.
    """
    start, count = 1, 64
    while True:
        yield from _stored(params, count).numbers[start:count + 1].tolist()
        start, count = count + 1, 2 * count


def qp_sequence(n_max: int, params: DeformationParams) -> QNumberSequence:
    """Fill numbers, factorials and modulus-factorials up to n_max."""
    if n_max < 0:
        raise InvalidParameterError("n_max must be a nonnegative integer")
    full, cut = _stored(params, n_max), n_max + 1
    return QNumberSequence(
        params, n_max, full.numbers[:cut], full.factorials[:cut],
        full.abs_factorials[:cut],
        *(i if i is not None and i < cut else None
          for i in (full.overflow_index, full.resonance_index)))


def log_abs_numbers(params: DeformationParams, count: int) -> np.ndarray:
    """log|[n]| for n = 1..count, stable at any scale; -inf where [n] is flagged.

    Uses q**n - p**(-n) = p**(-n) (w**n - 1) with w = qp when |qp| <= 1 and
    q**n (1 - w**n) with w = 1/(qp) otherwise, so neither power can overflow.
    The resonance rule |w**n - 1| <= RESONANCE_RTOL (|w**n| + 1) is the
    builder's cancellation test in factored form; a flagged n gives -inf,
    never NaN. ``np.cumprod`` forms the powers in the order of a running
    product from 1, and ``_moduli`` rounds as the built-in complex ``abs``.
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
    w = params.q * params.p
    powers = np.cumprod(np.full(count, w if abs(w) <= 1.0 else 1.0 / w))
    gaps = _moduli(powers - 1.0)
    with np.errstate(divide="ignore"):
        log_resid = np.log(gaps)
    log_resid[gaps <= RESONANCE_RTOL * (_moduli(powers) + 1.0)] = -np.inf
    return n * la_lead + log_resid - la_denom
