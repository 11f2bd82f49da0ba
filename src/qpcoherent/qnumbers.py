"""Deformed integer sequences for the two-parameter oscillator family.

The deformation replaces the integer n by

    [n] = (q**n - p**(-n)) / (q - 1/p) = l**(n-1) S_n,  S_n = sum_{k<n} r**k,

with (l, r) = (1/p, qp) where |qp| <= 1 and (q, 1/(qp)) otherwise, so |r| <= 1
and nothing divides by q - 1/p. On the degenerate set q = 1/p (it contains the
classical point q = p = 1) r = 1, S_n = n and [n] = n q**(n-1). Factorials of
these numbers and their moduli feed every other module: ladder matrices,
deformed exponentials and the weight-function moments.
"""

from __future__ import annotations

import cmath
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import InvalidParameterError

#: |q - 1/p| below this is treated as the degenerate (classical-like) branch.
DEGENERACY_THRESHOLD = 1e-12

#: Relative cancellation level at which S_n counts as an exact zero (q*p at a
#: root of unity): the one resonance rule, |S_n| <= RESONANCE_RTOL * n, read
#: only by ``_partial_sums``, so the store and ``log_abs_numbers`` (and through
#: it the regime sweeps) flag the same n.
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
        if not (cmath.isfinite(self.q) and cmath.isfinite(self.p)):
            raise InvalidParameterError(
                f"q and p must be finite, got q = {self.q}, p = {self.p}")
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
    the first n >= 1 the resonance rule flags; such an [n] is stored as an
    exact 0, and ``numbers[1:]`` is 0 nowhere else but below double range.
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
    moduli = np.hypot(z.real, z.imag)
    return np.abs(moduli, out=moduli)


def _factors(params: DeformationParams) -> tuple[complex, complex]:
    """(l, r) with [n] = l**(n-1) sum_{k<n} r**k and |r| <= 1."""
    qp = params.q * params.p
    return (params.p_inv, qp) if abs(qp) <= 1.0 else (params.q, 1.0 / qp)


def _partial_sums(r: complex | np.ndarray, count: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S_n, |S_n| and the one resonance rule, |S_n| <= RESONANCE_RTOL n, for
    n = 1..count, along the last axis: one row per entry of an array ``r``.

    n is the scale sum |r|**k of the terms wherever S_n can cancel, as |r| is 1
    there; and |S_n| <= n, so an overflowed [n] is never flagged."""
    sums = np.empty(np.shape(r) + (count,), complex)
    sums[...] = np.expand_dims(r, -1)
    sums[..., :1] = 1.0   # running powers 1, r, r**2, ... in place, then sums
    np.cumsum(np.cumprod(sums, axis=-1, out=sums), axis=-1, out=sums)
    moduli = _moduli(sums)
    return sums, moduli, moduli <= RESONANCE_RTOL * np.arange(1, count + 1)


def _build(params: DeformationParams, count: int
           ) -> tuple[np.ndarray, np.ndarray]:
    """[n] = l**(n-1) S_n and its resonance flag for n = 1..count, as arrays,
    from ``_factors`` and ``_partial_sums``. Callers dividing by [n] must
    treat a flagged [n] as zero. Each entry equals a scalar loop of running
    products, running sums and the built-in complex product bit for bit."""
    ell, r = _factors(params)
    out = np.empty(count, dtype=complex)
    with np.errstate(all="ignore"):
        sums, _, resonant = _partial_sums(r, count)
        lpow = _running_products(np.full(count, ell))[:-1]
        # the built-in complex product, part by part: numpy's complex ``*``
        # fuses multiply-adds and rounds differently
        out.real = lpow.real * sums.real - lpow.imag * sums.imag
        out.imag = lpow.real * sums.imag + lpow.imag * sums.real
    return out, resonant


def _full_sequence(params: DeformationParams, count: int) -> QNumberSequence:
    """The sequence of n_max = count, read-only; ``_build``'s flagged [n] are
    stored as 0.

    Short of an [n] below double range, ``numbers[1:] == 0`` holds exactly
    at the flagged n: readers that divide by [n] test for a zero, and the
    first flagged n is the resonance index."""
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


def log_abs_numbers(grid: Sequence[DeformationParams], count: int
                    ) -> np.ndarray:
    """log|[n]| = (n - 1) log|l| + log|S_n| for n = 1..count, one row per
    point of ``grid``, stable at any scale; -inf, never NaN, exactly where
    ``_build`` flags [n]."""
    ells, rs = np.array([_factors(params) for params in grid]).T
    moduli, resonant = _partial_sums(rs, count)[1:]
    with np.errstate(divide="ignore"):
        logs = np.log(moduli, out=moduli)
    logs[resonant] = -np.inf
    # |l| from ``_moduli``, which rounds as the built-in abs does
    logs += np.arange(count) * np.log(_moduli(ells))[:, None]
    return logs
