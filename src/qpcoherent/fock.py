"""Truncated Fock-space matrices for the deformed ladder algebra.

The annihilator carries sqrt([n]) on the first superdiagonal, the creator is
its plain transpose (same principal square roots, not conjugated), and the
two diagonal operators are delta = diag([n]) and
delta_prime = diag([n+1] - q [n]). Relation residuals are measured on the
interior block where truncation edge effects cannot reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidParameterError
from .qnumbers import (
    DeformationParams,
    QNumberSequence,
    _running_products,
    _sequence,
    qp_sequence,
)


@dataclass(frozen=True)
class FockOperators:
    """Matrix representation on the number basis |0..dim-1>."""

    dim: int
    a: np.ndarray
    a_dag: np.ndarray
    delta: np.ndarray
    delta_prime: np.ndarray
    p_pow_neg_N: Optional[np.ndarray]
    basket: QNumberSequence
    q: complex
    params: Optional[DeformationParams] = None


@dataclass(frozen=True)
class RelationReport:
    """Max-norm residuals of the algebra relations on the interior block."""

    residual_qmutation: float
    residual_delta_comm: float
    residual_adag_comm: float
    residual_qp: float
    block_dim: int


def _freeze(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.flags.writeable = False


def _assemble(dim: int, seq: QNumberSequence, q: complex,
              p_pow: Optional[np.ndarray],
              params: Optional[DeformationParams]) -> FockOperators:
    numbers = seq.numbers
    roots = np.sqrt(numbers[1:dim].astype(complex))
    a = np.zeros((dim, dim), dtype=complex)
    a[np.arange(dim - 1), np.arange(1, dim)] = roots
    a_dag = a.T.copy()
    delta = np.diag(numbers[:dim])
    if len(numbers) > dim:
        upper = numbers[1:dim + 1]
    else:
        upper = np.concatenate([numbers[1:dim], [complex(np.nan, np.nan)]])
    delta_prime = np.diag(upper - q * numbers[:dim])
    _freeze(a, a_dag, delta, delta_prime)
    if p_pow is not None:
        _freeze(p_pow)
    return FockOperators(dim=dim, a=a, a_dag=a_dag, delta=delta,
                         delta_prime=delta_prime, p_pow_neg_N=p_pow,
                         basket=seq, q=q, params=params)


def build_operators(dim: int, params: DeformationParams) -> FockOperators:
    """Build a, a+, delta, delta_prime and p**(-N) at truncation ``dim``."""
    if dim < 2:
        raise InvalidParameterError("dim must be at least 2")
    p_pow = np.diag(_running_products(np.full(dim - 1, params.p_inv)))
    return _assemble(dim, qp_sequence(dim, params), params.q, p_pow, params)


def custom_basket_operators(dim: int, basket: Sequence[complex],
                            q: complex) -> FockOperators:
    """Same construction from caller-supplied deformed numbers.

    ``basket[0]`` must be 0. ``q`` only enters the delta_prime diagonal; with
    length exactly ``dim`` the last delta_prime entry is NaN (it would need
    basket[dim], which is outside the truncation anyway). A later zero entry
    is the sequence's ``resonance_index``; ``p_pow_neg_N`` is None.
    """
    basket = np.asarray(basket, dtype=complex)
    if dim < 2:
        raise InvalidParameterError("dim must be at least 2")
    if len(basket) < dim:
        raise InvalidParameterError(f"basket must supply at least {dim} entries")
    if basket[0] != 0:
        raise InvalidParameterError("basket[0] must be 0")
    seq = _sequence(None, basket[:dim + 1].copy())
    return _assemble(dim, seq, complex(q), None, None)


def _block_max(matrix: np.ndarray, k: int) -> float:
    return float(np.max(np.abs(matrix[:k, :k])))


def relation_residuals(ops: FockOperators) -> RelationReport:
    """Audit the deformed commutation relations numerically.

    Residuals are max-norms over the leading (dim-1) x (dim-1) block of
    left-minus-right for

        a a+ - q a+ a              = delta_prime
        a delta - q delta a        = delta_prime a
        delta a+ - q a+ delta      = a+ delta_prime
        a a+ - q a+ a              = p**(-N)

    The last one reads ``p_pow_neg_N``; for a custom basket it is NaN.
    """
    q = ops.q
    a, ad, d, dp = ops.a, ops.a_dag, ops.delta, ops.delta_prime
    k = ops.dim - 1
    qmutator = a @ ad - q * (ad @ a)
    r1 = _block_max(qmutator - dp, k)
    r2 = _block_max(a @ d - q * (d @ a) - dp @ a, k)
    r3 = _block_max(d @ ad - q * (ad @ d) - ad @ dp, k)
    if ops.p_pow_neg_N is not None:
        r4 = _block_max(qmutator - ops.p_pow_neg_N, k)
    else:
        r4 = float("nan")
    return RelationReport(r1, r2, r3, r4, block_dim=k)
