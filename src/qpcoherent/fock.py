"""Truncated Fock-space matrices for the deformed ladder algebra.

The annihilator carries sqrt([n]) on the first superdiagonal, the creator is
its plain transpose (same principal square roots, not conjugated), and the
two diagonal operators are delta = diag([n]) and
delta_prime = diag([n+1] - q [n]). Relation residuals are measured on the
interior block where truncation edge effects cannot reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .qnumbers import DeformationParams, _running_products, qp_sequence


@dataclass(frozen=True)
class FockOperators:
    """Matrix representation on the number basis |0..dim-1>."""

    dim: int
    a: np.ndarray
    a_dag: np.ndarray
    delta: np.ndarray
    delta_prime: np.ndarray
    p_pow_neg_N: np.ndarray
    params: DeformationParams


@dataclass(frozen=True)
class RelationReport:
    """Max-norm residuals of the algebra relations on the interior block."""

    residual_qmutation: float
    residual_delta_comm: float
    residual_adag_comm: float
    residual_qp: float
    block_dim: int


def build_operators(dim: int, params: DeformationParams) -> FockOperators:
    """Build a, a+, delta, delta_prime and p**(-N) at truncation ``dim``."""
    if dim < 2:
        raise InvalidParameterError("dim must be at least 2")
    numbers = qp_sequence(dim, params).numbers
    a = np.zeros((dim, dim), dtype=complex)
    a[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(numbers[1:dim])
    a_dag = a.T.copy()
    delta = np.diag(numbers[:dim])
    delta_prime = np.diag(numbers[1:] - params.q * numbers[:dim])
    p_pow = np.diag(_running_products(np.full(dim - 1, params.p_inv)))
    for arr in (a, a_dag, delta, delta_prime, p_pow):
        arr.flags.writeable = False
    return FockOperators(dim=dim, a=a, a_dag=a_dag, delta=delta,
                         delta_prime=delta_prime, p_pow_neg_N=p_pow,
                         params=params)


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

    The last one reads ``p_pow_neg_N``.
    """
    q = ops.params.q
    a, ad, d, dp = ops.a, ops.a_dag, ops.delta, ops.delta_prime
    k = ops.dim - 1
    qmutator = a @ ad - q * (ad @ a)
    r1 = _block_max(qmutator - dp, k)
    r2 = _block_max(a @ d - q * (d @ a) - dp @ a, k)
    r3 = _block_max(d @ ad - q * (ad @ d) - ad @ dp, k)
    r4 = _block_max(qmutator - ops.p_pow_neg_N, k)
    return RelationReport(r1, r2, r3, r4, block_dim=k)
