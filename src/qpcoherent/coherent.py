"""Coherent-state candidates for the deformed oscillator.

A state with label z has number-basis coefficients z**n / sqrt([n]!), where
sqrt([n]!) is accumulated as the product of the per-step principal roots
sqrt([1]) ... sqrt([n]). That branch choice matches the ladder matrices, so
the annihilator eigenvalue property a|z> = z|z> holds to rounding on the
truncated space by construction. Normalization divides by the square root of
sum |z|**(2n) / |[n]|!.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .defexp import SeriesControl, Verdict, convergence_radius, exp2
from .errors import (
    InvalidParameterError,
    LabelOutOfDiskError,
    OverlapInconsistencyError,
    ParameterMismatchError,
    RootOfUnityDegeneracyError,
    SeriesDivergenceError,
)
from .fock import FockOperators
from .qnumbers import DeformationParams, _stored

# states never report a tail below the double-rounding floor
_TAIL_FLOOR = 1e-14

# truncation of the normalization series sum |z|**(2n) / |[n]|!
_STATE_CONTROL = SeriesControl(n_max=500, tol=1e-13, min_terms=10)


@dataclass(frozen=True)
class CoherentState:
    z: complex
    params: DeformationParams
    coeffs: np.ndarray
    norm_const: float
    tail_bound: float

    @property
    def dim(self) -> int:
        return len(self.coeffs)


def make_state(
    z: complex,
    params: DeformationParams,
    dim: int | None = None,
) -> CoherentState:
    """Construct the state with label z on a truncated number basis.

    When ``dim`` is omitted it is chosen so the normalization-series tail is
    below the series tolerance of 1e-13, tying the Fock truncation
    to a certified tail. Labels with |z|^2 >= R are rejected, and a
    normalization series that does not converge raises SeriesDivergenceError.
    """
    z = complex(z)
    if cmath.isnan(z):
        raise InvalidParameterError(f"z must not be NaN, got {z}")
    try:
        z_sq = abs(z) ** 2
    except OverflowError:   # beyond double range, so outside every disk
        z_sq = math.inf
    radius = convergence_radius(params)
    if z_sq >= radius:
        raise LabelOutOfDiskError(
            f"|z|^2 = {z_sq:.6g} >= convergence radius {radius:.6g}"
        )
    ev = exp2(z_sq, params, _STATE_CONTROL)   # inside the disk
    if ev.verdict is not Verdict.CONVERGED:
        raise SeriesDivergenceError(
            f"normalization series at |z|^2 = {z_sq:.6g} is "
            f"{ev.verdict.value}, not Converged"
        )
    if dim is None:
        dim = ev.terms_used + 1
    elif dim < 1:
        raise InvalidParameterError("dim must be positive")

    norm_const = 1.0 / math.sqrt(ev.value.real)
    coeffs = _continued_coeffs([norm_const], dim, z, params)
    coeffs.flags.writeable = False
    captured = float(np.sum(np.abs(coeffs) ** 2))
    tail = max(abs(1.0 - captured), ev.tail_bound / ev.value.real, _TAIL_FLOOR)
    return CoherentState(z=z, params=params, coeffs=coeffs,
                         norm_const=norm_const, tail_bound=tail)


def _continued_coeffs(head, length: int, z: complex,
                      params: DeformationParams) -> np.ndarray:
    """``head`` continued to ``length`` entries by c_n = c_{n-1} z / sqrt([n]).

    The recurrence does not depend on the truncation, so a shorter state can
    be continued. It stays a loop: a vectorized product rounds differently.
    """
    out = np.zeros(length, dtype=complex)
    out[: len(head)] = head
    if len(head) == length:
        return out
    numbers = _stored(params, length - 1).numbers[:length]
    roots = np.sqrt(numbers)
    for n in range(len(head), length):
        if numbers[n] == 0:   # a flagged [n]
            raise RootOfUnityDegeneracyError(n)
        out[n] = out[n - 1] * z / roots[n]
    return out


def overlap(s1: CoherentState, s2: CoherentState) -> complex:
    """<z1|z2> as the coefficient-space inner product.

    Both coefficient vectors are carried to the longer truncation so the
    cross series conj(z1) z2 is not cut short by the smaller label. The
    closed form N(|z1|^2) N(|z2|^2) exp2(conj(z1) z2) is evaluated alongside
    and the two must agree within ten times the combined tails; disagreement
    raises OverlapInconsistencyError.
    """
    if s1.params.q != s2.params.q or s1.params.p != s2.params.p:
        raise ParameterMismatchError("states carry different deformation parameters")
    m = max(s1.dim, s2.dim)
    c1, c2 = (_continued_coeffs(s.coeffs, m, s.z, s.params) for s in (s1, s2))
    ip = complex(np.vdot(c1, c2))
    cross = exp2(np.conj(s1.z) * s2.z, s1.params,
                 SeriesControl(n_max=1000, tol=1e-13, min_terms=10))
    if cross.verdict is not Verdict.CONVERGED:
        raise SeriesDivergenceError("cross exponential did not converge")
    closed = s1.norm_const * s2.norm_const * cross.value
    budget = 10.0 * (s1.tail_bound + s2.tail_bound + cross.tail_bound) + 1e-13
    if abs(ip - closed) > budget:
        raise OverlapInconsistencyError(
            f"coefficient overlap {ip} vs closed form {closed} "
            f"differ by {abs(ip - closed):.3e} > {budget:.3e}"
        )
    return ip


def label_distance_sq(s1: CoherentState, s2: CoherentState) -> float:
    """Squared norm distance 2 (1 - Re <z1|z2>), clamped at zero."""
    return max(0.0, 2.0 * (1.0 - overlap(s1, s2).real))


def _check_state_ops(state: CoherentState, ops: FockOperators) -> None:
    if ops.dim != state.dim:
        raise ParameterMismatchError(
            f"operator truncation {ops.dim} != state truncation {state.dim}"
        )
    if ops.params.q != state.params.q or ops.params.p != state.params.p:
        raise ParameterMismatchError("operators and state parameters differ")


def annihilator_residual(state: CoherentState, ops: FockOperators) -> float:
    """||a c - z c||_2 over components 0..dim-2.

    The last component is excluded: it is pure truncation (the matrix cannot
    reach coefficient dim).
    """
    _check_state_ops(state, ops)
    r = ops.a @ state.coeffs - state.z * state.coeffs
    return float(np.linalg.norm(r[: state.dim - 1]))
