import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from qpcoherent import (
    DeformationParams,
    InvalidParameterError,
    LabelOutOfDiskError,
    OverlapInconsistencyError,
    ParameterMismatchError,
    RootOfUnityDegeneracyError,
    SeriesDivergenceError,
    annihilator_residual,
    build_operators,
    convergence_radius,
    label_distance_sq,
    make_state,
    overlap,
)
from qpcoherent import coherent

QUON = DeformationParams(0.5, 1.0)
CLASSICAL = DeformationParams(1.0, 1.0)
COMPLEX_P = DeformationParams(0.5, cmath.exp(1j * math.pi / 4))

OVERLAP_CLASSICAL = 0.9801986733067553        # exp(-0.02)
DIST2_CLASSICAL = 0.039602653386489396        # 2 (1 - exp(-0.02))


def label_span(params):
    radius = convergence_radius(params)
    return radius if math.isfinite(radius) else 4.0


def test_vacuum_state():
    s = make_state(0.0, QUON)
    assert s.coeffs[0] == 1.0
    assert np.all(s.coeffs[1:] == 0)
    assert s.norm_const == pytest.approx(1.0)


def test_classical_state_matches_canonical_form():
    s = make_state(1.0, CLASSICAL, dim=30)
    want = np.array([math.exp(-0.5) / math.sqrt(math.factorial(n))
                     for n in range(30)])
    np.testing.assert_allclose(s.coeffs.real, want, atol=1e-10)
    np.testing.assert_allclose(s.coeffs.imag, 0.0, atol=1e-15)


def test_quon_state_is_normalized():
    s = make_state(0.8, QUON)
    assert abs(np.sum(np.abs(s.coeffs) ** 2) - 1.0) <= 1e-10
    assert abs(overlap(s, s) - 1.0) <= 1e-10


def test_unnormalized_coefficients():
    # c_n / c_0 = z**n / sqrt([n]!): [2]! = 1.5 at q = 0.5, p = 1
    s = make_state(0.5, QUON, dim=6)
    assert s.coeffs[0] == s.norm_const
    assert s.coeffs[2] / s.coeffs[0] == pytest.approx(0.25 / math.sqrt(1.5), abs=1e-14)


def test_label_outside_disk_rejected():
    with pytest.raises(LabelOutOfDiskError):
        make_state(1.5, QUON)          # |z|^2 = 2.25 > R = 2
    with pytest.raises(LabelOutOfDiskError):
        make_state(math.sqrt(2.0), QUON)   # exactly on the boundary


def test_divergent_normalization_series_is_rejected():
    # inside R = 6, but |[n]| decays like (2/3)**n: the normalization series
    # leaves double range, and a zero norm constant would be no state
    with pytest.raises(SeriesDivergenceError, match="DivergentInput"):
        make_state(1.0, DeformationParams(0.5, 1.5))


def test_overlap_classical_closed_form():
    s1 = make_state(0.3, CLASSICAL)
    s2 = make_state(0.5, CLASSICAL)
    assert overlap(s1, s2) == pytest.approx(OVERLAP_CLASSICAL, abs=1e-12)


def test_overlap_identical_labels():
    for params in (CLASSICAL, QUON, COMPLEX_P):
        z = 0.4 * math.sqrt(label_span(params))
        s = make_state(z * cmath.exp(0.3j), params)
        assert overlap(s, s) == pytest.approx(1.0, abs=1e-10)


def test_overlap_vacuum_pair_exact():
    s1 = make_state(0.0, QUON)
    s2 = make_state(0.0, QUON)
    assert overlap(s1, s2) == 1.0


def test_overlap_builds_numbers_only_to_continue_the_shorter_state(monkeypatch):
    short, long_ = make_state(0.2, QUON), make_state(0.9, QUON)
    assert short.dim < long_.dim
    same = make_state(0.5, QUON, dim=long_.dim)
    calls = []

    def counting(params, count):
        calls.append(count)
        return numbers(params, count)

    numbers = coherent._stored
    monkeypatch.setattr(coherent, "_stored", counting)
    overlap(same, long_)
    assert calls == []
    overlap(short, long_)
    assert calls == [long_.dim - 1]


def test_continuing_past_a_flagged_number_raises():
    # q = p = exp(i pi/7): (qp)**7 = 1, so [7] is flagged and stored as 0
    root = cmath.exp(1j * math.pi / 7)
    params = DeformationParams(root, root)
    head = coherent._continued_coeffs([1.0], 7, 0.1, params)
    assert np.all(head != 0)
    with pytest.raises(RootOfUnityDegeneracyError) as err:
        coherent._continued_coeffs(head, 9, 0.1, params)
    assert err.value.index == 7


def test_overlap_requires_matching_parameters():
    with pytest.raises(ParameterMismatchError):
        overlap(make_state(0.2, QUON), make_state(0.2, CLASSICAL))


def test_label_distance_classical_value():
    s1 = make_state(0.3, CLASSICAL)
    s2 = make_state(0.5, CLASSICAL)
    assert label_distance_sq(s1, s2) == pytest.approx(DIST2_CLASSICAL, abs=1e-12)
    assert label_distance_sq(s1, s1) == pytest.approx(0.0, abs=1e-10)


def test_distance_cross_validates_with_coefficients():
    for params in (CLASSICAL, QUON, COMPLEX_P):
        r = math.sqrt(label_span(params))
        s1 = make_state(0.30 * r, params)
        s2 = make_state(0.45 * r * cmath.exp(0.4j), params)
        d_overlap = label_distance_sq(s1, s2)
        # direct ||c1 - c2||**2, the shorter vector padded with zeros
        c1, c2 = (np.zeros(max(s1.dim, s2.dim), dtype=complex) for _ in range(2))
        c1[: s1.dim], c2[: s2.dim] = s1.coeffs, s2.coeffs
        d_direct = float(np.sum(np.abs(c1 - c2) ** 2))
        assert d_direct == pytest.approx(d_overlap, abs=1e-10)


def test_continuity_sweep_monotone():
    for params in (CLASSICAL, QUON, COMPLEX_P):
        z = 0.35 * math.sqrt(label_span(params))
        base = make_state(z, params)
        dists = [label_distance_sq(base, make_state(z + 10.0 ** (-k), params))
                 for k in range(1, 7)]
        assert all(b < a for a, b in zip(dists, dists[1:]))
        assert dists[-1] <= 1e-9


def test_annihilator_vacuum_exact():
    s = make_state(0.0, QUON, dim=6)
    ops = build_operators(6, QUON)
    assert annihilator_residual(s, ops) == 0.0


def test_annihilator_classical():
    s = make_state(1.0, CLASSICAL, dim=40)
    ops = build_operators(40, CLASSICAL)
    assert annihilator_residual(s, ops) <= 1e-10


def test_annihilator_bound_by_tail():
    params = DeformationParams(0.5, cmath.exp(1j * math.pi / 3))
    z = 0.5 * math.sqrt(convergence_radius(params))
    s = make_state(z, params)
    ops = build_operators(s.dim, params)
    assert annihilator_residual(s, ops) <= 10.0 * s.tail_bound
    # the truncation edge, which the residual leaves out, is not an eigenvector row
    assert abs((ops.a @ s.coeffs - s.z * s.coeffs)[s.dim - 1]) > 0.0


def test_annihilator_dimension_mismatch():
    s = make_state(0.5, QUON, dim=8)
    with pytest.raises(ParameterMismatchError):
        annihilator_residual(s, build_operators(9, QUON))


def test_annihilator_parameter_mismatch():
    s = make_state(0.5, QUON, dim=8)
    with pytest.raises(ParameterMismatchError,
                       match="operators and state parameters differ"):
        annihilator_residual(s, build_operators(8, COMPLEX_P))


def test_state_dimension_must_be_positive():
    with pytest.raises(InvalidParameterError, match="dim must be positive"):
        make_state(0.5, QUON, dim=0)


def test_overlap_detects_a_tampered_normalization():
    s1, s2 = make_state(0.3, QUON), make_state(0.4j, QUON)
    tampered = dataclasses.replace(s1, norm_const=1.01 * s1.norm_const)
    with pytest.raises(OverlapInconsistencyError,
                       match="coefficient overlap .* vs closed form"):
        overlap(tampered, s2)


def test_phase_covariance():
    z = 0.7
    phi = 1.234
    s0 = make_state(z, QUON, dim=18)
    s1 = make_state(z * cmath.exp(1j * phi), QUON, dim=18)
    n = np.arange(18)
    rotated = s0.coeffs * np.exp(1j * phi * n)
    np.testing.assert_allclose(s1.coeffs, rotated, rtol=5e-13, atol=1e-16)


def test_dim_choice_certifies_tail():
    s = make_state(1.2, QUON)
    assert s.tail_bound <= 1e-10
    assert abs(np.sum(np.abs(s.coeffs) ** 2) - 1.0) <= max(1e-10, s.tail_bound)


@given(st.floats(0.02, 0.78), st.floats(0.0, 6.28))
def test_normalization_over_disk(frac, phase):
    for params in (QUON, COMPLEX_P):
        radius = convergence_radius(params)
        z = math.sqrt(frac * radius) * cmath.exp(1j * phase)
        assume(abs(z) ** 2 < 0.8 * radius)
        s = make_state(z, params)
        assert abs(np.sum(np.abs(s.coeffs) ** 2) - 1.0) <= max(1e-10, s.tail_bound)


def test_single_coefficient_state():
    # dim = 1 keeps only c_0 = exp2(|z|**2)**(-1/2); [n] is never needed
    state = make_state(0.3, CLASSICAL, dim=1)
    assert state.coeffs.tolist() == [complex(9.5599748183309996e-01)]


def test_overlap_continues_the_shorter_state_exactly():
    # continuing a truncated state reproduces the longer one bit for bit
    short = make_state(0.4 + 0.1j, QUON, dim=5)
    full = make_state(0.4 + 0.1j, QUON)
    assert full.dim > short.dim
    assert overlap(short, full) == overlap(full, full)
