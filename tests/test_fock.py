import cmath
import math

import numpy as np
import pytest

from qpcoherent import (
    DeformationParams,
    InvalidParameterError,
    build_operators,
    qp_sequence,
    relation_residuals,
)

QUON = DeformationParams(0.5, 1.0)
CLASSICAL = DeformationParams(1.0, 1.0)

SQRT_1_75 = 1.3228756555322953


def test_classical_ladder_entries():
    ops = build_operators(3, CLASSICAL)
    assert ops.a[0, 1] == pytest.approx(1.0)
    assert ops.a[1, 2] == pytest.approx(math.sqrt(2.0))


def test_quon_superdiagonal_entry():
    ops = build_operators(4, QUON)
    assert ops.a[2, 3] == pytest.approx(SQRT_1_75, abs=1e-15)


def test_minimal_truncation():
    ops = build_operators(2, DeformationParams(0.3 + 0.1j, cmath.exp(0.4j)))
    np.testing.assert_allclose(ops.a, [[0, 1], [0, 0]], atol=1e-14)


def test_dim_lower_bound():
    with pytest.raises(InvalidParameterError):
        build_operators(1, QUON)


def test_annihilator_kills_vacuum():
    ops = build_operators(8, DeformationParams(0.6, cmath.exp(0.7j)))
    vac = np.zeros(8, dtype=complex)
    vac[0] = 1.0
    assert np.all(ops.a @ vac == 0)


def test_delta_spectrum_is_the_basket():
    params = DeformationParams(0.7 * cmath.exp(0.5j), cmath.exp(1.3j))
    ops = build_operators(10, params)
    np.testing.assert_array_equal(np.diag(ops.delta),
                                  qp_sequence(10, params).numbers[:10])


def test_creator_is_plain_transpose():
    params = DeformationParams(0.7 * cmath.exp(0.5j), cmath.exp(1.3j))
    ops = build_operators(9, params)
    np.testing.assert_array_equal(ops.a_dag, ops.a.T)


def test_ladder_consistency_builds_number_states():
    # (a+)^n |0> must reach sqrt([n]!) |n> with the same branch convention
    params = DeformationParams(0.8 * cmath.exp(1.1j), cmath.exp(0.3j))
    dim = 12
    ops = build_operators(dim, params)
    seq = qp_sequence(dim, params)
    vec = np.zeros(dim, dtype=complex)
    vec[0] = 1.0
    roots = np.sqrt(seq.numbers[1:])
    expected_scale = 1.0 + 0.0j
    for n in range(1, dim):
        vec = ops.a_dag @ vec
        expected_scale *= roots[n - 1]
        expected = np.zeros(dim, dtype=complex)
        expected[n] = expected_scale
        np.testing.assert_allclose(vec, expected, rtol=1e-12, atol=1e-12)
        assert abs(expected_scale) == pytest.approx(
            math.sqrt(seq.abs_factorials[n]), rel=1e-12)


def test_delta_prime_equals_inverse_p_powers():
    for params in (QUON, DeformationParams(0.5, cmath.exp(1j * math.pi / 4)),
                   DeformationParams(cmath.exp(0.9j), 1.8)):
        ops = build_operators(16, params)
        got = np.diag(ops.delta_prime)
        want = np.diag(ops.p_pow_neg_N)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("params", [
    CLASSICAL,
    QUON,
    DeformationParams(cmath.exp(1j * math.pi / 5), cmath.exp(1j * math.pi / 7)),
])
def test_relation_residuals_tiny(params):
    report = relation_residuals(build_operators(12, params))
    assert report.block_dim == 11
    assert report.residual_qmutation <= 1e-12
    assert report.residual_delta_comm <= 1e-12
    assert report.residual_adag_comm <= 1e-12
    assert report.residual_qp <= 1e-12


def test_classical_commutator_is_identity_on_interior():
    ops = build_operators(10, CLASSICAL)
    comm = ops.a @ ops.a_dag - ops.a_dag @ ops.a
    np.testing.assert_allclose(comm[:9, :9], np.eye(9), atol=1e-12)


def test_classical_annihilator_is_sqrt_n():
    ops = build_operators(6, CLASSICAL)
    np.testing.assert_allclose(ops.a, np.diag(np.sqrt(np.arange(1.0, 6.0)), 1),
                               atol=1e-14)


def test_quon_identity():
    q = 0.5
    ops = build_operators(12, QUON)
    lhs = ops.a @ ops.a_dag - q * (ops.a_dag @ ops.a) - np.eye(12)
    assert np.max(np.abs(lhs[:11, :11])) <= 1e-12


def test_trigonometric_spectrum():
    Q = cmath.exp(1j * math.pi / 6)
    ops = build_operators(9, DeformationParams(Q, Q))
    got = np.diag(ops.delta)
    want = [math.sin(n * math.pi / 6) / math.sin(math.pi / 6) for n in range(9)]
    np.testing.assert_allclose(got.real, want, atol=1e-12)
    np.testing.assert_allclose(got.imag, 0.0, atol=1e-12)
    # Q**12 = 1 makes [6] vanish: the sequence stores it as 0 and flags it
    seq = qp_sequence(8, DeformationParams(Q, Q))
    assert got[6] == 0 and seq.numbers[6] == 0 and seq.resonance_index == 6


def test_interior_residuals_across_regime_grid():
    # 5 x 5 grid of convergent-regime pairs (|q| <= 1, |p| = 1) at dim = 20
    q_list = [0.35, 0.55 * cmath.exp(0.8j), 0.75 * cmath.exp(2.0j),
              0.9 * cmath.exp(1.3j), cmath.exp(0.6j)]
    p_list = [1.0, cmath.exp(0.5j), cmath.exp(1.1j), cmath.exp(1.9j),
              cmath.exp(2.8j)]
    for q in q_list:
        for p in p_list:
            params = DeformationParams(q, p)
            report = relation_residuals(build_operators(20, params))
            worst = max(report.residual_qmutation, report.residual_delta_comm,
                        report.residual_adag_comm, report.residual_qp)
            assert worst <= 1e-12, (q, p, worst)


def test_operators_share_sequence_with_consumers():
    params = DeformationParams(0.5, cmath.exp(0.4j))
    ops = build_operators(7, params)
    seq = qp_sequence(7, params)
    np.testing.assert_array_equal(np.diag(ops.delta), seq.numbers[:7])
    np.testing.assert_array_equal(np.diag(ops.delta_prime),
                                  seq.numbers[1:] - params.q * seq.numbers[:7])


def test_running_products_match_scalar_loops_exactly():
    params = DeformationParams(0.7 * cmath.exp(0.3j), 1.2 * cmath.exp(-2.2j))
    ops = build_operators(30, params)
    p_pow = [1 + 0j]
    for _ in range(29):
        p_pow.append(p_pow[-1] * params.p_inv)
    assert np.diag(ops.p_pow_neg_N).tolist() == p_pow
    seq = qp_sequence(8, params)
    fact, abs_fact = [1 + 0j], [1.0]
    for value in seq.numbers[1:].tolist():
        fact.append(fact[-1] * value)
        abs_fact.append(abs_fact[-1] * abs(value))
    assert seq.factorials.tolist() == fact
    assert seq.abs_factorials.tolist() == abs_fact
