import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from qpcoherent import (
    DeformationParams,
    InvalidParameterError,
    qp_number,
    qp_number_special,
    qp_sequence,
)
from qpcoherent.qnumbers import log_abs_numbers

from oracles import ref_number

QUON = DeformationParams(0.5, 1.0)
CLASSICAL = DeformationParams(1.0, 1.0)

# sin(4*pi/7)/sin(pi/7), mpmath 60 digits
SYM_4_PI7 = 2.2469796037174671


def complex_box(lo=-2.0, hi=2.0):
    part = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    return st.builds(complex, part, part)


def test_params_reject_zero_p():
    with pytest.raises(InvalidParameterError):
        DeformationParams(0.5, 0.0)


def test_params_derived_quantities():
    params = DeformationParams(0.5, 2.0)
    assert params.p_inv == 0.5
    assert params.denom == 0.0
    assert params.is_degenerate
    assert not DeformationParams(0.5, 1.0).is_degenerate


def test_number_hand_value():
    assert qp_number(3, QUON) == pytest.approx(1.75, abs=1e-15)


def test_number_zero_index_exact():
    assert qp_number(0, QUON) == 0
    assert qp_number(0, CLASSICAL) == 0


def test_number_classical_limit_via_degenerate_branch():
    assert CLASSICAL.is_degenerate
    assert qp_number(5, CLASSICAL) == 5


def test_number_symmetric_trigonometric_value():
    Q = cmath.exp(1j * math.pi / 7)
    got = qp_number(4, DeformationParams(Q, Q))
    oracle = math.sin(4 * math.pi / 7) / math.sin(math.pi / 7)
    assert oracle == pytest.approx(SYM_4_PI7, abs=1e-15)
    assert got == pytest.approx(SYM_4_PI7, abs=1e-13)
    ref = ref_number(4, Q, Q)
    assert abs(got - complex(ref)) < 1e-13


def test_number_negative_index_rejected():
    with pytest.raises(InvalidParameterError):
        qp_number(-1, QUON)


def test_special_hand_value():
    assert qp_number_special(2, 2.0) == pytest.approx(2.5, abs=1e-15)


def test_special_first_number_is_one():
    for Q in (2.0, 0.3 + 0.4j, cmath.exp(0.9j)):
        assert qp_number_special(1, Q) == pytest.approx(1.0, abs=1e-14)


def test_special_unit_argument_degenerate_limit():
    assert qp_number_special(3, 1.0) == 3
    assert qp_number_special(3, -1.0) == pytest.approx(3.0, abs=1e-14)


def test_special_zero_rejected():
    with pytest.raises(InvalidParameterError):
        qp_number_special(2, 0.0)


def test_special_matches_symmetric_pair():
    Q = 0.7 + 0.4j
    for n in range(8):
        assert qp_number_special(n, Q) == qp_number(n, DeformationParams(Q, Q))


def test_sequence_quon_factorials():
    seq = qp_sequence(3, QUON)
    np.testing.assert_allclose(seq.factorials, [1, 1, 1.5, 2.625], atol=1e-15)
    np.testing.assert_allclose(seq.abs_factorials, [1, 1, 1.5, 2.625], atol=1e-15)


def test_sequence_trivial_length():
    seq = qp_sequence(0, QUON)
    assert list(seq.numbers) == [0]
    assert list(seq.factorials) == [1]
    assert list(seq.abs_factorials) == [1]


def test_sequence_classical_ordinary_factorials():
    seq = qp_sequence(6, CLASSICAL)
    np.testing.assert_allclose(seq.factorials.real, [1, 1, 2, 6, 24, 120, 720],
                               rtol=1e-15)


def test_sequence_matches_pointwise_number():
    params = DeformationParams(0.6 + 0.2j, cmath.exp(0.8j))
    seq = qp_sequence(12, params)
    for n in range(13):
        assert seq.numbers[n] == qp_number(n, params)


def test_sequence_overflow_flagged():
    seq = qp_sequence(80, DeformationParams(3.0, 1.0))
    assert seq.overflow_index is not None
    assert not np.isfinite(seq.abs_factorials[seq.overflow_index])
    assert np.all(np.isfinite(seq.abs_factorials[: seq.overflow_index]))


def test_sequence_root_of_unity_resonance():
    # q = p = i puts q*p at -1, so [2] cancels exactly
    seq = qp_sequence(6, DeformationParams(1j, 1j))
    assert seq.resonance_index == 2
    assert seq.numbers[2] == 0
    assert np.all(seq.factorials[2:] == 0)


def test_degenerate_branch_continuity():
    # approach p -> 1/q and compare against the analytic limit n q**(n-1)
    for q in (0.5, 0.8 * cmath.exp(0.3j)):
        near = DeformationParams(q, 1.0 / (q + 1e-6))
        assert not near.is_degenerate
        for n in range(21):
            limit = n * q ** (n - 1) if n else 0.0
            assert abs(qp_number(n, near) - limit) < 1e-4


@given(complex_box(), complex_box())
def test_conjugation_symmetry(q, p):
    assume(abs(p) > 1e-3 and abs(q) > 1e-3)
    params = DeformationParams(q, p)
    conj_params = DeformationParams(q.conjugate(), p.conjugate())
    for n in (1, 2, 5):
        assert qp_number(n, conj_params) == qp_number(n, params).conjugate()


@given(complex_box(), complex_box())
def test_first_number_always_one(q, p):
    assume(abs(p) > 1e-3)
    params = DeformationParams(q, p)
    assume(not params.is_degenerate)
    assert qp_number(1, params) == pytest.approx(1.0, abs=1e-12)


@given(complex_box(), complex_box(), st.integers(1, 25))
def test_abs_factorial_matches_factorial_modulus(q, p, n_max):
    assume(abs(p) > 1e-2 and abs(q) > 1e-2)
    params = DeformationParams(q, p)
    seq = qp_sequence(n_max, params)
    stop = seq.overflow_index if seq.overflow_index is not None else n_max + 1
    for n in range(stop):
        mag = abs(seq.factorials[n])
        if mag > 0:
            assert seq.abs_factorials[n] == pytest.approx(mag, rel=1e-12)


@given(st.integers(0, 15), complex_box(), complex_box())
def test_against_arbitrary_precision_oracle(n, q, p):
    assume(abs(p) > 0.05 and abs(q) > 0.05)
    params = DeformationParams(q, p)
    assume(abs(params.denom) > 1e-3)
    got = qp_number(n, params)
    ref = complex(ref_number(n, q, p))
    assert got == pytest.approx(ref, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("q, p", [
    (0.5 * cmath.exp(0.7j), 1.3 * cmath.exp(-2.1j)),   # |qp| < 1
    (1.6 * cmath.exp(2.4j), 0.9 * cmath.exp(0.3j)),    # |qp| > 1
    (cmath.exp(1.1j), 1.0),                            # |qp| = 1
    (0.5j, -2j),                                       # degenerate, qp = 1
])
def test_log_abs_numbers_against_oracle(q, p):
    params = DeformationParams(q, p)
    got = log_abs_numbers(params, 120)
    with mp.workdps(50):
        want = [float(mp.log(abs(ref_number(n, q, p)))) for n in range(1, 121)]
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_log_abs_numbers_exact_resonance_is_minus_inf():
    # q = p = i: qp = -1, so (qp)**2 = 1 exactly and every even [n] is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_abs_numbers(DeformationParams(1j, 1j), 40)
    assert np.all(np.isneginf(got[1::2]))
    with mp.workdps(50):
        want = [float(mp.log(abs(ref_number(n, 1j, 1j)))) for n in range(1, 41, 2)]
    assert np.max(np.abs(got[0::2] - want)) <= 1e-13
