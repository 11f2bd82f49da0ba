import cmath
import collections
import itertools
import math
import random
import struct
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from qpcoherent import (
    DeformationParams,
    InvalidParameterError,
    qp_sequence,
    target_moments,
)
from qpcoherent import qnumbers
from qpcoherent.qnumbers import (
    RESONANCE_RTOL,
    _build,
    _stored,
    iter_numbers,
    log_abs_numbers,
)

from oracles import ref_number


def number(n, params):
    """[n] as a Python complex, read from the sequence of n_max = n."""
    return complex(qp_sequence(n, params).numbers[n])


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
    assert number(3, QUON) == pytest.approx(1.75, abs=1e-15)


def test_number_zero_index_exact():
    assert number(0, QUON) == 0
    assert number(0, CLASSICAL) == 0


def test_number_classical_limit_via_degenerate_branch():
    assert CLASSICAL.is_degenerate
    assert number(5, CLASSICAL) == 5


def test_number_symmetric_trigonometric_value():
    Q = cmath.exp(1j * math.pi / 7)
    got = number(4, DeformationParams(Q, Q))
    oracle = math.sin(4 * math.pi / 7) / math.sin(math.pi / 7)
    assert oracle == pytest.approx(SYM_4_PI7, abs=1e-15)
    assert got == pytest.approx(SYM_4_PI7, abs=1e-13)
    ref = ref_number(4, Q, Q)
    assert abs(got - complex(ref)) < 1e-13


def test_number_negative_index_rejected():
    with pytest.raises(InvalidParameterError):
        number(-1, QUON)


# the symmetric one-parameter case q = p = Q: [n] = (Q**n - Q**(-n))/(Q - 1/Q)


def test_special_hand_value():
    assert number(2, DeformationParams(2.0, 2.0)) == pytest.approx(2.5, abs=1e-15)


def test_special_first_number_is_one():
    for Q in (2.0, 0.3 + 0.4j, cmath.exp(0.9j)):
        assert number(1, DeformationParams(Q, Q)) == pytest.approx(1.0, abs=1e-14)


def test_special_unit_argument_degenerate_limit():
    # Q = +-1 is on the degenerate set: n Q**(n-1)
    assert number(3, DeformationParams(1.0, 1.0)) == 3
    assert number(3, DeformationParams(-1.0, -1.0)) == pytest.approx(3.0, abs=1e-14)


def test_special_zero_rejected():
    with pytest.raises(InvalidParameterError):
        number(2, DeformationParams(0.0, 0.0))


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
        assert seq.numbers[n] == number(n, params)


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


@pytest.mark.parametrize("q, p, n", [
    (cmath.exp(2j * math.pi / 5), 1.0, 5),   # (qp)**5 = 1 up to rounding
    (1j, 1j, 2),                             # (qp)**2 = 1 exactly
])
def test_number_and_sequence_agree_at_a_flagged_n(q, p, n):
    params = DeformationParams(q, p)
    seq = qp_sequence(n, params)
    assert seq.resonance_index == n
    got = number(n, params)
    assert got == 0 and _bits([got]) == _bits([seq.numbers[n]])


def test_overflow_is_not_a_resonance():
    # 3**647 overflows: [647] is inf, not a cancellation flagged as 0, so the
    # moments report the factorial overflow at n = 37
    seq = qp_sequence(650, DeformationParams(3.0, 1.0))
    assert seq.resonance_index is None and seq.overflow_index == 37
    assert seq.numbers[647].real == math.inf
    with pytest.raises(InvalidParameterError, match="overflows at n = 37"):
        target_moments(DeformationParams(3.0, 1.0), 700)


def test_degenerate_branch_continuity():
    # approach p -> 1/q and compare against the analytic limit n q**(n-1)
    for q in (0.5, 0.8 * cmath.exp(0.3j)):
        near = DeformationParams(q, 1.0 / (q + 1e-6))
        assert not near.is_degenerate
        for n in range(21):
            limit = n * q ** (n - 1) if n else 0.0
            assert abs(number(n, near) - limit) < 1e-4


@given(complex_box(), complex_box())
def test_conjugation_symmetry(q, p):
    assume(abs(p) > 1e-3 and abs(q) > 1e-3)
    params = DeformationParams(q, p)
    conj_params = DeformationParams(q.conjugate(), p.conjugate())
    for n in (1, 2, 5):
        assert number(n, conj_params) == number(n, params).conjugate()


@given(complex_box(), complex_box())
def test_first_number_always_one(q, p):
    assume(abs(p) > 1e-3)
    params = DeformationParams(q, p)
    assume(not params.is_degenerate)
    assert number(1, params) == pytest.approx(1.0, abs=1e-12)


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
    got = number(n, params)
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
    got = log_abs_numbers([params], 120)[0]
    with mp.workdps(50):
        want = [float(mp.log(abs(ref_number(n, q, p)))) for n in range(1, 121)]
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def _near_one_strip(size=26):
    # |qp - 1| log-spaced from 1e-15 to 1e-3, where q - 1/p is as small
    rng = random.Random(20261020)
    points = []
    for i in range(size):
        gap = 10.0 ** (-15 + 12 * i / (size - 1))
        q = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
        points.append((q, (1.0 + cmath.rect(gap, rng.uniform(-math.pi, math.pi))) / q))
    return points


def _quadrants(per=6):
    # (|q| < 1 or > 1) x (|p| < 1 or > 1); every other point off the diagonal
    # has |qp| = 1, where S_n can cancel
    rng = random.Random(20261021)
    points = []
    for small_q, small_p in itertools.product((True, False), repeat=2):
        for k in range(per):
            aq = rng.uniform(0.5, 0.99) if small_q else rng.uniform(1.01, 2.0)
            ap = rng.uniform(0.5, 0.99) if small_p else rng.uniform(1.01, 2.0)
            if small_q != small_p and k % 2:
                ap = 1.0 / aq
            points.append((cmath.rect(aq, rng.uniform(-math.pi, math.pi)),
                           cmath.rect(ap, rng.uniform(-math.pi, math.pi))))
    return points


@pytest.mark.parametrize("points, tol", [(_near_one_strip(), 1e-13),
                                         (_quadrants(), 2e-13)],
                         ids=["near_qp_one", "quadrants"])
def test_numbers_against_mpmath_up_to_200(points, tol):
    # the error is bounded by tol times the sum of the moduli of the n terms
    # q**k p**(k-n+1) of [n]. On the strip the terms point one way, so that
    # sum is |[n]| and the bound is relative; at |qp| = 1 it allows for the
    # cancellation of the sum, which the direct formula suffers as much
    for q, p in points:
        seq = qp_sequence(200, DeformationParams(q, p))
        stop = seq.overflow_index if seq.overflow_index is not None else 201
        assert seq.resonance_index is None and stop > 40, (q, p)
        mq, mp_ = mp.mpc(q), mp.mpc(p)
        term_sum = mp.mpf(0)
        for n in range(1, stop):
            term_sum = term_sum / abs(mp_) + abs(mq) ** (n - 1)
            ref = ref_number(n, q, p)
            assert abs(mp.mpc(seq.numbers[n]) - ref) <= tol * term_sum, (q, p, n)


def test_log_abs_numbers_minus_inf_exactly_where_the_builder_flags():
    # |S_5k| / 5k = |1 - (qp)**5k| / (5k |1 - qp|) is about 1.45e-13 for
    # every k: every multiple of 5 is flagged, and the resonance index stays 5
    near = DeformationParams(cmath.exp(1j * (2 * math.pi / 5 + 1.7e-13)), 1.0)
    flagged = np.flatnonzero(np.isneginf(log_abs_numbers([near], 300)[0])) + 1
    assert flagged.tolist() == list(range(5, 301, 5))
    assert qp_sequence(300, near).resonance_index == 5
    for q, p in [(near.q, near.p), *_builder_points()]:
        params = DeformationParams(q, p)
        with np.errstate(divide="ignore"):
            logs = log_abs_numbers([params], 300)[0]
        assert np.isneginf(logs).tolist() == _build(params, 300)[1].tolist(), (q, p)


def test_log_abs_numbers_exact_resonance_is_minus_inf():
    # q = p = i: qp = -1, so (qp)**2 = 1 exactly and every even [n] is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_abs_numbers([DeformationParams(1j, 1j)], 40)[0]
    assert np.all(np.isneginf(got[1::2]))
    with mp.workdps(50):
        want = [float(mp.log(abs(ref_number(n, 1j, 1j)))) for n in range(1, 41, 2)]
    assert np.max(np.abs(got[0::2] - want)) <= 1e-13


# ----------------------------------------------------------------------
# the array builder against a scalar reference, bit for bit


def _scalar_numbers(q, p, count):
    """([n], flagged) for n = 1..count in the factored form l**(n-1) S_n, with
    running products, running sums and the built-in complex ``*`` and
    ``abs``: the loop the array builder replaces. (l, r) is (1/p, qp) where
    |qp| <= 1 and (q, 1/(qp)) otherwise; the flag is |S_n| <= RESONANCE_RTOL n."""
    qp = q * p
    ell, r = (1.0 / p, qp) if abs(qp) <= 1.0 else (q, 1.0 / qp)
    lk = rk = 1.0 + 0.0j
    s = 0j
    rows = []
    for n in range(1, count + 1):
        s += rk
        rows.append((lk * s, abs(s) <= RESONANCE_RTOL * n))
        lk *= ell
        rk *= r
    return rows


def _scalar_factorials(values):
    fact, abs_fact = [1.0 + 0.0j], [1.0]
    for value in values:
        fact.append(fact[-1] * value)
        abs_fact.append(abs_fact[-1] * abs(value))
    return fact, abs_fact


def _bits(values):
    # byte image of the real and imaginary parts; tells -0.0 from 0.0
    return [struct.pack("<dd", z.real, z.imag) for z in map(complex, values)]


def _builder_points():
    rng = random.Random(20260407)
    root7 = cmath.exp(2j * math.pi / 7)
    points = [
        (1j, 1j), (root7, 1.0), (1.0, 1.0 / root7), (3.0, 1.0), (20.0, 1.0),
        (0.0, 2.0), (0.0, 1e13), (1.0, 1.0), (-1.0, -1.0), (0.5, 2.0),
        (-0.5, 1.0), (complex(-0.5, -0.0), -1.0), (complex(0.5, -0.0), 1.0),
        (complex(-0.0, -0.3), 1.0),
        (0.5j, -2j), (cmath.exp(0.9j), cmath.exp(-0.9j)),
    ]
    while len(points) < 2000:
        q = rng.uniform(0.3, 2.5) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        kind = rng.randrange(4)
        if kind == 0:      # degenerate set
            p = 1.0 / q
        elif kind == 1:    # q p on the unit circle
            p = cmath.exp(1j * rng.uniform(-math.pi, math.pi)) / q
        else:
            p = rng.uniform(0.4, 3.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        if rng.random() < 0.2:   # real pairs, with either sign of zero
            q = complex(q.real, rng.choice((0.0, -0.0)))
            p = complex(p.real, rng.choice((0.0, -0.0)))
        points.append((q, p))
    return points


def test_builder_matches_scalar_loop_bit_for_bit():
    kinds = {"degenerate": 0, "resonant": 0, "overflow": 0}
    for q, p in _builder_points():
        params = DeformationParams(q, p)
        values, resonant = _build(params, 300)
        ref = _scalar_numbers(params.q, params.p, 300)
        assert _bits(values) == _bits(v for v, _ in ref), (q, p)
        assert resonant.tolist() == [r for _, r in ref], (q, p)
        kinds["degenerate"] += params.is_degenerate
        kinds["resonant"] += bool(resonant.any())
        kinds["overflow"] += not np.all(np.isfinite(values))
    assert min(kinds.values()) > 0, kinds


def test_sequence_matches_scalar_loop_bit_for_bit():
    for q, p in _builder_points()[:400]:
        params = DeformationParams(q, p)
        seq = qp_sequence(300, params)
        ref = _scalar_numbers(params.q, params.p, 300)
        numbers = [0j if r else v for v, r in ref]
        fact, abs_fact = _scalar_factorials(numbers)
        assert _bits(seq.numbers) == _bits([0j, *numbers]), (q, p)
        assert _bits(seq.factorials) == _bits(fact), (q, p)
        assert _bits(seq.abs_factorials) == _bits(abs_fact), (q, p)
        bad = [n for n in range(301)
               if not (cmath.isfinite(fact[n]) and math.isfinite(abs_fact[n]))]
        assert seq.overflow_index == (bad[0] if bad else None)
        flagged = [n for n, (_, r) in enumerate(ref, 1) if r]
        assert seq.resonance_index == (flagged[0] if flagged else None)


def test_number_and_iterator_are_views_of_the_builder():
    params = DeformationParams(0.9 * cmath.exp(0.4j), 1.1 * cmath.exp(-1.3j))
    values, resonant = _build(params, 300)
    assert not resonant.any()
    head = list(itertools.islice(iter_numbers(params), 300))
    assert all(type(v) is complex for v in head)
    assert _bits(head) == _bits(values)
    assert _bits([number(n, params) for n in (1, 64, 65, 300)]) == _bits(
        values[[0, 63, 64, 299]])


def test_iterator_yields_zero_where_the_builder_flags():
    params = DeformationParams(cmath.exp(2j * math.pi / 7), 1.0)
    values, resonant = _build(params, 300)
    head = list(itertools.islice(iter_numbers(params), 300))
    assert [v == 0 for v in head] == resonant.tolist() and resonant.sum() == 42
    assert _bits(head) == _bits(np.where(resonant, 0, values))


def test_iterator_builds_blocks_not_the_cap(monkeypatch):
    counts = []

    def recording(params, count):
        counts.append(count)
        return _stored(params, count)

    monkeypatch.setattr(qnumbers, "_stored", recording)
    head = list(itertools.islice(iter_numbers(QUON), 100))
    assert len(head) == 100 and counts == [64, 128]


def test_sequence_of_length_zero_on_the_degenerate_branch():
    seq = qp_sequence(0, CLASSICAL)
    assert seq.numbers.tolist() == [0j]
    assert seq.factorials.tolist() == [1 + 0j]
    assert seq.abs_factorials.tolist() == [1.0]
    assert seq.overflow_index is None and seq.resonance_index is None


def test_log_abs_numbers_degenerate_zero_q():
    # q = 0, p = 1e13 is on the degenerate set, yet [n] = 1e-13**(n-1) is no
    # zero: r = qp = 0, so S_n = 1 and [n] = (1/p)**(n-1)
    params = DeformationParams(0, 1e13)
    assert params.is_degenerate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_abs_numbers([params], 4)[0]
    with mp.workdps(50):
        want = [float(mp.log(abs(ref_number(n, 0, 1e13)))) for n in range(1, 5)]
    assert np.max(np.abs(got - want)) <= 1e-13 * max(np.abs(want))
    assert [number(n, params) for n in range(1, 5)] == pytest.approx(
        [complex(ref_number(n, 0, 1e13)) for n in range(1, 5)], rel=1e-15)


def test_degeneracy_threshold_is_a_module_constant():
    params = DeformationParams(0.5, 2.0)
    assert repr(params) == "DeformationParams(q=(0.5+0j), p=(2+0j))"
    with pytest.raises(TypeError):
        DeformationParams(0.5, 1.0, 1e-3)


# ----------------------------------------------------------------------
# the per-process sequence store


def _fresh_store(monkeypatch):
    store = collections.OrderedDict()
    monkeypatch.setattr(qnumbers, "_store", store)
    return store


def _counting_builds(monkeypatch):
    counts = []
    build = qnumbers._build

    def counting(params, count):
        counts.append(count)
        return build(params, count)

    monkeypatch.setattr(qnumbers, "_build", counting)
    return counts


def _arrays(seq):
    return [seq.numbers, seq.factorials, seq.abs_factorials]


def test_store_grows_to_the_bytes_of_a_fresh_build(monkeypatch):
    _fresh_store(monkeypatch)
    params = DeformationParams(0.9 * cmath.exp(0.4j), 1.1 * cmath.exp(-1.3j))
    fresh = {n: qnumbers._full_sequence(params, n) for n in (300, 1000)}
    counts = _counting_builds(monkeypatch)
    for n in (300, 1000, 700):
        entry = _stored(params, n)
        assert entry.n_max >= n
        assert [a[:n + 1].tobytes() for a in _arrays(entry)] == [
            a[:n + 1].tobytes() for a in _arrays(fresh[1000])]
        seq = qp_sequence(n, params)
        assert seq.n_max == n
        assert [a.tobytes() for a in _arrays(seq)] == [
            a[:n + 1].tobytes() for a in _arrays(fresh[1000])]
    assert [a.tobytes() for a in _arrays(qp_sequence(300, params))] == [
        a.tobytes() for a in _arrays(fresh[300])]
    assert counts == [300, 1000]   # grown once, then read


def test_store_reports_indices_only_below_the_cap(monkeypatch):
    _fresh_store(monkeypatch)
    params = DeformationParams(3.0, 1.0)   # |[n]|! overflows at n = 37
    assert qp_sequence(200, params).overflow_index == 37
    assert qp_sequence(36, params).overflow_index is None
    resonant = DeformationParams(cmath.exp(2j * math.pi / 7), 1.0)
    assert qp_sequence(100, resonant).resonance_index == 7
    assert qp_sequence(6, resonant).resonance_index is None
    assert qp_sequence(7, resonant).resonance_index == 7


def test_store_keys_tell_signed_zero_parts_apart(monkeypatch):
    store = _fresh_store(monkeypatch)
    plus, minus = (DeformationParams(complex(-2.0, zero), 1.0) for zero in (0.0, -0.0))
    assert plus == minus
    got = [qp_sequence(40, params) for params in (plus, minus)]
    assert len(store) == 2
    for params, seq in zip((plus, minus), got):
        assert _bits(seq.numbers) == _bits(qnumbers._full_sequence(params, 40).numbers)
    assert _bits(got[0].numbers) != _bits(got[1].numbers)


def test_stored_arrays_are_read_only(monkeypatch):
    _fresh_store(monkeypatch)
    arrays = [*_arrays(_stored(QUON, 50)), *_arrays(qp_sequence(50, QUON))]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_store_memory_stays_bounded(monkeypatch):
    store = _fresh_store(monkeypatch)
    # 40 bytes a term and object headers, against 16 MB for 400 000 terms
    bound = qnumbers._STORE_TERMS * 100
    params = DeformationParams(0.7 * cmath.exp(0.3j), cmath.exp(-0.9j))
    qp_sequence(10, params)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert len(_stored(params, 400_000).numbers) == 400_001
        assert len(qp_sequence(400_000, params).numbers) == 400_001
        for k in range(400):   # more (q, p) than the store keeps
            qp_sequence(100 + k % 50, DeformationParams(0.5 + k * 1e-3, 1.0))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < bound, retained
    assert sum(entry.n_max for entry in store.values()) <= qnumbers._STORE_TERMS
