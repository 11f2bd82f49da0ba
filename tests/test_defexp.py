import cmath
import itertools
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from qpcoherent import (
    DeformationParams,
    InvalidParameterError,
    RootOfUnityDegeneracyError,
    SeriesControl,
    Verdict,
    convergence_radius,
    exp1,
    exp2,
    qp_sequence,
)
from qpcoherent import defexp
from qpcoherent.defexp import SeriesEvaluation
from qpcoherent.errors import QpcError
from qpcoherent.qnumbers import _build

from oracles import ref_exp1, ref_exp2

QUON = DeformationParams(0.5, 1.0)
CLASSICAL = DeformationParams(1.0, 1.0)
TIGHT = SeriesControl(n_max=800, tol=1e-14, min_terms=10)

# mpmath, 60 digits, 200-term partial sums
EXP1_QUON_AT_1 = 3.4627466194550636
EXP2_PHASE077_AT_HALF = 1.6698143445547687


def test_radius_values():
    assert convergence_radius(QUON) == pytest.approx(2.0, abs=1e-15)
    assert convergence_radius(CLASSICAL) == math.inf
    params = DeformationParams(cmath.exp(1j * math.pi / 3), 1.0)
    assert convergence_radius(params) == pytest.approx(1.0, rel=1e-12)


def test_radius_on_degenerate_set():
    # [n] = n q**(n-1) on q p = 1: both series diverge for every x != 0
    # when |q| < 1, and are entire when |q| >= 1
    assert convergence_radius(DeformationParams(0.5, 2.0)) == 0.0
    assert convergence_radius(DeformationParams(2.0, 0.5)) == math.inf
    assert convergence_radius(DeformationParams(1j, -1j)) == math.inf


def test_radius_on_degenerate_unit_circle_ignores_rounding():
    # |exp(0.6439 i)| rounds to 1 - 1 ulp; the pair is still entire
    q = cmath.exp(0.6439j)
    params = DeformationParams(q, 1.0 / q)
    assert abs(q) < 1.0 and params.is_degenerate
    assert convergence_radius(params) == math.inf
    # [n] = n q**(n-1), so |[n]|! = n! and exp2 is exp
    ev = exp2(3.0, params)
    assert ev.verdict is Verdict.CONVERGED
    assert ev.value == pytest.approx(math.exp(3.0), rel=1e-13)
    # a pair just off the degenerate set, with 1/|p| = 1: R = 2e12, not 0
    assert convergence_radius(DeformationParams(1 - 5e-13, 1.0)) == math.inf


def test_zero_radius_series():
    params = DeformationParams(0.5, 2.0)
    for which in (exp1, exp2):
        assert which(0.1, params).verdict is Verdict.DIVERGENT_INPUT
        ev = which(0.0, params)
        assert ev.verdict is Verdict.CONVERGED and ev.value == 1.0


def test_series_control_validation():
    with pytest.raises(InvalidParameterError):
        SeriesControl(n_max=5, tol=1e-10, min_terms=9)
    with pytest.raises(InvalidParameterError):
        SeriesControl(tol=0.0)


def test_exp1_classical_matches_exp():
    # the stopping rule budgets the tail relative to the partial sum, so the
    # achievable absolute error scales with max(1, e**x)
    ctrl = SeriesControl(n_max=500, tol=1e-12, min_terms=10)
    for x in np.linspace(-10.0, 10.0, 41):
        ev = exp1(x, CLASSICAL, ctrl)
        assert ev.verdict is Verdict.CONVERGED
        assert abs(ev.value - math.exp(x)) <= 1e-10 * max(1.0, math.exp(x))
        if x >= 0:
            assert abs(ev.value - math.exp(x)) <= 1e-10 * math.exp(x)


def test_exp1_quon_against_oracle():
    ev = exp1(1.0, QUON, TIGHT)
    assert ev.verdict is Verdict.CONVERGED
    assert ev.value.real == pytest.approx(EXP1_QUON_AT_1, abs=5e-13)
    assert complex(ref_exp1(1.0, 0.5, 1.0)) == pytest.approx(EXP1_QUON_AT_1, abs=1e-15)


def test_exp1_outside_disk_is_a_verdict():
    ev = exp1(3.0, QUON)
    assert ev.verdict is Verdict.DIVERGENT_INPUT
    assert math.isnan(ev.value.real)
    assert ev.terms_used == 0


def test_exp1_converged_tail_contract():
    ev = exp1(1.2, QUON, SeriesControl(n_max=500, tol=1e-10, min_terms=10))
    assert ev.verdict is Verdict.CONVERGED
    assert ev.tail_bound <= 1e-10 * max(abs(ev.value), 1.0)


def test_exp2_at_zero_is_exactly_one():
    assert exp2(0.0, QUON).value == 1.0 + 0.0j


def test_exp2_equals_exp1_for_positive_real_numbers():
    # quon deformed numbers are real positive, so the two series coincide
    e1 = exp1(1.0, QUON, TIGHT)
    e2 = exp2(1.0, QUON, TIGHT)
    assert e1.value == pytest.approx(e2.value, rel=1e-14)


def test_exp2_complex_phase_against_oracle():
    params = DeformationParams(cmath.exp(0.77j), 1.0)
    ev = exp2(0.5, params, TIGHT)
    assert ev.verdict is Verdict.CONVERGED
    assert ev.value.real == pytest.approx(EXP2_PHASE077_AT_HALF, abs=1e-12)
    ref = ref_exp2(0.5, cmath.exp(0.77j), 1.0, terms=300)
    assert ref.real == pytest.approx(EXP2_PHASE077_AT_HALF, abs=1e-15)


def test_root_of_unity_degeneracy_raises():
    # q = exp(i pi/4), p = 1 makes [8] vanish
    params = DeformationParams(cmath.exp(1j * math.pi / 4), 1.0)
    with pytest.raises(RootOfUnityDegeneracyError) as err:
        exp2(0.5, params, SeriesControl(n_max=50, tol=1e-12, min_terms=10))
    assert err.value.index == 8


def test_term_cap_truncates():
    ev = exp1(0.9, QUON, SeriesControl(n_max=5, min_terms=5))
    assert ev.verdict is Verdict.TRUNCATED and ev.terms_used == 5


def test_verdict_flips_across_radius():
    points = [
        DeformationParams(0.5, 1.0),
        DeformationParams(0.7 * cmath.exp(0.4j), cmath.exp(1.1j)),
        DeformationParams(cmath.exp(0.5j), 1.6),
        DeformationParams(0.9, cmath.exp(2.0j)),
    ]
    for params in points:
        R = convergence_radius(params)
        inside = exp1(0.9 * R, params)
        outside = exp1(1.1 * R, params)
        assert inside.verdict is Verdict.CONVERGED
        assert outside.verdict is Verdict.DIVERGENT_INPUT


def test_term_ratios_approach_radius_ratio():
    # the stopping analysis relies on |term_{n+1}/term_n| -> |x|/R
    for params in (QUON, DeformationParams(cmath.exp(0.8j), 1.7)):
        R = convergence_radius(params)
        x = 0.6 * R
        seq = qp_sequence(220, params)
        ratios = [abs(x) / abs(seq.numbers[n]) for n in range(200, 220)]
        np.testing.assert_allclose(ratios, abs(x) / R, rtol=1e-6)


@given(st.floats(0.05, 0.85), st.floats(0.0, 6.2))
def test_exp2_dominates_exp1(frac, phase):
    params = DeformationParams(0.5, cmath.exp(0.9j))
    R = convergence_radius(params)
    x = frac * R * cmath.exp(1j * phase)
    e1 = exp1(x, params, TIGHT)
    e2 = exp2(abs(x), params, TIGHT)
    assume(e1.verdict is Verdict.CONVERGED and e2.verdict is Verdict.CONVERGED)
    assert abs(e1.value) <= e2.value.real * (1 + 1e-12) + 1e-12


# ----------------------------------------------------------------------
# the block series kernel against the term-by-term loop it replaces


def series_loop(x, params, ctrl, use_abs):
    """The scalar ``_sum_series`` loop, reading [n] from a fresh build."""
    n_max = ctrl.n_max
    radius = convergence_radius(params)
    ax = abs(x)
    if ax >= radius and ax > 0:
        return SeriesEvaluation(complex(math.nan, math.nan), 0, math.inf,
                                Verdict.DIVERGENT_INPUT)
    r_geom = ax / radius if 0 < radius < math.inf else 0.0
    total = np.clongdouble(1.0)
    term = np.clongdouble(1.0)
    prev_abs = 1.0
    xl = np.clongdouble(x)
    values, flags = _build(params, max(n_max, 1))
    n = 0
    tail = math.inf
    for n, value, resonant in zip(range(1, n_max + 1), values.tolist(), flags.tolist()):
        if resonant:
            raise RootOfUnityDegeneracyError(n)
        term = term * (xl / np.clongdouble(abs(value) if use_abs else value))
        total = total + term
        if not math.isfinite(float(abs(total))):   # beyond double range
            return SeriesEvaluation(complex(math.nan, math.nan), n, math.inf,
                                    Verdict.DIVERGENT_INPUT)
        at = float(abs(term))
        if n >= ctrl.min_terms and at <= prev_abs:
            if r_geom > 0.0:
                r = r_geom
            else:
                r = at / prev_abs if prev_abs > 0 else 0.0
            if r < 1.0:
                tail = at * r / (1.0 - r)
                budget = ctrl.tol * max(float(abs(total)), 1.0)
                if at <= budget and tail <= budget:
                    return SeriesEvaluation(complex(total), n, tail, Verdict.CONVERGED)
        prev_abs = at
    return SeriesEvaluation(complex(total), n, tail, Verdict.TRUNCATED)


def series_outcome(fn, *args):
    try:
        ev = fn(*args)
    except QpcError as exc:
        return type(exc).__name__, str(exc)
    return (struct.pack("<dd", ev.value.real, ev.value.imag), ev.terms_used,
            struct.pack("<d", ev.tail_bound), ev.verdict)


def series_cases(count, seed=20261019):
    rng = random.Random(seed)
    root7 = cmath.exp(2j * math.pi / 7)
    fixed = [(1.0, 1.0), (root7, 1.0), (1.0, 1.0 / root7), (0.5, 2.0), (2.0, 0.5),
             (1j, -1j), (0.5, 1.0), (0.99, 1.0), (cmath.exp(0.8j), 1.7)]
    for i in range(count):
        if i < 4 * len(fixed):
            q, p = fixed[i % len(fixed)]
        else:
            kind = rng.randrange(5)
            q = rng.uniform(0.2, 2.5) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            if kind == 0:      # degenerate set: R = inf or 0
                p = 1.0 / q
            elif kind == 1:    # regime I
                q, p = 0.95 * q / abs(q) * rng.random(), cmath.exp(1j * rng.uniform(-3, 3))
            elif kind == 2:    # regime II
                q, p = q / abs(q), rng.uniform(1.05, 2.5) * cmath.exp(1j * rng.uniform(-3, 3))
            else:
                p = rng.uniform(0.4, 3.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                if kind == 4:  # q p = e^{2 pi i/7}: [7] vanishes
                    q = root7 / p
        params = DeformationParams(q, p)
        R = convergence_radius(params)
        span = R if math.isfinite(R) else rng.uniform(0.5, 8.0)
        where = rng.random()
        if where < 0.05:
            scale = 1.0                     # on the disk
        elif where < 0.12:
            scale = rng.uniform(1.0, 1.5)   # beyond it
        else:
            scale = rng.uniform(0.0, 0.999)
        phase = rng.choice((0.0, math.pi, rng.uniform(-math.pi, math.pi)))
        x = complex(scale * span) if phase == 0.0 else scale * span * cmath.exp(1j * phase)
        n_max = rng.choice((12, rng.randint(12, 200), rng.randint(12, 2000)))
        tol = 10 ** rng.uniform(-15, -4) if rng.random() < 0.97 else rng.choice(
            (1.0, 3.0, math.inf))
        ctrl = SeriesControl(n_max=n_max, tol=tol, min_terms=rng.randint(1, 10))
        yield x, params, ctrl, rng.random() < 0.5


def test_series_kernel_matches_the_scalar_loop_bit_for_bit():
    seen = set()
    for x, params, ctrl, use_abs in series_cases(2400):
        args = (complex(x), params, ctrl, use_abs)
        with np.errstate(all="ignore"):
            want = series_outcome(series_loop, *args)
        got = series_outcome(defexp._sum_series, *args)
        assert got == want, args
        seen.add(want[-1] if len(want) == 4 else want[0])
    assert seen == {*Verdict, "RootOfUnityDegeneracyError"}, seen


def test_no_converged_sum_is_non_finite():
    # the four quadrants |q| <> 1, |p| <> 1; at (0.5, 1.5), where |[n]|
    # decays like (2/3)**n inside R = 6, the partial sums leave double range
    rng = random.Random(7)
    seen = set()
    for q_big, p_big in itertools.product((False, True), repeat=2):
        for _ in range(40):
            q = rng.uniform(1.05, 2.5) if q_big else rng.uniform(0.1, 0.95)
            p = rng.uniform(1.05, 2.5) if p_big else rng.uniform(0.1, 0.95)
            params = DeformationParams(cmath.rect(q, rng.uniform(-3, 3)),
                                       cmath.rect(p, rng.uniform(-3, 3)))
            R = convergence_radius(params)
            x = cmath.rect(rng.uniform(0.0, 0.999) * min(R, 50.0),
                           rng.uniform(-3, 3))
            for series in (exp1, exp2):
                try:
                    ev = series(x, params)
                except RootOfUnityDegeneracyError:
                    continue
                seen.add(ev.verdict)
                if ev.verdict is Verdict.CONVERGED:
                    assert cmath.isfinite(ev.value), (params, x)
    assert Verdict.CONVERGED in seen and Verdict.DIVERGENT_INPUT in seen
    for x in (0.5, 2.0, 5.0):
        for series in (exp1, exp2):
            ev = series(x, DeformationParams(0.5, 1.5))
            assert ev.verdict is Verdict.DIVERGENT_INPUT
            assert cmath.isnan(ev.value) and ev.tail_bound == math.inf
