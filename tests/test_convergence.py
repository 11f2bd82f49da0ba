import cmath
import io
import math
import random

import numpy as np
import pytest

from qpcoherent import (
    DeformationParams,
    InvalidParameterError,
    Prop1Row,
    RatioVerdict,
    Regime,
    RegimeVerdict,
    boundary_margin,
    classify_regime,
    convergence_radius,
    default_parameter_grid,
    proposition1_check,
    proposition2_check,
    regime_report_to_csv,
    regime_report_to_json,
)
from qpcoherent import convergence
from qpcoherent.convergence import _BLOCK, _ratio_kernel, _worst
from qpcoherent.qnumbers import RESONANCE_RTOL, log_abs_numbers


def test_classify_examples():
    assert classify_regime(DeformationParams(0.5, cmath.exp(1j * math.pi / 3))) \
        is Regime.REGIME_I
    assert classify_regime(DeformationParams(cmath.exp(1j * math.pi / 5), 2.0)) \
        is Regime.REGIME_II
    assert classify_regime(DeformationParams(2.0, 1.0)) is Regime.OUTSIDE
    assert classify_regime(DeformationParams(1.0, 1.0)) is Regime.DEGENERATE


def test_classify_tolerance_band():
    assert classify_regime(DeformationParams(0.5, 1.0 + 1e-10)) is Regime.REGIME_I
    assert classify_regime(DeformationParams(0.5, 1.0 + 1e-6)) is Regime.OUTSIDE


def _one_row_test(logs, window=50):
    (result,) = _ratio_kernel(np.array([logs]), window)
    return result


def test_ratio_test_factorial_decay():
    verdict, estimate = _one_row_test(
        [math.log(1.0 / math.factorial(n)) for n in range(130)])
    assert verdict is RatioVerdict.CONVERGENT
    assert estimate < 0.02


def test_ratio_test_geometric_growth():
    verdict, estimate = _one_row_test([math.log(2.0 ** n) for n in range(120)])
    assert verdict is RatioVerdict.DIVERGENT
    assert estimate == pytest.approx(2.0, rel=1e-10)


def test_ratio_test_marginal_is_inconclusive():
    verdict, _ = _one_row_test([math.log(1.0 + 0.001 * math.sin(0.9 * n))
                                for n in range(130)])
    assert verdict is RatioVerdict.INCONCLUSIVE


def test_prop1_divergent_examples():
    rows = proposition1_check(2.0, (1.0,))
    assert rows[0].verdict is RatioVerdict.DIVERGENT
    assert rows[0].consistent
    rows = proposition1_check(1.01, (0.5,))
    assert rows[0].verdict is RatioVerdict.DIVERGENT


def test_prop1_unit_circle_convergent():
    rows = proposition1_check(cmath.exp(0.81j), (1.0,))
    assert rows[0].verdict is RatioVerdict.CONVERGENT
    assert rows[0].consistent


def test_prop1_low_order_circle_point_terminates():
    # exp(i pi/7) squares to a 7th root of unity, so [7] = 0 and the series
    # terminates; that is reported as skipped, never as a misleading verdict
    rows = proposition1_check(cmath.exp(1j * math.pi / 7), (1.0,))
    assert rows[0].skipped == "root-of-unity degeneracy"
    assert rows[0].consistent


def test_prop1_symmetric_quon_wbar_terms_diverge():
    # |[n]| grows like |Q|**n for real Q > 1, beating the n! in the terms
    rows = proposition1_check(1.5, (1.0,))
    assert rows[0].verdict is RatioVerdict.DIVERGENT


def test_prop1_root_of_unity_skipped():
    rows = proposition1_check(cmath.exp(2j * math.pi / 8), (1.0,))
    assert rows[0].skipped == "root-of-unity degeneracy"
    assert rows[0].verdict is None


def test_prop1_rejects_trivial_arguments():
    with pytest.raises(InvalidParameterError):
        proposition1_check(1.0, (1.0,))


def test_prop2_regime_examples():
    rows = proposition2_check([DeformationParams(0.5, 1.0)])
    assert rows[0].regime is Regime.REGIME_I
    assert rows[0].v_exp is RatioVerdict.CONVERGENT
    assert rows[0].v_wbar is RatioVerdict.CONVERGENT
    assert not rows[0].contradiction

    rows = proposition2_check([DeformationParams(1.5, 1.5)])
    assert rows[0].regime is Regime.OUTSIDE
    assert rows[0].v_wbar is RatioVerdict.DIVERGENT
    assert not rows[0].contradiction


def test_prop2_degenerate_row_noted():
    rows = proposition2_check([DeformationParams(1.0, 1.0)])
    assert rows[0].regime is Regime.DEGENERATE
    assert "degenerate" in rows[0].note


def test_prop2_root_of_unity_skipped():
    rows = proposition2_check([DeformationParams(1j, 1j)])
    assert rows[0].v_wbar is None
    assert "root-of-unity" in rows[0].note


def test_prop2_empty_grid_rejected():
    with pytest.raises(InvalidParameterError):
        proposition2_check([])


def test_prop2_zero_y_rejected():
    with pytest.raises(InvalidParameterError, match="y must be nonzero"):
        proposition2_check([DeformationParams(0.5, 1.0)], (0.0,))


def test_default_grid_shape_and_margins():
    grid = default_parameter_grid()
    assert len(grid) == 100
    for params in grid:
        assert not params.is_degenerate
        assert abs(params.denom) > 0.04
        regime = classify_regime(params)
        if regime is Regime.OUTSIDE:
            # outside points keep a decisive growth margin
            assert boundary_margin(params) >= 0.049
        elif regime is Regime.REGIME_I:
            assert abs(params.q) <= 0.96
        else:
            assert regime is Regime.REGIME_II and abs(params.p) >= 1.14


def test_full_sweep_contradiction_free():
    rows = proposition2_check(default_parameter_grid())
    assert all(not r.contradiction for r in rows)
    # points sit away from the marginal-growth boundary, so no fence-sitting
    for r in rows:
        for v in (r.v_exp, r.v_wbar):
            assert v is not RatioVerdict.INCONCLUSIVE


def test_no_false_convergence_outside():
    # necessity direction: |q| > 1.1 with |p| = 1 must always diverge in Wbar;
    # 100 deterministic points standing in for a random sample
    grid = []
    for k in range(100):
        q = (1.101 + 0.4 * ((k * 37) % 100) / 100.0) * cmath.exp(1j * (0.11 + 0.0613 * k))
        p = cmath.exp(1j * (0.07 + 0.0591 * k))
        grid.append(DeformationParams(q, p))
    rows = proposition2_check(grid)
    assert all(r.v_wbar is RatioVerdict.DIVERGENT for r in rows)


def test_verdicts_deterministic():
    grid = default_parameter_grid()[:10]
    a = proposition2_check(grid)
    b = proposition2_check(grid)
    assert [(r.regime, r.v_exp, r.v_wbar, r.estimates) for r in a] == \
           [(r.regime, r.v_exp, r.v_wbar, r.estimates) for r in b]


def test_csv_report_format():
    rows = proposition2_check([DeformationParams(0.5, 1.0),
                               DeformationParams(2.0, 1.0)])
    buf = io.StringIO()
    regime_report_to_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "q_re,q_im,p_re,p_im,regime,v_exp1,v_exp2,v_wbar,ratio_estimates"
    assert "RegimeI" in lines[1] and "Outside" in lines[2]


def test_json_report_roundtrip():
    import json
    rows = proposition2_check([DeformationParams(0.5, 1.0)])
    buf = io.StringIO()
    regime_report_to_json(rows, buf)
    payload = json.loads(buf.getvalue())
    assert payload[0]["regime"] == "RegimeI"
    assert payload[0]["contradiction"] is False


# ----------------------------------------------------------------------
# scalar reference for the proposition checks: the factored [n] = l**(n-1) S_n
# with running powers and sums and the built-in abs, one log sequence and one
# scalar ratio test per series


def _ref_factors(params):
    qp = params.q * params.p
    return (1.0 / params.p, qp) if abs(qp) <= 1.0 else (params.q, 1.0 / qp)


def _ref_sums(params, count):
    """S_n = sum_{k<n} r**k for n = 1..count, as running powers and sums."""
    r = _ref_factors(params)[1]
    rk, s = 1.0 + 0.0j, 0j
    for _ in range(count):
        s += rk
        rk *= r
        yield s


def _ref_log_abs_numbers(params, count):
    # log|[n]| = (n - 1) log|l| + log|S_n|, -inf where S_n is flagged
    la_ell = np.log(abs(_ref_factors(params)[0]))
    return np.array([
        (n - 1) * la_ell + (np.log(abs(s)) if abs(s) > RESONANCE_RTOL * n
                            else -np.inf)
        for n, s in enumerate(_ref_sums(params, count), start=1)])


def _ref_resonant(params, count):
    return any(abs(s) <= RESONANCE_RTOL * n
               for n, s in enumerate(_ref_sums(params, count), start=1))


def _ref_ratio_test(logs, window):
    """(verdict, estimate) of one 1-D sequence: the median and std of its
    last ``window`` log-ratios, decided by a 3-sigma band."""
    tail = np.diff(logs)[-window:]
    med, sig = float(np.median(tail)), float(np.std(tail))
    if med < -3.0 * sig:
        return RatioVerdict.CONVERGENT, math.exp(med)
    if med > 3.0 * sig:
        return RatioVerdict.DIVERGENT, math.exp(med)
    return RatioVerdict.INCONCLUSIVE, math.exp(med)


def _ref_wbar_test(params, y, count, window):
    n = np.arange(1, count + 1, dtype=float)
    cum = np.cumsum(_ref_log_abs_numbers(params, count))
    lgam = np.array([math.lgamma(k + 1) for k in range(1, count + 1)])
    logs = cum + n * math.log(abs(y)) - lgam - math.log(math.pi)
    return _ref_ratio_test(np.concatenate([[-math.log(math.pi)], logs]), window)


def _ref_exp_test(params, x, count, window):
    n = np.arange(1, count + 1, dtype=float)
    cum = np.cumsum(_ref_log_abs_numbers(params, count))
    logs = n * math.log(abs(x)) - cum
    return _ref_ratio_test(np.concatenate([[0.0], logs]), window)


def _ref_prop2(grid, ys, n_terms=300, window=50):
    rows = []
    for params in grid:
        regime = classify_regime(params)
        margin = boundary_margin(params)
        if _ref_resonant(params, n_terms):
            rows.append(RegimeVerdict(
                params=params, regime=regime, v_exp=None, v_wbar=None,
                estimates=(math.nan,) * 2, boundary_margin=margin,
                contradiction=False, note="root-of-unity degeneracy; skipped"))
            continue
        radius = convergence_radius(params)
        v_exp, exp_estimate = _ref_exp_test(
            params, 0.5 * radius if 0 < radius < math.inf else 2.5, n_terms,
            window)
        wbar = [_ref_wbar_test(params, y, n_terms, window) for y in ys]
        v_wbar = _worst([verdict for verdict, _ in wbar])
        divergent = RatioVerdict.DIVERGENT in (v_exp, v_wbar)
        contradiction, note = divergent, ""
        if regime is Regime.OUTSIDE:
            contradiction = not divergent
        elif regime is Regime.DEGENERATE:
            contradiction = False
            note = "degenerate branch; not covered by the regime dichotomy"
        rows.append(RegimeVerdict(
            params=params, regime=regime, v_exp=v_exp, v_wbar=v_wbar,
            estimates=(exp_estimate, max(e for _, e in wbar)),
            boundary_margin=margin, contradiction=contradiction, note=note))
    return rows


def _seeded_grid(seed, size=40):
    rng = random.Random(seed)
    grid = [DeformationParams(0.5j, -2j),                 # degenerate, R = 0
            DeformationParams(1.25 * cmath.exp(0.3j), 0.8 * cmath.exp(-0.3j)),
            DeformationParams(1.0, 1.0),
            DeformationParams(1j, 1j),                    # (qp)**2 = 1 exactly
            DeformationParams(cmath.exp(1j * math.pi / 3), 1.0),
            DeformationParams(0.5 * cmath.exp(0.3j),
                              2.0 * cmath.exp(1j * (2 * math.pi / 5 - 0.3)))]
    while len(grid) < size:
        q = cmath.rect(rng.uniform(0.2, 2.0), rng.uniform(-math.pi, math.pi))
        p_mod = rng.choice((1.0, rng.uniform(0.3, 2.5)))
        p = cmath.rect(p_mod, rng.uniform(-math.pi, math.pi))
        if rng.random() < 0.3:
            q = cmath.rect(1.0, rng.uniform(-math.pi, math.pi))
        grid.append(DeformationParams(q, p))
    return grid


def test_prop2_matches_scalar_reference_on_default_grid():
    grid = default_parameter_grid()
    got = proposition2_check(grid)
    assert repr(got) == repr(_ref_prop2(grid, (0.5, 1.0, 2.0)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_prop2_matches_scalar_reference_on_seeded_grid(seed):
    grid = _seeded_grid(seed)
    ys = (0.25, 1.5, 3.0)
    got = proposition2_check(grid, ys)
    assert repr(got) == repr(_ref_prop2(grid, ys))
    assert any(r.regime is Regime.DEGENERATE for r in got)
    assert any("root-of-unity" in r.note for r in got)
    assert any(abs(r.params.q * r.params.p) > 1 and r.v_wbar is not None
               for r in got)


def _interleaved_grid(size=2 * _BLOCK + 5):
    # skipped (resonant) and degenerate points between ordinary ones, so
    # blocks hold mixes of rows with and without ratio tests
    special = [DeformationParams(1j, 1j),
               DeformationParams(cmath.exp(2j * math.pi / 3), 1.0),
               DeformationParams(1.0, 1.0), DeformationParams(0.5, 2.0)]
    rng = random.Random(28)
    grid = []
    for i in range(size):
        if i % 3 == 1:
            grid.append(special[i // 3 % len(special)])
        else:
            grid.append(DeformationParams(
                cmath.rect(rng.uniform(0.2, 2.0), rng.uniform(-math.pi, math.pi)),
                cmath.rect(rng.choice((1.0, rng.uniform(0.3, 2.5))),
                           rng.uniform(-math.pi, math.pi))))
    return grid


@pytest.mark.parametrize("ys", [(0.5, 1.0, 2.0), (0.25, 0.5, 1.5, 3.0)])
def test_prop2_blocks_match_scalar_reference(ys):
    grid = _interleaved_grid()
    assert len(grid) % _BLOCK != 0
    got = proposition2_check(grid, ys)
    assert repr(got) == repr(_ref_prop2(grid, ys))
    notes = [row.note for row in got]
    assert notes.count("root-of-unity degeneracy; skipped") >= 6
    assert sum(row.regime is Regime.DEGENERATE and row.v_exp is not None
               for row in got) >= 6


def test_prop2_builds_numbers_once_per_block(monkeypatch):
    sizes = []

    def counted(grid, count):
        sizes.append(len(grid))
        return log_abs_numbers(grid, count)

    monkeypatch.setattr(convergence, "log_abs_numbers", counted)
    proposition2_check(_seeded_grid(4, size=60))
    assert len(sizes) <= math.ceil(60 / _BLOCK)
    assert sum(sizes) == 60 and max(sizes) <= _BLOCK


@pytest.mark.parametrize("Q", [0.7 * cmath.exp(0.4j), 1.6 * cmath.exp(2.0j),
                               cmath.exp(0.81j), cmath.exp(1j * math.pi / 7),
                               cmath.exp(2.9j)])
def test_prop1_matches_scalar_reference(Q):
    ys = (0.5, 1.0, 3.0)
    params = DeformationParams(Q, Q)
    expected = (RatioVerdict.CONVERGENT if abs(abs(Q) - 1.0) <= 1e-9
                else RatioVerdict.DIVERGENT)
    if _ref_resonant(params, 400):
        want = [Prop1Row(Q=Q, y=y, verdict=None, estimate=math.nan,
                         expected=expected, consistent=True,
                         skipped="root-of-unity degeneracy") for y in ys]
    else:
        want = []
        for y in ys:
            verdict, estimate = _ref_wbar_test(params, y, 400, 100)
            want.append(Prop1Row(Q=Q, y=y, verdict=verdict,
                                 estimate=estimate, expected=expected,
                                 consistent=verdict is expected))
    assert repr(proposition1_check(Q, ys)) == repr(want)


def test_batched_ratio_tests_match_one_row_tests():
    # rows drifting down, up, flat and barely down: all three verdicts occur
    rng = np.random.default_rng(7)
    rows = np.cumsum(rng.normal([[-0.5], [0.5], [0.0], [-0.01]], 0.1,
                                size=(4, 160)), axis=1)
    got = _ratio_kernel(rows, 50)
    assert repr(got) == repr([_ref_ratio_test(row, 50) for row in rows])
    assert {verdict for verdict, _ in got} == set(RatioVerdict)


# ----------------------------------------------------------------------
# the one resonance rule: RESONANCE_RTOL, read from log_abs_numbers


def _relative_gap(params, count):
    return min(abs(s) / n for n, s in enumerate(_ref_sums(params, count), start=1))


def test_near_resonant_pair_is_tested():
    # |S_5k| / 5k is 8.5e-11, above the 1e-12 rule, so no n is flagged; the
    # spikes of |[5k]| near 0 leave the median ratio inside its 3-sigma band
    params = DeformationParams(cmath.exp(1j * (2 * math.pi / 5 + 1e-10)), 1.0)
    assert 1e-12 < _relative_gap(params, 300) <= 1e-8
    row, = proposition2_check([params])
    assert row.regime is Regime.REGIME_I and row.note == ""
    assert (row.v_exp, row.v_wbar) == (RatioVerdict.INCONCLUSIVE,) * 2
    assert not row.contradiction
    Q = cmath.exp(1j * (math.pi / 5 + 1e-10))
    assert 1e-12 < _relative_gap(DeformationParams(Q, Q), 400) <= 1e-8
    prop1 = proposition1_check(Q, (1.0,))[0]
    assert prop1.skipped is None
    assert prop1.verdict is RatioVerdict.INCONCLUSIVE and not prop1.consistent


def test_exact_root_is_still_skipped():
    assert _relative_gap(DeformationParams(1j, 1j), 300) == 0.0
    assert proposition2_check([DeformationParams(1j, 1j)])[0].note == \
        "root-of-unity degeneracy; skipped"
    assert proposition1_check(1j, (1.0,))[0].skipped == "root-of-unity degeneracy"
