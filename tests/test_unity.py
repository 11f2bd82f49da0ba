import cmath
import io
import json
import math

import mpmath as mp
import numpy as np
import pytest

from qpcoherent import (
    Basis,
    DeformationParams,
    IllConditionedError,
    InvalidParameterError,
    Method,
    MomentSet,
    QuadratureError,
    RootOfUnityDegeneracyError,
    SeriesDivergenceError,
    WeightFunction,
    identity_matrix_2d,
    moment_ratios,
    physical_weight,
    resolution_residual,
    target_moments,
    weight_from_fourier,
    weight_from_moments,
    weight_to_csv,
    weight_to_json,
)
from qpcoherent import unity

from oracles import gamma_moment, ref_exp2_certified, ref_wbar

QUON = DeformationParams(0.5, 1.0)
CLASSICAL = DeformationParams(1.0, 1.0)
COMPLEX_P = DeformationParams(0.5, cmath.exp(1j * math.pi / 4))

MU3_QUON = 0.83556345123245051                    # 2.625 / pi
WBAR_QUON_AT_1 = 0.13711655534564133 + 0.20211712671608846j
WBAR_CLASSICAL_HALF = 0.25464790894703254 + 0.12732395447351627j


# ----------------------------------------------------------------------
# target moments


def test_classical_moments_match_gamma_integrals():
    mom = target_moments(CLASSICAL, 12)
    assert mom.support == (0.0, math.inf)
    for n in (0, 1, 4, 9, 12):
        assert mom.moments[n] == pytest.approx(gamma_moment(n) / math.pi,
                                               rel=1e-10)


def test_zeroth_moment_is_one_over_pi():
    for params in (CLASSICAL, QUON, COMPLEX_P):
        assert target_moments(params, 4).moments[0] == pytest.approx(
            1.0 / math.pi, abs=1e-16)


def test_quon_third_moment():
    mom = target_moments(QUON, 6)
    assert mom.moments[3] == pytest.approx(MU3_QUON, abs=1e-15)
    assert mom.support == (0.0, 2.0)


def test_moments_reject_root_of_unity():
    with pytest.raises(RootOfUnityDegeneracyError):
        target_moments(DeformationParams(1j, 1j), 8)


def test_physical_grid_rejects_a_flagged_number():
    # q = p = exp(i pi/7): [7] is flagged, before the sum may stop at n = 10
    root = cmath.exp(1j * math.pi / 7)
    with pytest.raises(RootOfUnityDegeneracyError) as err:
        unity._exp2_values(np.array([0.1, 0.5]), DeformationParams(root, root))
    assert err.value.index == 7


# ----------------------------------------------------------------------
# Wbar series


def wbar(y, params):
    """Wbar at one ordinate and the index of the term where the sum stopped."""
    values, terms = unity._wbar_values(np.array([float(y)]), params)
    return complex(values[0]), terms


def test_wbar_at_zero():
    value, terms = wbar(0.0, QUON)
    assert value == pytest.approx(1.0 / math.pi, abs=1e-16)
    assert terms == 10   # every term past the first is 0: min_terms


def test_wbar_classical_geometric_closed_form():
    value, _ = wbar(0.5, CLASSICAL)
    assert value == pytest.approx(WBAR_CLASSICAL_HALF, abs=1e-12)


def test_wbar_quon_against_oracle():
    value, _ = wbar(1.0, QUON)
    assert value == pytest.approx(WBAR_QUON_AT_1, abs=1e-11)
    assert complex(ref_wbar(1.0, 0.5, 1.0)) == pytest.approx(WBAR_QUON_AT_1,
                                                             abs=1e-15)


def test_wbar_divergence_is_data():
    # |[n]| grows like 2**n: the terms outgrow n!, and the kernel raises
    with pytest.raises(SeriesDivergenceError, match="diverges"):
        wbar(1.0, DeformationParams(2.0, 2.0))


# ----------------------------------------------------------------------
# moment reconstruction


def test_classical_reconstruction_recovers_exponential_weight():
    mom = target_moments(CLASSICAL, 24)
    w = weight_from_moments(mom, 12)
    assert w.basis is Basis.GENERALIZED_LAGUERRE
    assert w.method is Method.MOMENT_RECONSTRUCTION
    assert w.coeffs[0] == pytest.approx(1.0 / math.pi, abs=1e-15)
    assert np.max(np.abs(w.coeffs[1:])) <= 1e-12
    xs = np.linspace(0.0, 20.0, 201)
    np.testing.assert_allclose(w.evaluate(xs), np.exp(-xs) / math.pi, atol=1e-6)


def test_uniform_density_inverse_check():
    R = 2.0
    mu = np.array([R ** n / (math.pi * (n + 1)) for n in range(25)])
    ms = MomentSet(params=QUON, n_max=24, moments=mu, support=(0.0, R))
    w = weight_from_moments(ms, 8)
    assert w.basis is Basis.SHIFTED_LEGENDRE
    assert w.coeffs[0] == pytest.approx(1.0 / (math.pi * R), abs=1e-12)
    assert np.max(np.abs(w.coeffs[1:])) <= 1e-10


def test_quon_moment_residuals():
    w = weight_from_moments(target_moments(QUON, 24), 12)
    assert np.max(w.diagnostics["moment_residuals"]) <= 1e-6
    assert w.diagnostics["condition_estimate"] < 1e12
    # min_value is a diagnostic, not a constraint; here it is genuinely negative
    assert w.min_value < 0


def test_degree_must_not_exceed_available_moments():
    with pytest.raises(InvalidParameterError):
        weight_from_moments(target_moments(QUON, 8), 12)


def test_ill_conditioning_raises():
    with pytest.raises(IllConditionedError):
        weight_from_moments(target_moments(QUON, 24), 16)


# ----------------------------------------------------------------------
# Fourier inversion


def test_classical_fourier_recovers_exponential_weight():
    xg = np.linspace(0.25, 5.0, 96)
    w = weight_from_fourier(CLASSICAL, y_cut=300.0, damping=1e-3, x_grid=xg)
    assert w.method is Method.FOURIER_INVERSION
    np.testing.assert_allclose(w.grid_w, np.exp(-xg) / math.pi, atol=1e-3)
    assert w.diagnostics["imag_max"] <= 1e-12
    assert w.diagnostics["window_decay"] <= 1e-6


def test_fourier_vanishes_left_of_support():
    xg = np.linspace(-3.0, -0.3, 28)
    w = weight_from_fourier(CLASSICAL, y_cut=300.0, damping=1e-3, x_grid=xg)
    assert np.max(np.abs(w.grid_w)) <= 1e-3


def test_fourier_warns_on_non_decaying_window():
    xg = np.linspace(0.0, 2.0, 16, endpoint=False)
    # reported as a diagnostic, not as a warning (any warning fails a test)
    w = weight_from_fourier(QUON, y_cut=8.0, damping=1e-4, x_grid=xg)
    assert w.diagnostics["window_decay"] > 1e-6


def test_fourier_cancellation_wall_reported():
    # far beyond the evaluable window the series has no correct digits left
    xg = np.linspace(0.0, 2.0, 16, endpoint=False)
    with pytest.raises(SeriesDivergenceError):
        weight_from_fourier(QUON, y_cut=200.0, damping=1e-4, x_grid=xg)


def test_fourier_validates_regularization():
    xg = np.linspace(0.0, 2.0, 5, endpoint=False)
    for y_cut, damping in ((-1.0, 1e-3), (10.0, 0.0), (math.inf, 1e-3),
                           (math.nan, 1e-3), (10.0, math.inf), (10.0, math.nan)):
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            weight_from_fourier(QUON, y_cut, damping, xg)


def test_fourier_evaluate_matches_grid():
    xg = np.linspace(0.1, 1.8, 18)
    w = weight_from_fourier(QUON, y_cut=12.0, damping=8e-3, x_grid=xg)
    np.testing.assert_allclose(w.evaluate(xg), w.grid_w, atol=1e-13)


def test_fourier_damping_refinement_ladder():
    xg = np.linspace(0.3, 4.0, 48)
    weights = [weight_from_fourier(CLASSICAL, 300.0, eps, xg)
               for eps in (4e-3, 2e-3, 1e-3)]
    changes = [float(np.max(np.abs(b.grid_w - a.grid_w)))
               for a, b in zip(weights, weights[1:])]
    # a smooth target stabilizes under damping refinement
    assert changes[1] < 1e-3
    np.testing.assert_allclose(weights[-1].grid_w, np.exp(-xg) / math.pi,
                               atol=1e-3)


# ----------------------------------------------------------------------
# physical weight and the unity audit


def test_classical_physical_weight_is_flat():
    w = weight_from_moments(target_moments(CLASSICAL, 24), 12)
    phys = physical_weight(w, CLASSICAL)
    np.testing.assert_allclose(phys.grid_w, 1.0 / math.pi, atol=1e-6)
    assert phys.coeffs is None


def test_physical_weight_at_origin_unchanged():
    w = weight_from_moments(target_moments(QUON, 24), 12)
    phys = physical_weight(w, QUON)
    assert phys.grid_w[0] == pytest.approx(w.grid_w[0], rel=1e-12)
    assert np.all(np.isfinite(phys.grid_w))


def _exp2_reference(x, params):
    """sum x**n/|[n]|! in mpmath, by a route apart from the library's."""
    if params == CLASSICAL:
        return mp.exp(x)
    if params == QUON:
        # Euler product 1/((1 - q) x; q)_inf, the q-exponential of the quon
        return 1 / mp.qp((1 - mp.mpf(0.5)) * mp.mpf(x), mp.mpf(0.5))
    return ref_exp2_certified(x, params.q, params.p)


@pytest.mark.parametrize("params", [QUON, DeformationParams(1j, 1.5), CLASSICAL],
                         ids=["quon", "unit_q", "classical"])
def test_physical_weight_against_independent_reference(params):
    terms = {}
    for grid in (257, 1025, 4001):
        w = weight_from_moments(target_moments(params, 24), 12,
                                grid_points=grid)
        phys = physical_weight(w, params)
        # 12 evenly spaced points, always with the one nearest the edge
        for i in np.unique(np.linspace(0, grid - 1, 12).astype(int)):
            ref = float(_exp2_reference(float(w.grid_x[i]), params))
            assert phys.grid_w[i] / w.grid_w[i] == pytest.approx(ref, rel=1e-12)
        assert phys.diagnostics["exp2_tail_bound"] <= 1e-12
        terms[grid] = phys.diagnostics["exp2_terms"]
    # the certified remainder needs O(log G) explicit terms, not O(G)
    assert terms[4001] - terms[257] <= 20
    assert terms[4001] < 200


def test_physical_weight_without_remainder_bound_reports_it():
    # |qp| = 1: no geometric remainder bound exists, so none is claimed
    params = DeformationParams(0.6 + 0.8j, 1.0)
    w = weight_from_moments(target_moments(params, 24), 12, grid_points=65)
    phys = physical_weight(w, params)
    assert phys.diagnostics["exp2_tail_bound"] == math.inf
    assert np.all(np.isfinite(phys.grid_w))


# sum x**n/|[n]|! on linspace(0, R, 513, endpoint=False) at indices 256 and
# 512, as the two-small-terms stop gives them (it is kept where |w| is this
# close to 1, so these values are unchanged)
NEAR_UNIT_W = [
    (DeformationParams((1 - 1e-6) * cmath.exp(2j), 1.0),
     1.5988507866670407, 11816.724623510529),
    (DeformationParams(0.6 + 0.8j, 1.000001),
     1.8052187430706848, 68.0426392473267),
]


@pytest.mark.parametrize("params,mid,edge", NEAR_UNIT_W,
                         ids=["regime_i", "regime_ii"])
def test_physical_weight_with_w_near_unit_circle(params, mid, edge):
    # |w| = 1 - 1e-6: the remainder bracket would need ln(G/tol)/(1 - |w|),
    # about 3e7 terms, to close, so the two-small-terms stop is used
    w = weight_from_moments(target_moments(params, 24), 12, grid_points=513)
    phys = physical_weight(w, params)
    assert np.all(np.isfinite(phys.grid_w))
    assert phys.diagnostics["exp2_tail_bound"] == math.inf
    assert phys.diagnostics["exp2_terms"] < 15_000
    ratio = phys.grid_w / w.grid_w
    assert ratio[256] == pytest.approx(mid, rel=1e-14)
    assert ratio[512] == pytest.approx(edge, rel=1e-14)


def test_physical_weight_growing_numbers_stop_early():
    # |[k]| = R |q|**k |1 - (qp)**-k| grows like 1.02**k: the lower bound
    # keeps that factor, so the bracket closes as soon as the terms are spent
    params = DeformationParams(1.02, 1.0)
    w = weight_from_moments(target_moments(params, 24), 12, grid_points=65)
    phys = physical_weight(w, params)
    assert phys.diagnostics["exp2_tail_bound"] <= 1e-12
    assert phys.diagnostics["exp2_terms"] < 100
    # [k] = (q**k - 1)/(q - 1) increases, so once x/[n+1] <= 1/2 the
    # remainder after the term t_n is at most 2 t_n
    q, x = mp.mpf(params.q.real), mp.mpf(float(w.grid_x[-1]))
    term = ref = mp.mpf(1)
    n = 0
    while not (term <= mp.mpf("1e-30") * ref and x <= (q ** (n + 1) - 1) / (q - 1) / 2):
        n += 1
        term *= x * (q - 1) / (q ** n - 1)
        ref += term
    assert phys.grid_w[-1] / w.grid_w[-1] == pytest.approx(float(ref), rel=1e-12)


def test_physical_weight_divergent_series_raises():
    # |p| > 1 with |qp| < 1: |[n]| -> 0, so the terms grow for every x > 0
    params = DeformationParams(0.3, 2.0)
    w = weight_from_moments(target_moments(params, 24), 12, grid_points=33)
    with pytest.raises(SeriesDivergenceError, match="diverges"):
        physical_weight(w, params)


def test_zero_radius_has_no_weight():
    params = DeformationParams(0.5, 2.0)
    with pytest.raises(SeriesDivergenceError, match="radius is 0"):
        weight_from_moments(target_moments(params, 24), 12)
    with pytest.raises(SeriesDivergenceError, match="radius is 0"):
        weight_from_fourier(params, 12.0, 1e-2, np.linspace(0.0, 1.0, 5))


def test_resolution_residual_classical():
    w = weight_from_moments(target_moments(CLASSICAL, 24), 12)
    assert resolution_residual(w, CLASSICAL, 10) <= 1e-8


def test_resolution_residual_quon_self_consistency():
    w = weight_from_moments(target_moments(QUON, 24), 12)
    assert resolution_residual(w, QUON, 12) <= 1e-6


def test_resolution_detects_wrong_weight():
    # a flat density has completely different moments than the classical target
    xs = np.linspace(0.0, 20.0, 512)
    flat = WeightFunction(support=(0.0, math.inf), basis=None, coeffs=None,
                          grid_x=xs, grid_w=np.full_like(xs, 1.0 / (20.0 * math.pi)),
                          min_value=1.0 / (20.0 * math.pi),
                          method=Method.MOMENT_RECONSTRUCTION)
    assert resolution_residual(flat, CLASSICAL, 8) > 0.5


def test_moment_ratios_of_large_moments_settle_relatively():
    # np.interp holds the flat density constant up to the cutoff 3*8 + 60 = 84,
    # so M_n = 84**(n+1) / (20 (n+1)!) exactly; M_7 is about 3.1e9, where the
    # sweep-to-sweep rounding change exceeds any absolute 1e-8 threshold
    xs = np.linspace(0.0, 20.0, 512)
    flat = WeightFunction(support=(0.0, math.inf), basis=None, coeffs=None,
                          grid_x=xs, grid_w=np.full_like(xs, 1.0 / (20.0 * math.pi)),
                          min_value=1.0 / (20.0 * math.pi),
                          method=Method.MOMENT_RECONSTRUCTION)
    ratios, panels = moment_ratios(flat, CLASSICAL, 8)
    exact = [84.0 ** (n + 1) / (20.0 * math.factorial(n + 1)) for n in range(8)]
    np.testing.assert_allclose(ratios, exact, rtol=1e-12, atol=0.0)
    assert panels <= 4


def test_moment_ratios_rounding_noise_still_raises():
    # for q -> 1 the x**n Wt integrand cancels so badly that successive sweeps
    # move by 3e-3 to 0.11; the relative rule must not accept that noise
    params = DeformationParams(0.99, 1.0)
    w = weight_from_moments(target_moments(params, 24), 12)
    with pytest.raises(QuadratureError):
        moment_ratios(w, params, 12)


def test_zeroth_moment_property():
    for params in (CLASSICAL, QUON, COMPLEX_P):
        w = weight_from_moments(target_moments(params, 24), 12)
        ratios, _ = moment_ratios(w, params, 1)
        assert abs(ratios[0] - 1.0) <= 1e-6


def test_radial_and_2d_quadratures_agree():
    for params in (CLASSICAL, QUON):
        w = weight_from_moments(target_moments(params, 24), 12)
        dim = 8
        ident = identity_matrix_2d(w, params, dim)
        ratios, _ = moment_ratios(w, params, dim)
        off = ident - np.diag(np.diag(ident))
        assert np.max(np.abs(off)) <= 1e-8
        assert np.max(np.abs(np.diag(ident).imag)) <= 1e-8
        np.testing.assert_allclose(np.diag(ident).real, ratios, atol=5e-7)


def test_identity_2d_is_hermitian():
    w = weight_from_moments(target_moments(COMPLEX_P, 24), 12)
    ident = identity_matrix_2d(w, COMPLEX_P, 6)
    np.testing.assert_allclose(ident, ident.conj().T, atol=1e-10)


# ----------------------------------------------------------------------
# export formats


def test_csv_export_columns_and_precision():
    w = weight_from_moments(target_moments(CLASSICAL, 24), 12)
    buf = io.StringIO()
    weight_to_csv(w, CLASSICAL, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "x,wtilde,w_physical"
    first = lines[1].split(",")
    assert len(first) == 3
    assert "e" in first[1] and len(first[1].split("e")[0]) >= 18
    physical = np.array([float(line.split(",")[2]) for line in lines[1:]])
    np.testing.assert_allclose(physical, 1.0 / math.pi, atol=1e-6)


def test_csv_export_fourier_has_imag_column():
    xg = np.linspace(0.1, 1.8, 12)
    w = weight_from_fourier(QUON, y_cut=12.0, damping=8e-3, x_grid=xg)
    buf = io.StringIO()
    weight_to_csv(w, QUON, buf)
    assert buf.getvalue().splitlines()[0] == "x,wtilde,w_physical,wtilde_imag"


def test_json_export_schema():
    w = weight_from_moments(target_moments(QUON, 24), 12)
    buf = io.StringIO()
    weight_to_json(w, buf)
    payload = json.loads(buf.getvalue())
    assert payload["basis"] == "ShiftedLegendre"
    assert payload["method"] == "MomentReconstruction"
    assert payload["support"] == [0.0, 2.0]
    assert len(payload["coefficients"]) == 13
    assert "condition_estimate" in payload["diagnostics"]


def test_grids_format_from_python_floats_as_from_numpy_scalars():
    specials = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                         -2.2250738585072014e-308, 1.0 / 3.0, -1e300, 2.5])
    x = np.linspace(0.0, 1.0, len(specials))
    w = WeightFunction(support=(0.0, math.inf), basis=None, coeffs=None,
                       grid_x=x, grid_w=specials, min_value=-math.inf,
                       method=Method.MOMENT_RECONSTRUCTION,
                       diagnostics={"grid_imag": specials[::-1].copy()})
    buf = io.StringIO()
    weight_to_json(w, buf)
    grid = json.loads(buf.getvalue())["grid"]
    assert grid["x"] == [f"{v:.16e}" for v in x]
    assert grid["wtilde"] == [f"{v:.16e}" for v in specials]
    buf = io.StringIO()
    with np.errstate(invalid="ignore"):
        weight_to_csv(w, CLASSICAL, buf)
        phys = physical_weight(w, CLASSICAL).grid_w
    rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
    columns = (x, specials, phys, specials[::-1])
    assert rows == [[f"{c[i]:.16e}" for c in columns] for i in range(len(x))]
