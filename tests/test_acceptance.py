"""Acceptance suite: one test per release criterion, with printed measurements.

Every tolerance is pinned here, not tuned elsewhere. Criterion 5's
cross-method clause is implemented faithfully and marked as a strict
expected failure: the underlying moment problems make pointwise agreement at
1e-3 impossible (see the test's docstring for the argument and the measured
best-achievable numbers).
"""

import cmath
import math

import numpy as np
import pytest

from qpcoherent import (
    DeformationParams,
    RatioVerdict,
    Verdict,
    annihilator_residual,
    build_operators,
    convergence_radius,
    exp1,
    label_distance_sq,
    make_state,
    overlap,
    proposition1_check,
    proposition2_check,
    default_parameter_grid,
    relation_residuals,
    resolution_residual,
    target_moments,
    weight_from_fourier,
    weight_from_moments,
    physical_weight,
    SeriesControl,
)
from qpcoherent.cli import main

CLASSICAL = DeformationParams(1.0, 1.0)
QUON = DeformationParams(0.5, 1.0)
COMPLEX_P = DeformationParams(0.5, cmath.exp(1j * math.pi / 4))
REGIME_II = DeformationParams(cmath.exp(0.6j), 1.4)

KLAUDER_POINTS = (QUON, COMPLEX_P, REGIME_II)


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_classical_limit_exactness():
    # the relative target at exp(-10) needs a tail below 5e-15, hence the
    # tight tolerance; extended-precision accumulation keeps the alternating
    # sums from losing those digits to cancellation
    ctrl = SeriesControl(n_max=800, tol=1e-15, min_terms=10)
    worst_exp = 0.0
    for x in np.linspace(-10.0, 10.0, 41):
        ev = exp1(x, CLASSICAL, ctrl)
        worst_exp = max(worst_exp, abs(ev.value - math.exp(x)) / math.exp(x))

    state = make_state(1.0, CLASSICAL, dim=30)
    canonical = np.array([math.exp(-0.5) / math.sqrt(math.factorial(n))
                          for n in range(30)])
    worst_cs = float(np.max(np.abs(state.coeffs - canonical)))

    weight = weight_from_moments(target_moments(CLASSICAL, 24), 12)
    xs = np.linspace(0.0, 20.0, 401)
    worst_wt = float(np.max(np.abs(weight.evaluate(xs) - np.exp(-xs) / math.pi)))
    worst_phys = float(np.max(np.abs(
        physical_weight(weight, CLASSICAL).grid_w - 1.0 / math.pi)))

    ok = worst_exp <= 1e-10 and worst_cs <= 1e-10 and worst_wt <= 1e-6 \
        and worst_phys <= 1e-6
    report("criterion 1 (classical limit)", ok,
           f"exp rel {worst_exp:.2e} <= 1e-10, coeffs {worst_cs:.2e} <= 1e-10, "
           f"weight {worst_wt:.2e} <= 1e-6, physical {worst_phys:.2e} <= 1e-6")


def test_criterion_02_algebra_residuals():
    q_list = [0.3, 0.5 * cmath.exp(0.7j), 0.7 * cmath.exp(1.6j),
              0.85 * cmath.exp(2.4j), 0.95 * cmath.exp(0.2j)]
    p_list = [1.0, cmath.exp(0.5j), cmath.exp(1.2j), cmath.exp(2.2j),
              cmath.exp(2.9j)]
    worst = 0.0
    for q in q_list:
        for p in p_list:
            rep = relation_residuals(build_operators(20, DeformationParams(q, p)))
            worst = max(worst, rep.residual_qmutation, rep.residual_delta_comm,
                        rep.residual_adag_comm, rep.residual_qp)
    report("criterion 2 (algebra residuals)", worst <= 1e-12,
           f"worst interior-block residual {worst:.2e} <= 1e-12 on 5x5 grid, dim 20")


def test_criterion_03_normalizability():
    worst = 0.0
    for params in KLAUDER_POINTS:
        radius = convergence_radius(params)
        labels = [math.sqrt(f * radius) * cmath.exp(1j * t)
                  for f in np.linspace(0.08, 0.8, 10)
                  for t in (0.0, 1.3, 2.6, 3.9, 5.2)]
        assert len(labels) == 50
        for z in labels:
            s = make_state(z, params)
            worst = max(worst, abs(overlap(s, s) - 1.0))
    report("criterion 3 (normalizability)", worst <= 1e-10,
           f"max |<z|z> - 1| = {worst:.2e} <= 1e-10 over 50 labels x "
           f"{len(KLAUDER_POINTS)} parameter points")


def test_criterion_04_label_continuity():
    deltas = [10.0 ** (-k) for k in range(1, 7)]
    detail = []
    ok = True
    for params in KLAUDER_POINTS:
        z = 0.35 * math.sqrt(convergence_radius(params))
        base = make_state(z, params)
        dists = [label_distance_sq(base, make_state(z + d * cmath.exp(0.9j),
                                                    params))
                 for d in deltas]
        lipschitz = max(d2 / d for d2, d in zip(dists, deltas))
        monotone = all(b < a for a, b in zip(dists, dists[1:]))
        ok = ok and monotone and math.isfinite(lipschitz) \
            and all(d2 <= lipschitz * d for d2, d in zip(dists, deltas)) \
            and dists[-1] <= 1e-9
        detail.append(f"C={lipschitz:.3f}, d2(1e-6)={dists[-1]:.1e}")
    report("criterion 4 (label continuity)", ok, "; ".join(detail))


def test_criterion_05_moment_route():
    detail = []
    ok = True
    for params in (QUON, COMPLEX_P):
        weight = weight_from_moments(target_moments(params, 24), 12)
        mres = float(np.max(weight.diagnostics["moment_residuals"][:13]))
        rres = resolution_residual(weight, params, 12)
        ok = ok and mres <= 1e-6 and rres <= 1e-4
        detail.append(f"moment residual {mres:.1e} <= 1e-6, "
                      f"resolution residual {rres:.1e} <= 1e-4")
    report("criterion 5 (unity via moments)", ok, "; ".join(detail))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Pointwise 1e-3 agreement between the two weight routes cannot hold "
        "for these parameters. For q=0.5, p=1 the unique measure with moments "
        "|[n]|!/pi is purely atomic (atoms at x = 2**(1-k), Euler's identity; "
        "verified to 1.8e-12), so any damped Fourier inversion is a smoothed "
        "atom train while the degree-12 moment match is an oscillating "
        "polynomial; their gap stays ~0.4. For q=0.5, p=exp(i pi/4) the "
        "moment sequence has an indefinite Hankel matrix (min eig -0.165), "
        "so no positive weight exists at all and both reconstructions are "
        "large-amplitude signed objects. The Wbar series also loses all "
        "digits past |y| ~ 32/R (cancellation), capping the usable window."
    ),
)
def test_criterion_05_cross_method_agreement():
    worst_per_params = []
    for params in (QUON, COMPLEX_P):
        radius = convergence_radius(params)
        weight_m = weight_from_moments(target_moments(params, 24), 12)
        xs = np.linspace(0.1 * radius, 0.9 * radius, 81)
        ref = weight_m.evaluate(xs)
        best = math.inf
        y_wall = 31.0 / radius
        for y_cut in (y_wall, 0.6 * y_wall):
            for damping in (1e-3, 1e-2, 3e-2):
                weight_f = weight_from_fourier(params, y_cut, damping, xs)
                best = min(best, float(np.max(np.abs(weight_f.grid_w - ref))))
        worst_per_params.append(best)
        print(f"cross-method best sup-difference on central 80% "
              f"(q={params.q:.3g}, p={params.p:.3g}): {best:.4f}")
    ok = max(worst_per_params) <= 1e-3
    report("criterion 5 (cross-method agreement)", ok,
           f"best achievable sup differences {worst_per_params} vs 1e-3")


def test_criterion_06_proposition_1():
    failures = []
    for modulus in (0.5, 0.9, 1.1, 2.0):
        for j in range(10):
            Q = modulus * cmath.exp(1j * (0.25 + 0.28 * j))
            for row in proposition1_check(Q, (0.5, 1.0)):
                if row.verdict is not RatioVerdict.DIVERGENT:
                    failures.append((Q, row.y, row.verdict))
    circle_failures = []
    for j in range(10):
        Q = cmath.exp(1j * (0.25 + 0.28 * j))
        for row in proposition1_check(Q, (1.0,)):
            if row.verdict is not RatioVerdict.CONVERGENT:
                circle_failures.append((Q, row.verdict))
    ok = not failures and not circle_failures
    report("criterion 6 (proposition 1)", ok,
           f"40/40 off-circle Divergent, 10/10 on-circle Convergent "
           f"(failures: {failures + circle_failures})")


def test_criterion_07_proposition_2():
    rows = proposition2_check(default_parameter_grid())
    contradictions = [r for r in rows if r.contradiction]
    soft = [r for r in rows
            if r.boundary_margin > 1e-2 and any(
                v is RatioVerdict.INCONCLUSIVE
                for v in (r.v_exp1, r.v_exp2, r.v_wbar) if v is not None)]
    ok = len(rows) == 100 and not contradictions and not soft
    report("criterion 7 (proposition 2)", ok,
           f"{len(rows)} points, {len(contradictions)} contradictions, "
           f"{len(soft)} off-boundary inconclusives")


def test_criterion_08_radius_verdict_flip():
    points = [
        DeformationParams(0.5, 1.0),
        DeformationParams(0.5, cmath.exp(1j * math.pi / 4)),
        DeformationParams(0.3 * cmath.exp(0.8j), cmath.exp(1.9j)),
        DeformationParams(0.7 * cmath.exp(2.1j), cmath.exp(0.4j)),
        DeformationParams(0.85, cmath.exp(2.8j)),
        DeformationParams(cmath.exp(0.5j), 1.5),
        DeformationParams(cmath.exp(1.4j), 2.2),
        DeformationParams(cmath.exp(2.3j), 1.2),
        DeformationParams(0.6 * cmath.exp(1.0j), cmath.exp(2.2j)),
        DeformationParams(0.9 * cmath.exp(0.3j), cmath.exp(1.1j)),
    ]
    assert len(points) == 10
    ok = True
    for params in points:
        R = convergence_radius(params)
        inside = exp1(0.9 * R, params)
        outside = exp1(1.1 * R, params)
        ok = ok and inside.verdict is Verdict.CONVERGED \
            and outside.verdict is Verdict.DIVERGENT_INPUT
    report("criterion 8 (radius verdict flip)", ok,
           "Converged at 0.9R and DivergentInput at 1.1R for all 10 points")


def test_criterion_09_annihilator_eigenstates():
    worst_ratio = 0.0
    for params in KLAUDER_POINTS:
        radius = convergence_radius(params)
        for f in (0.1, 0.4, 0.7):
            for t in (0.0, 2.1, 4.4):
                z = math.sqrt(f * radius) * cmath.exp(1j * t)
                s = make_state(z, params)
                ops = build_operators(s.dim, params)
                resid = annihilator_residual(s, ops)
                worst_ratio = max(worst_ratio, resid / (10.0 * s.tail_bound))
    report("criterion 9 (annihilator eigenstates)", worst_ratio <= 1.0,
           f"max residual / (10 * tail) = {worst_ratio:.2e} <= 1")


def test_criterion_10_deterministic_outputs(tmp_path):
    pairs = []
    for name, args in (
        ("verify", ["verify", "--q", "0.5", "--p", "1", "--dim", "12",
                    "--degree", "10"]),
        ("regimes", ["regimes", "--prop", "2"]),
    ):
        out1 = tmp_path / f"{name}1.csv"
        out2 = tmp_path / f"{name}2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        pairs.append(out1.read_bytes() == out2.read_bytes())
    report("criterion 10 (determinism)", all(pairs),
           "verify and regimes outputs byte-identical across reruns")
