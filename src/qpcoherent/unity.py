"""Resolution-of-unity machinery: target moments, weight recovery, audits.

The identity decomposition over coherent-state labels reduces, after the
exact angular integral, to the one-dimensional moment problem

    integral_0^R x**n Wt(x) dx = |[n]|! / pi,   n = 0, 1, 2, ...

on x = |z|**2, with R the convergence radius (a Hausdorff problem for finite
R, Stieltjes for R = inf). Two independent recovery routes are provided:

* moment matching in an orthogonal-polynomial basis (shifted Legendre on
  [0, R], Laguerre functions L_j(x) exp(-x) on [0, inf)), which is the
  trusted route, and
* the regularized inverse Fourier transform of
  Wbar(y) = sum |[n]|! (iy)**n / (pi n!), with a Gaussian damper exp(-eps y^2)
  and a finite window, which makes the formal transform executable.

Positivity of the recovered weight is measured (min_value), never enforced.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from ._quad import adaptive_gl, panel_nodes
from .defexp import UNIT_MODULUS_TOL, SeriesControl, convergence_radius, growth_rate
from .errors import (
    IllConditionedError,
    InvalidParameterError,
    QuadratureError,
    RootOfUnityDegeneracyError,
    SeriesDivergenceError,
)
from .qnumbers import (
    DeformationParams,
    _moduli,
    _running_products,
    _stored,
    iter_numbers,
    qp_sequence,
)

CONDITION_LIMIT = 1e12

#: series cap for pointwise exp2 values on dense grids. The certified
#: geometric remainder (see ``_exp2_values``) stops after about
#: ln(G/tol)/ln(1/|w|) terms on a grid of G points; the cap matters only where
#: that bound is not used (|w| at or near 1), where the sum stops on two small
#: terms in a row at every point
_GRID_SERIES_CAP = 400_000

#: size of one complex block of the Fourier route: an x-row chunk of the
#: exp(-i x y) matrix, or a block of Wbar terms over all nodes
_BLOCK_BYTES = 1 << 20

#: truncation of every Wbar sum on the Fourier route's quadrature nodes
WBAR_CONTROL = SeriesControl(n_max=4000, tol=1e-12, min_terms=10)

#: the Wbar terms peak near exp(R |y|) while the sum stays O(1): the sum
#: loses about WBAR_ROUNDING of the peak term, and a loss above
#: WBAR_NOISE_LIMIT of the sum raises; so |y| up to
#: ln(WBAR_NOISE_LIMIT / WBAR_ROUNDING) / R stays below the gate
WBAR_ROUNDING = 2.3e-16
WBAR_NOISE_LIMIT = 1e-2


class Basis(Enum):
    SHIFTED_LEGENDRE = "ShiftedLegendre"
    GENERALIZED_LAGUERRE = "GeneralizedLaguerre"


class Method(Enum):
    MOMENT_RECONSTRUCTION = "MomentReconstruction"
    FOURIER_INVERSION = "FourierInversion"


@dataclass(frozen=True)
class MomentSet:
    """Target moments |[n]|!/pi with their support interval."""

    params: DeformationParams
    n_max: int
    moments: np.ndarray
    support: tuple[float, float]


@dataclass(frozen=True)
class WeightFunction:
    """A recovered weight Wt: evaluable anywhere on its support through its
    basis expansion if it has one; a grid-only weight interpolates its grid."""

    support: tuple[float, float]
    basis: Optional[Basis]
    coeffs: Optional[np.ndarray]
    grid_x: np.ndarray
    grid_w: np.ndarray
    min_value: float
    method: Method
    diagnostics: dict = field(default_factory=dict)

    def evaluate(self, x) -> np.ndarray:
        """Wt at arbitrary points: the basis expansion, else the grid interpolant."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.coeffs is not None and self.basis is not None:
            return _basis_values(self.basis, self.coeffs, self.support[1], x)
        return np.interp(x, self.grid_x, self.grid_w)


def _basis_values(basis: Basis, coeffs: np.ndarray, R: float,
                  x: np.ndarray) -> np.ndarray:
    if basis is Basis.SHIFTED_LEGENDRE:
        return np.polynomial.legendre.legval(2.0 * x / R - 1.0, coeffs)
    return np.polynomial.laguerre.lagval(x, coeffs) * np.exp(-x)


def _require_disk(radius: float) -> None:
    if radius == 0.0:
        raise SeriesDivergenceError(
            "convergence radius is 0 (q p = 1 with |q| < 1): sum x**n/|[n]|! "
            "diverges for every x > 0, so no weight exists")


def format_float(v: float) -> str:
    """Fixed 17-significant-digit scientific notation for diffable output."""
    return f"{v:.16e}"


@contextmanager
def open_output(file_or_path):
    """Yield an open file as is, or open a path for UTF-8 text and close it.

    A path is opened with ``newline=""``, so line ends are written untranslated.
    """
    if hasattr(file_or_path, "write"):
        yield file_or_path
    else:
        with open(file_or_path, "w", newline="", encoding="utf-8") as fh:
            yield fh


# ----------------------------------------------------------------------
# target moments and the Wbar series


def target_moments(params: DeformationParams, n_max: int) -> MomentSet:
    """Moments mu_n = |[n]|!/pi for n = 0..n_max."""
    seq = qp_sequence(n_max, params)
    if seq.resonance_index is not None:
        raise RootOfUnityDegeneracyError(seq.resonance_index)
    if seq.overflow_index is not None:
        raise InvalidParameterError(
            f"|[n]|! overflows at n = {seq.overflow_index}; lower n_max"
        )
    moments = seq.abs_factorials / math.pi
    moments.flags.writeable = False
    return MomentSet(params=params, n_max=n_max, moments=moments,
                     support=(0.0, convergence_radius(params)))


def _wbar_values(y: np.ndarray, params: DeformationParams,
                 ctrl: SeriesControl = WBAR_CONTROL) -> tuple[np.ndarray, int]:
    """Vectorized Wbar over a 1-D array of real ordinates, and the stop index.

    The terms peak near exp(R |y|) while the sum stays O(1), so beyond
    moderate |y| the alternating sum has no correct digits in double
    precision; that cancellation is detected and reported rather than
    returning noise.

    Terms come in blocks of rows, one per term and one column per ordinate,
    at most ``_BLOCK_BYTES`` of complex values and twice as deep as the block
    before. Sequential accumulations along the term axis form every product
    and sum in the order of a term-by-term loop, and the stop and error tests
    run per row, so the result does not depend on the block depth. The sum
    stops at the first term n >= min_terms where every ordinate has seen two
    terms in a row below ``tol * max(|total|, 1)``; that n is returned. A
    flagged [n] at or before that term raises RootOfUnityDegeneracyError.
    A term above 1e140 raises SeriesDivergenceError, named as cancellation
    where |[n]| stays bounded (growth rate 1 or less, off the degenerate set).
    """
    y = np.asarray(y, dtype=float)
    iy = 1j * y
    term = np.full(y.shape, 1.0 / math.pi, dtype=complex)
    total = term.copy()
    peak = np.full(y.shape, 1.0 / math.pi)
    small = np.zeros(y.shape, dtype=bool)
    n, depth = 0, 16
    with np.errstate(over="ignore", invalid="ignore"):
        while n < ctrl.n_max:
            rows = min(depth, ctrl.n_max - n,
                       max(1, _BLOCK_BYTES // (16 * max(y.size, 1))))
            moduli = _moduli(_stored(params, n + rows).numbers[n + 1:n + rows + 1])
            steps = iy * (moduli / np.arange(n + 1, n + rows + 1))[:, None]
            terms = np.multiply.accumulate(np.concatenate([term[None], steps]))[1:]
            totals = np.add.accumulate(np.concatenate([total[None], terms]))[1:]
            at = np.abs(terms)
            peaks = np.maximum.accumulate(np.concatenate([peak[None], at]))[1:]
            smalls = at <= ctrl.tol * np.maximum(np.abs(totals), 1.0)
            stop = np.all(smalls & np.concatenate([small[None], smalls[:-1]]), axis=1)
            stop[:max(ctrl.min_terms - n - 1, 0)] = False
            diverged = np.max(at, axis=1) > 1e140
            hit = np.flatnonzero(stop | diverged)
            zero = np.flatnonzero(moduli == 0)   # a flagged [n]
            if zero.size and (not hit.size or zero[0] <= hit[0]):
                raise RootOfUnityDegeneracyError(n + int(zero[0]) + 1)
            if hit.size:
                r = int(hit[0])
                reach = f"|y| up to {float(np.max(np.abs(y))):.3g}; reduce y_cut"
                if diverged[r]:
                    if params.is_degenerate or growth_rate(params) > 1.0 + UNIT_MODULUS_TOL:
                        raise SeriesDivergenceError("Wbar series diverges for these "
                                                    "parameters; no inverse transform")
                    raise SeriesDivergenceError(f"Wbar cancellation: terms pass 1e+140 at {reach}")
                noise = np.max(WBAR_ROUNDING * peaks[r]
                               / np.maximum(np.abs(totals[r]), 1e-300))
                if noise > WBAR_NOISE_LIMIT:
                    raise SeriesDivergenceError(
                        f"Wbar cancellation noise {noise:.2e} at {reach}")
                return totals[r].copy(), n + r + 1
            term, total, peak, small = terms[-1], totals[-1], peaks[-1], smalls[-1]
            n, depth = n + rows, 2 * depth
    raise SeriesDivergenceError(
        f"Wbar series not converged within {ctrl.n_max} terms"
    )


def _exp2_values(x: np.ndarray, params: DeformationParams
                 ) -> tuple[np.ndarray, int, float]:
    """Vectorized sum x**n/|[n]|! for real nonnegative x strictly inside the disk.

    Returns the values, the number n of explicit terms and the largest
    certified half-width of the remainder relative to the value (inf where no
    bound is used). With L <= |[k]| <= U for every k > n, the remainder after
    the term t_n lies between t_n x/(U - x) and t_n x/(L - x); its midpoint is
    added, and the sum stops at the first n where the half-width is at most
    ``tol * total`` at every point.

    Off the degenerate set |[k]| = R lam**k |1 - w**k| with |w| <= 1, so
    lam >= 1 and |w| < 1 give L = R lam**(n+1) (1 - |w|**(n+1)), and lam = 1
    also U = R (1 + |w|**(n+1)); without U the lower end is 0. On the
    degenerate branch |[k]| = k |q|**(k-1) >= (n+1) |q|**n, as |q| is 1 up to
    rounding there or above (the radius is 0 otherwise). On a grid of G
    points reaching R (1 - 1/G) the bracket closes after about
    ln(tol/G)/ln|w| terms. Where |w| = 1, or where that count exceeds the cap
    or the about ln(tol)/ln(x/R) terms that the following stop takes at the
    edge, the sum stops instead once every point has seen two terms in a row
    below ``tol * total``. Here tol = 1e-12 and the cap is _GRID_SERIES_CAP.
    """
    n_cap, tol = _GRID_SERIES_CAP, 1e-12
    x = np.asarray(x, dtype=float)
    radius = convergence_radius(params)
    if np.any(x < 0) or np.any(x >= radius):
        raise InvalidParameterError("grid points must satisfy 0 <= x < radius")
    edge = int(np.argmax(x))   # terms and totals are largest here, gaps smallest
    degenerate = params.is_degenerate
    if degenerate:
        aq = min(abs(params.q), 1.0)
        bracket = True
    else:
        w = params.q * params.p
        if abs(w) <= 1.0:
            lam = 1.0 / abs(params.p)
        else:
            w, lam = 1.0 / w, abs(params.q)
        aw = abs(w)
        if lam < 1.0 - UNIT_MODULUS_TOL:
            raise SeriesDivergenceError(
                f"|[n]| decays like {lam:.6g}**n, so the terms of "
                "sum x**n/|[n]|! grow and it diverges for every x > 0")
        # not within MODULUS_TOL: a modulus error d moves the edge value by d G**2
        lam_is_one = lam <= 1.0 + UNIT_MODULUS_TOL
        log_lam = 0.0 if lam_is_one else math.log(lam)
        room = radius - x   # exact near the edge, where L - x is small
        x_edge = float(x[edge])
        bracket = aw < 1.0 - UNIT_MODULUS_TOL and (
            aw == 0.0 or x_edge == 0.0
            or math.log(tol * room[edge] / radius) / math.log(aw)
            <= min(n_cap, math.log(tol) / math.log(x_edge / radius)))
    term = np.ones(x.shape, dtype=float)
    total = term.copy()
    streak = np.zeros(x.shape, dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        for n, value in zip(range(1, n_cap + 1), iter_numbers(params)):
            if value == 0:   # a flagged [n]
                raise RootOfUnityDegeneracyError(n)
            term *= x / abs(value)
            total += term
            if not math.isfinite(term[edge]):
                raise SeriesDivergenceError(
                    f"exp2 term {n} is no longer finite at x = {x[edge]:.6g}")
            if not bracket:
                small = term <= tol * np.maximum(total, 1.0)
                streak = np.where(small, streak + 1, 0)
                if n >= 10 and np.all(streak >= 2):
                    return total, n, math.inf
                continue
            if degenerate:
                low_gap, high_gap = (n + 1) * aq ** n - x, math.inf
            else:
                b = aw ** (n + 1)
                # L - x = (R - x) + R (expm1((n+1) ln lam) (1 - b) - b)
                low_gap = room + radius * (np.expm1((n + 1) * log_lam) * (1.0 - b) - b)
                high_gap = room + radius * b if lam_is_one else math.inf
            if low_gap[edge] <= 0.0:
                continue
            high = term * x / low_gap
            low = term * x / high_gap
            half = 0.5 * (high - low)
            if np.all(half <= tol * total):
                return (total + 0.5 * (high + low), n,
                        float(np.max(half / total)))
    raise SeriesDivergenceError(f"exp2 grid evaluation not converged in {n_cap} terms")


# ----------------------------------------------------------------------
# moment-matching reconstruction

_LD = np.longdouble


def _legendre_moment_matrix(degree: int, R: float) -> np.ndarray:
    # M[n, j] = integral_0^R x**n P_j(2x/R - 1) dx
    #         = R**(n+1) (n!)^2 / ((n-j)! (n+j+1)!),  zero for j > n,
    # built through the ratio M[n,j]/M[n,j-1] = (n-j+1)/(n+j+1) so no
    # factorial ever materializes.
    d1 = degree + 1
    M = np.zeros((d1, d1), dtype=_LD)
    Rl = _LD(R)
    lead = Rl
    for n in range(d1):
        val = lead / _LD(n + 1)
        M[n, 0] = val
        for j in range(1, n + 1):
            val = val * _LD(n - j + 1) / _LD(n + j + 1)
            M[n, j] = val
        lead = lead * Rl
    return M


def _laguerre_moment_matrix(degree: int) -> np.ndarray:
    # M[n, j] = integral_0^inf x**n L_j(x) exp(-x) dx = (-1)**j C(n, j) n!
    d1 = degree + 1
    M = np.zeros((d1, d1), dtype=_LD)
    for n in range(d1):
        fact = _LD(math.factorial(n))
        binom = _LD(1)
        for j in range(n + 1):
            M[n, j] = ((-1) ** j) * binom * fact
            binom = binom * _LD(n - j) / _LD(j + 1)
    return M


def _solve_lower_triangular(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    n = len(rhs)
    c = np.zeros(n, dtype=_LD)
    for i in range(n):
        c[i] = (rhs[i] - M[i, :i] @ c[:i]) / M[i, i]
    return c


def weight_from_moments(moments: MomentSet, degree: int, *,
                        grid_points: int = 801,
                        x_max: float | None = None) -> WeightFunction:
    """Basis expansion whose first degree+1 moments match the targets exactly.

    Finite support uses shifted Legendre polynomials on [0, R]; infinite
    support uses Laguerre functions on [0, inf). Both moment systems are
    lower triangular and are solved in extended precision; the relative
    moment residuals and the equilibrated condition estimate are reported in
    the diagnostics. A condition estimate beyond 1e12 raises
    IllConditionedError (lower the degree).
    """
    if degree < 0 or degree > moments.n_max:
        raise InvalidParameterError("need 0 <= degree <= moments.n_max")
    R = moments.support[1]
    _require_disk(R)
    finite = math.isfinite(R)
    d1 = degree + 1
    M = _legendre_moment_matrix(degree, R) if finite else _laguerre_moment_matrix(degree)
    rhs = moments.moments[:d1].astype(_LD)

    scale = 1.0 / np.max(np.abs(M), axis=1)
    Ms = M * scale[:, None]
    cond = float(np.linalg.cond(Ms.astype(float)))
    if cond > CONDITION_LIMIT:
        raise IllConditionedError(
            f"moment system condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e}"
        )
    c = _solve_lower_triangular(Ms, rhs * scale)
    resid = np.abs(M @ c - rhs) / np.maximum(np.abs(rhs), _LD(1e-300))
    coeffs = c.astype(float)
    coeffs.flags.writeable = False

    if finite:
        grid_x = np.linspace(0.0, R, grid_points, endpoint=False)
        basis = Basis.SHIFTED_LEGENDRE
    else:
        span = x_max if x_max is not None else max(20.0, 2.0 * degree)
        grid_x = np.linspace(0.0, span, grid_points)
        basis = Basis.GENERALIZED_LAGUERRE
    grid_w = _basis_values(basis, coeffs, R, grid_x)
    grid_x.flags.writeable = False
    grid_w.flags.writeable = False
    return WeightFunction(
        support=moments.support, basis=basis, coeffs=coeffs,
        grid_x=grid_x, grid_w=grid_w, min_value=float(np.min(grid_w)),
        method=Method.MOMENT_RECONSTRUCTION,
        diagnostics={
            "degree": degree,
            "condition_estimate": cond,
            "moment_residuals": resid.astype(float),
        },
    )


# ----------------------------------------------------------------------
# regularized Fourier inversion


def _phase_chunks(x: np.ndarray, ys: np.ndarray):
    """Yield (rows, exp(-i x[rows] y)) over x-row chunks of bounded size.

    A chunk holds about ``_BLOCK_BYTES`` of complex values, filled from
    cos and sin of the phases (bit for bit what np.exp(-1j * phase) gives).
    Every chunk but the last has a multiple of 4 rows, and the last holds the
    len(x) % 4 leftover rows plus at least 4 more (one chunk below 8 rows):
    BLAS matrix-vector kernels work on groups of 4 rows, so ``chunk @ v``
    equals the rows of the whole product bit for bit under that split.
    """
    step = max(4, _BLOCK_BYTES // (16 * max(len(ys), 1)) // 4 * 4)
    edges = [*range(0, max(len(x) - len(x) % 4 - 4, 1), step), len(x)]
    for a, b in zip(edges, edges[1:]):
        theta = np.outer(x[a:b], ys)
        phase = np.empty(theta.shape, dtype=complex)
        np.cos(theta, out=phase.real)
        np.sin(theta, out=phase.imag)
        np.negative(phase.imag, out=phase.imag)
        yield slice(a, b), phase


def _transform(x: np.ndarray, ys: np.ndarray, vals: np.ndarray,
               ws: np.ndarray) -> np.ndarray:
    """(exp(-i x y) * vals) @ ws, one bounded x-row chunk at a time."""
    F = np.empty(len(x), dtype=complex)
    for rows, phase in _phase_chunks(x, ys):
        phase *= vals
        F[rows] = phase @ ws
    return F


def weight_from_fourier(params: DeformationParams, y_cut: float, damping: float,
                        x_grid: np.ndarray) -> WeightFunction:
    """(1/2pi) integral_{-Y}^{Y} exp(-iyx) exp(-eps y^2) Wbar(y) dy on x_grid.

    Needs 0 < Y < inf and 0 < eps < inf. On the classical degenerate branch
    the exact transform 1/(pi (1 - iy)) is used, since the series is just its
    Taylor expansion at 0. The imaginary part of the result and the window
    decay |Wbar(+-Y)| exp(-eps Y^2) are reported as diagnostics, and neither
    raises or warns. Each panel-doubling sweep reduces bounded x-row chunks
    of exp(-iyx) straight into the result, so memory does not grow with the
    panel count. The result is grid-only: ``evaluate`` interpolates the grid.
    Sweeps use 64-node panels and stop at a relative agreement of 1e-6 within
    1024 panels.
    """
    if not (0 < y_cut < math.inf and 0 < damping < math.inf):
        raise InvalidParameterError("y_cut and damping must be positive and finite")
    radius = convergence_radius(params)
    _require_disk(radius)
    x_grid = np.asarray(x_grid, dtype=float)

    if params.is_degenerate and abs(abs(params.q) - 1.0) < 1e-9:
        wbar_fn = lambda y: 1.0 / (math.pi * (1.0 - 1j * np.asarray(y)))
    else:
        wbar_fn = lambda y: _wbar_values(y, params)[0]

    def integrand(ys: np.ndarray, ws: np.ndarray) -> np.ndarray:
        return _transform(x_grid, ys, wbar_fn(ys) * np.exp(-damping * ys ** 2), ws)

    F, panels = adaptive_gl(integrand, -y_cut, y_cut, rtol=1e-6)
    F = F / (2.0 * math.pi)

    edge = np.array([-y_cut, y_cut])
    window_decay = float(np.max(np.abs(wbar_fn(edge))) *
                         math.exp(-damping * y_cut ** 2))

    wtilde = F.real
    for arr in (x_grid, wtilde):
        arr.flags.writeable = False
    return WeightFunction(
        support=(0.0, radius), basis=None, coeffs=None,
        grid_x=x_grid, grid_w=wtilde, min_value=float(np.min(wtilde)),
        method=Method.FOURIER_INVERSION,
        diagnostics={
            "y_cut": y_cut,
            "damping": damping,
            "panels": panels,
            "imag_max": float(np.max(np.abs(F.imag))),
            "window_decay": window_decay,
            "grid_imag": F.imag,
        },
    )


def physical_weight(wtilde: WeightFunction, params: DeformationParams
                    ) -> WeightFunction:
    """Pointwise W(x) = exp2(x) * Wt(x) on the stored grid (grid-only result)."""
    vals, terms, tail = _exp2_values(wtilde.grid_x, params)
    w_phys = wtilde.grid_w * vals
    w_phys.flags.writeable = False
    diag = dict(wtilde.diagnostics)
    diag["exp2_terms"] = terms
    diag["exp2_tail_bound"] = tail
    return WeightFunction(
        support=wtilde.support, basis=None, coeffs=None,
        grid_x=wtilde.grid_x, grid_w=w_phys, min_value=float(np.min(w_phys)),
        method=wtilde.method, diagnostics=diag,
    )


# ----------------------------------------------------------------------
# resolution-of-unity audits


def _integration_upper(weight: WeightFunction, dim: int) -> float:
    upper = weight.support[1]
    if math.isfinite(upper):
        return upper
    # Laguerre-type decay: pick a cutoff with negligible x**n exp(-x) tail
    return max(float(np.max(weight.grid_x)), 3.0 * dim + 60.0)


def moment_ratios(weight: WeightFunction, params: DeformationParams,
                  dim: int) -> tuple[np.ndarray, int]:
    """M_n = pi * integral x**n Wt dx / |[n]|! for n < dim, by panel doubling.

    Uses the shared ``adaptive_gl`` rule with 64-node panels on the scaled
    integrand pi * x**n * Wt / |[n]|!: doubling stops when two successive
    sweeps of the full ratio vector M agree in sup norm to
    ``1e-8 * max(|M|, 1)``. Reaching 4096 panels (12 doublings) raises
    QuadratureError (the weight representation is too coarse for x**n).
    """
    seq = qp_sequence(dim, params)
    if seq.resonance_index is not None and seq.resonance_index < dim:
        raise RootOfUnityDegeneracyError(seq.resonance_index)
    upper = _integration_upper(weight, dim)
    powers = np.arange(dim)
    scale = math.pi / seq.abs_factorials[:dim]

    def f(xs: np.ndarray, ws: np.ndarray) -> np.ndarray:
        return (scale[:, None] * xs[None, :] ** powers[:, None]
                * weight.evaluate(xs)[None, :]) @ ws

    try:
        return adaptive_gl(f, 0.0, upper, rtol=1e-8, max_doublings=12)
    except QuadratureError:
        raise QuadratureError(
            "moment ratios did not stabilize at rtol=1e-08 within 4096 panels"
        ) from None


def resolution_residual(weight: WeightFunction, params: DeformationParams,
                        dim: int) -> float:
    """max_n |M_n - 1| over n < dim; zero means the identity is resolved."""
    ratios, _ = moment_ratios(weight, params, dim)
    return float(np.max(np.abs(ratios - 1.0)))


def identity_matrix_2d(weight: WeightFunction, params: DeformationParams,
                       dim: int) -> np.ndarray:
    """Coarse full polar quadrature of the reconstructed identity operator.

    Cross-checks the reduced radial form: the angular trapezoid sum over
    4 dim angles is exact for the harmonics in play, so off-diagonal entries
    should vanish and the diagonal should match moment_ratios within
    quadrature error. The radial rule is 4 panels of 32 nodes.
    """
    K = 4 * dim
    seq = qp_sequence(dim, params)
    if seq.resonance_index is not None and seq.resonance_index < dim:
        raise RootOfUnityDegeneracyError(seq.resonance_index)
    upper = _integration_upper(weight, dim)
    r_max = math.sqrt(upper)
    rs, ws = panel_nodes(0.0, r_max, 4, 32)
    g = ws * rs * weight.evaluate(rs ** 2)

    sigma = _running_products(np.sqrt(seq.numbers[1:dim]))
    A = rs[None, :] ** np.arange(dim)[:, None] / sigma[:, None]

    radial = (np.conj(A) * g[None, :]) @ A.T
    theta = 2.0 * math.pi * np.arange(K) / K
    phases = np.exp(1j * np.outer(np.arange(dim), theta))
    angular = (2.0 * math.pi / K) * (np.conj(phases) @ phases.T)
    return radial * angular


# ----------------------------------------------------------------------
# export


def weight_to_csv(weight: WeightFunction, params: DeformationParams,
                  file_or_path) -> None:
    """Columns x, wtilde, w_physical (plus wtilde_imag for Fourier results)."""
    phys = physical_weight(weight, params)
    imag = weight.diagnostics.get("grid_imag")
    with open_output(file_or_path) as fh:
        header = "x,wtilde,w_physical"
        if imag is not None:
            header += ",wtilde_imag"
        fh.write(header + "\n")
        columns = [weight.grid_x, weight.grid_w, phys.grid_w]
        if imag is not None:
            columns.append(imag)
        # Python floats format as numpy's do, and faster
        for row in zip(*(c.tolist() for c in columns)):
            fh.write(",".join(map(format_float, row)) + "\n")


def weight_to_json(weight: WeightFunction, file_or_path) -> None:
    upper = weight.support[1]
    payload = {
        "method": weight.method.value,
        "basis": weight.basis.value if weight.basis else None,
        "support": [weight.support[0], upper if math.isfinite(upper) else None],
        "coefficients": None if weight.coeffs is None else
            [format_float(c) for c in weight.coeffs],
        "min_value": format_float(weight.min_value),
        "diagnostics": {
            k: (format_float(v) if isinstance(v, float) else v)
            for k, v in weight.diagnostics.items()
            if not isinstance(v, np.ndarray)
        },
        "grid": {
            "x": list(map(format_float, weight.grid_x.tolist())),
            "wtilde": list(map(format_float, weight.grid_w.tolist())),
        },
    }
    with open_output(file_or_path) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
