"""Byte identity and memory bounds of the Fourier route's kernels.

The chunked exp(-i x y) transform and the block Wbar kernel are checked
against in-test copies of the dense product and of the term-by-term loop
they replace. Results are compared with ``.tobytes()``: ``array_equal``
treats -0.0 and +0.0 as equal.
"""

import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest

from qpcoherent import (
    DeformationParams,
    RootOfUnityDegeneracyError,
    SeriesDivergenceError,
    weight_from_fourier,
)
from qpcoherent import unity
from qpcoherent._quad import panel_nodes
from qpcoherent.defexp import UNIT_MODULUS_TOL, SeriesControl
from qpcoherent.qnumbers import iter_numbers

CLASSICAL = DeformationParams(1.0, 1.0)


# ----------------------------------------------------------------------
# chunked transform


def dense_transform(x, ys, vals, ws):
    return (np.exp(-1j * np.outer(x, ys)) * vals) @ ws


@pytest.mark.parametrize("panels", (1, 2, 4, 16))
@pytest.mark.parametrize("block_bytes", (None, 1))
def test_chunked_transform_equals_dense_product(panels, block_bytes, monkeypatch):
    # block_bytes = 1 forces 4-row chunks, so every grid below is split
    if block_bytes is not None:
        monkeypatch.setattr(unity, "_BLOCK_BYTES", block_bytes)
    ys, ws = panel_nodes(-12.0, 12.0, panels, 64)
    vals = unity._wbar_values(ys, DeformationParams(0.5, 1.0))[0]
    vals = vals * np.exp(-2e-2 * ys ** 2)
    for G in (*range(1, 13), *range(63, 68), *range(513, 517), 1025, 1027):
        x = np.linspace(0.0, 2.0, G, endpoint=False)
        got = unity._transform(x, ys, vals, ws)
        assert got.tobytes() == dense_transform(x, ys, vals, ws).tobytes(), G


def test_phase_chunks_follow_the_four_row_rule(monkeypatch):
    monkeypatch.setattr(unity, "_BLOCK_BYTES", 1)
    for G in (*range(1, 40), 513, 1027):
        sizes = [rows.stop - rows.start
                 for rows, _ in unity._phase_chunks(np.zeros(G), np.zeros(64))]
        assert sum(sizes) == G
        if G < 8:
            assert sizes == [G]
        else:
            assert all(s % 4 == 0 for s in sizes[:-1])
            assert sizes[-1] >= 4 + G % 4


# ----------------------------------------------------------------------
# block Wbar kernel


def wbar_loop(y, params, ctrl):
    """The term-by-term Wbar loop the block kernel replaces: the sum and the
    index of the term where it stopped."""
    y = np.asarray(y, dtype=float)
    term = np.full(y.shape, 1.0 / math.pi, dtype=complex)
    total = term.copy()
    peak = np.full(y.shape, 1.0 / math.pi)
    streak = np.zeros(y.shape, dtype=int)
    iy = 1j * y
    for n, value in zip(range(1, ctrl.n_max + 1), iter_numbers(params)):
        if value == 0:   # a flagged [n]
            raise RootOfUnityDegeneracyError(n)
        term *= iy * (abs(value) / n)
        total += term
        at = np.abs(term)
        peak = np.maximum(peak, at)
        if np.max(at) > 1e140:
            # |[n]| stays bounded off the degenerate set where
            # max(|q|, 1/|p|) <= 1: the series converges and cancels
            rate = max(abs(params.q), 1.0 / abs(params.p))
            if params.is_degenerate or rate > 1.0 + UNIT_MODULUS_TOL:
                raise SeriesDivergenceError(
                    "Wbar series diverges for these parameters; no inverse transform"
                )
            raise SeriesDivergenceError(
                f"Wbar cancellation: terms pass 1e+140 at |y| up to "
                f"{float(np.max(np.abs(y))):.3g}; reduce y_cut"
            )
        small = at <= ctrl.tol * np.maximum(np.abs(total), 1.0)
        streak = np.where(small, streak + 1, 0)
        if n >= ctrl.min_terms and np.all(streak >= 2):
            noise = np.max(2.3e-16 * peak / np.maximum(np.abs(total), 1e-300))
            if noise > 1e-2:
                raise SeriesDivergenceError(
                    f"Wbar cancellation noise {noise:.2e} at |y| up to "
                    f"{float(np.max(np.abs(y))):.3g}; reduce y_cut"
                )
            return total, n
    raise SeriesDivergenceError(
        f"Wbar series not converged within {ctrl.n_max} terms"
    )


def outcome(fn, *args):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values, terms = fn(*args)
            return "value", values.tobytes(), terms
    except (SeriesDivergenceError, RootOfUnityDegeneracyError) as exc:
        return type(exc).__name__, str(exc)


def wbar_cases(count, seed=20261018):
    rng = random.Random(seed)
    for i in range(count):
        kind = rng.random()
        if kind < 0.5:      # real q, often a quon
            q = rng.uniform(-0.95, 0.95)
            p = rng.choice([1.0, rng.uniform(0.8, 1.5)])
        elif kind < 0.8:    # complex q inside the unit disk
            r, t = rng.uniform(0.0, 0.95), rng.uniform(0.0, 2 * math.pi)
            q = complex(r * math.cos(t), r * math.sin(t))
            p = complex(rng.uniform(0.9, 1.3), rng.uniform(-0.2, 0.2))
        else:               # mostly growing |[n]|: divergent series
            q, p = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        if i % 5 == 4:      # q p at a root of unity: [m] vanishes
            m = rng.randint(2, 40)
            p = cmath.exp(2j * math.pi * rng.randint(1, m - 1) / m) / q
        ctrl = rng.choice([
            SeriesControl(n_max=4000, tol=1e-12, min_terms=10),
            SeriesControl(n_max=rng.randint(10, 120), tol=1e-12, min_terms=10),
            SeriesControl(n_max=4000, tol=10 ** rng.uniform(-14, -6),
                          min_terms=rng.randint(1, 40)),
        ])
        yield (DeformationParams(q, p), rng.uniform(0.5, 30.0),
               rng.choice([1, 2, 4, 16]), ctrl, rng.choice([None, 1, 5000]))
    # |[n]| bounded (max(|q|, 1/|p|) <= 1) with R y_cut past about 330: the
    # convergent series' terms pass the 1e140 guard
    full = SeriesControl(n_max=4000, tol=1e-12, min_terms=10)
    for q, p, y_cut, block_bytes in ((0.9, 1.0, 60.0, None), (0.95, 1.0, 20.0, 1),
                                     (0.6 + 0.3j, 1.0, 200.0, 5000),
                                     (cmath.exp(0.7j), 1.5, 300.0, None)):
        yield DeformationParams(q, p), y_cut, 2, full, block_bytes


def test_block_wbar_equals_term_loop(monkeypatch):
    seen = set()
    for params, y_cut, panels, ctrl, block_bytes in wbar_cases(220):
        monkeypatch.setattr(unity, "_BLOCK_BYTES", block_bytes or (1 << 20))
        ys, _ = panel_nodes(-y_cut, y_cut, panels, 64)
        expected = outcome(wbar_loop, ys, params, ctrl)
        assert outcome(unity._wbar_values, ys, params, ctrl) == expected, (
            params, y_cut, panels, ctrl, block_bytes)
        seen.add(expected[1].split()[2] if expected[0] == "SeriesDivergenceError"
                 else expected[0])
    # the seeded cases reach every outcome of the kernel
    assert seen == {"value", "diverges", "terms", "noise", "not",
                    "RootOfUnityDegeneracyError"}


# ----------------------------------------------------------------------
# bounded memory


def test_fourier_route_memory_does_not_grow_with_panels():
    # a dense exp(-i x y) matrix here is 1025 x 16384 complex values: 268 MB
    xg = np.linspace(0.0, 20.0, 1025, endpoint=False)
    tracemalloc.start()
    try:
        w = weight_from_fourier(CLASSICAL, 400.0, 1e-4, xg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.diagnostics["panels"] == 256
    assert peak < 32e6
