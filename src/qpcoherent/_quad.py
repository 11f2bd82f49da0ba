"""Composite Gauss-Legendre quadrature shared by the weight-function code."""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import QuadratureError


@lru_cache(maxsize=8)
def _gl_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def panel_nodes(a: float, b: float, panels: int, nodes: int = 64):
    """All abscissas and weights for ``panels`` equal panels on [a, b]."""
    x, w = _gl_rule(nodes)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    xs = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return xs, ws


def adaptive_gl(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                a: float, b: float, *, rtol: float = 1e-8, max_doublings: int = 10):
    """Double the panel count until two sweeps agree; returns (value, panels).

    A sweep is ``f(xs, ws)`` on the abscissas and weights of 64-node panels;
    f returns the integral vector itself (typically ``values @ ws``), so it
    can reduce its values in pieces. Agreement is sup-norm against
    rtol * scale with scale = max(|I|, 1). Raises QuadratureError when the
    cap is reached.
    """
    panels = 1
    prev = np.asarray(f(*panel_nodes(a, b, panels)))
    for _ in range(max_doublings):
        panels *= 2
        cur = np.asarray(f(*panel_nodes(a, b, panels)))
        scale = max(float(np.max(np.abs(cur))), 1.0)
        if float(np.max(np.abs(cur - prev))) <= rtol * scale:
            return cur, panels
        prev = cur
    raise QuadratureError(
        f"no panel-doubling agreement at rtol={rtol:g} within {panels} panels"
    )
