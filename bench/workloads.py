"""Seeded inputs for the four benchmark workloads.

A workload is a fixed sequence of operation kinds (one *round*); every draw
inside a round comes from a continuous range, so no operation repeats within
a run and a cache keyed on (q, p) gains nothing from the loop running in one
process. Every run executes whole rounds, so the mix of kinds is the same on
every run whatever the seed and the run length.

An operation is either a CLI call (``argv`` for ``qpcoherent.cli.main``) or
a library call (``regime_sweep``). ``spec`` carries the drawn inputs the
output checks need; the program itself only ever sees ``argv`` or the
parameter grid.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import random
from typing import Callable


@dataclasses.dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...] = ()
    spec: dict = dataclasses.field(default_factory=dict)
    points: int = 1
    #: run the slow references of checks.py on this op in the first round
    deep: bool = True


def literal(z: complex) -> str:
    """A complex literal that ``complex()`` reads back to the same doubles."""
    z = complex(z)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}j"


def _phase(rng: random.Random) -> float:
    return rng.uniform(-math.pi, math.pi)


def _on_circle(rng: random.Random, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), _phase(rng))


def _pq_args(q: complex, p: complex) -> tuple[str, str]:
    return f"--q={literal(q)}", f"--p={literal(p)}"


# ----------------------------------------------------------------------
# draws shared by the CLI workloads


def _regime_i(rng, q_lo, q_hi):
    return _on_circle(rng, q_lo, q_hi), cmath.rect(1.0, _phase(rng))


def _regime_ii(rng, p_lo, p_hi):
    return cmath.rect(1.0, _phase(rng)), _on_circle(rng, p_lo, p_hi)


CLASSICAL = (1 + 0j, 1 + 0j)


# ----------------------------------------------------------------------
# weight_grid: `weight` on the moments route, CSV output

WEIGHT_GRID_SIZES = (129, 257, 513)


def _weight_op(kind, q, p, grid, deep=False):
    argv = ("weight", *_pq_args(q, p), f"--grid-points={grid}")
    return Op(kind, argv, {"q": q, "p": p, "grid": grid}, points=grid,
              deep=deep)


def weight_grid_round(rng: random.Random) -> list[Op]:
    # cost grows with G, so the calls form one cluster per size. Short bursts
    # of faster machine speed pull a minority of calls below their cluster,
    # which moves a quantile near a cluster's bottom; with 2 cheap calls and
    # 4 + 4 draws, the median sits 3/4 up the G = 257 cluster and the 90th
    # percentile 3/4 up the G = 513 cluster
    draws = {"weight_quon": lambda: (complex(rng.uniform(0.3, 0.7)), 1 + 0j),
             "weight_regime_i": lambda: _regime_i(rng, 0.3, 0.7),
             "weight_regime_ii": lambda: _regime_ii(rng, 1.2, 2.5)}
    plan = ((129, ("weight_regime_ii",)),
            (257, ("weight_quon", "weight_regime_i", "weight_regime_ii",
                   "weight_regime_i")),
            (513, ("weight_regime_i", "weight_regime_ii", "weight_quon",
                   "weight_regime_ii")))
    ops = []
    for grid, kinds in plan:
        for kind in kinds:
            # the mpmath exp2 reference costs about 70 terms per grid point,
            # so it runs on the first call of each kind at G = 513 only
            first = not any(op.kind == kind and op.spec["grid"] == grid
                            for op in ops)
            ops.append(_weight_op(kind, *draws[kind](), grid,
                                  deep=first and grid == WEIGHT_GRID_SIZES[-1]))
    ops.append(_weight_op("weight_classical", *CLASSICAL,
                          rng.choice(WEIGHT_GRID_SIZES)))
    return ops


# ----------------------------------------------------------------------
# fourier_inversion: `weight --method fourier --format json`

FOURIER_GRID_SIZES = (513, 1025)


def _fourier_op(kind, q, y_cut, damping, grid):
    argv = ("weight", "--method=fourier", "--format=json", *_pq_args(q, 1),
            f"--ycut={y_cut!r}", f"--damping={damping!r}",
            f"--grid-points={grid}")
    return Op(kind, argv, {"q": q, "p": 1 + 0j, "y_cut": y_cut,
                           "damping": damping, "grid": grid}, points=grid)


def fourier_round(rng: random.Random) -> list[Op]:
    ops = []
    for grid in FOURIER_GRID_SIZES:
        for _ in range(2):
            q = rng.uniform(0.3, 0.6)
            radius = 1.0 / (1.0 - q)
            # R * y_cut <= 24 keeps the Wbar cancellation below the noise gate
            ops.append(_fourier_op("fourier_quon", complex(q),
                                   rng.uniform(12.0, 24.0) / radius,
                                   rng.uniform(1e-2, 3e-2), grid))
        ops.append(_fourier_op("fourier_classical", 1 + 0j,
                               rng.uniform(8.0, 24.0),
                               rng.uniform(1e-2, 3e-2), grid))
    return ops


# ----------------------------------------------------------------------
# klauder_verify: mostly `verify`, plus coherent / fock-check / exp / qnum


def _klauder_params(rng, which):
    if which == 0:
        return _regime_i(rng, 0.1, 0.8)
    if which == 1:
        return _regime_ii(rng, 1.2, 2.5)
    return CLASSICAL


def _radius(q, p):
    d = abs(q - 1 / p)
    return math.inf if d == 0 else 1.0 / d


#: verify's moment-ratio audit needs 256 to 4096 panels (the cap) below
#: R = 0.65, where q p is near -1; such points are left out (see README)
VERIFY_MIN_RADIUS = 0.7


def klauder_round(rng: random.Random) -> list[Op]:
    ops = []
    for which in (0, 1, 0, 1, 2):
        q, p = _klauder_params(rng, which)
        while _radius(q, p) < VERIFY_MIN_RADIUS:
            q, p = _klauder_params(rng, which)
        dim = rng.randint(12, 32)
        ops.append(Op("verify", ("verify", *_pq_args(q, p), f"--dim={dim}"),
                      {"q": q, "p": p, "dim": dim}))
    # the minority kinds rotate through the three parameter families
    fam = rng.randrange(3)
    q, p = _klauder_params(rng, fam)
    span = min(_radius(q, p), 4.0)
    z = cmath.rect(math.sqrt(rng.uniform(0.05, 0.8) * span), _phase(rng))
    ops.append(Op("coherent", ("coherent", *_pq_args(q, p), f"--z={literal(z)}"),
                  {"q": q, "p": p, "z": z}))
    q, p = _klauder_params(rng, (fam + 1) % 3)
    dim = rng.randint(50, 200)
    ops.append(Op("fock_check", ("fock-check", *_pq_args(q, p), f"--dim={dim}"),
                  {"q": q, "p": p, "dim": dim}))
    q, p = _klauder_params(rng, (fam + 2) % 3)
    span = min(_radius(q, p), 4.0)
    x = cmath.rect(rng.uniform(0.05, 0.7) * span, _phase(rng))
    which = rng.choice((1, 2))
    ops.append(Op("exp", ("exp", *_pq_args(q, p), f"--x={literal(x)}",
                          f"--which={which}"),
                  {"q": q, "p": p, "x": x, "which": which}))
    q, p = _klauder_params(rng, fam)
    nmax = rng.randint(10, 40)
    ops.append(Op("qnum", ("qnum", *_pq_args(q, p), f"--nmax={nmax}"),
                  {"q": q, "p": p, "nmax": nmax}))
    return ops


# ----------------------------------------------------------------------
# regime_sweep: library proposition checks, no CLI

# points per stratum of one 60-point sweep grid
_STRATA = (("RegimeI", 18), ("RegimeII", 12), ("q_out_p_unit", 8),
           ("both_inside", 8), ("q_in_p_out", 8), ("both_out", 6))
MARGIN = 0.1


def _stratum_point(rng, stratum):
    if stratum == "RegimeI":
        return _regime_i(rng, 0.1, 1.0 - MARGIN)
    if stratum == "RegimeII":
        return _regime_ii(rng, 1.0 + MARGIN, 2.5)
    while True:
        if stratum == "q_out_p_unit":
            q, p = _on_circle(rng, 1.0 + MARGIN, 2.0), cmath.rect(1.0, _phase(rng))
        elif stratum == "both_inside":
            q, p = _on_circle(rng, 0.2, 1.0 - MARGIN), _on_circle(rng, 0.2, 1.0 - MARGIN)
        elif stratum == "q_in_p_out":
            q, p = _on_circle(rng, 0.2, 1.0 - MARGIN), _on_circle(rng, 1.0 + MARGIN, 2.5)
        else:
            q, p = _on_circle(rng, 1.0 + MARGIN, 2.0), _on_circle(rng, 1.0 + MARGIN, 2.5)
        # keep away from the degenerate set q p = 1 and from |q p| = 1, where
        # (q p)**n can come back near 1 and the ratio test is not decisive
        if abs(q * p - 1.0) >= MARGIN and abs(abs(q * p) - 1.0) >= MARGIN:
            return q, p


#: ratio-test ordinates of the sweeps; the longer set costs about 7/4 as
#: much, so the median falls 3/4 up the cluster of the shorter one (the same
#: placement as in weight_grid_round)
SWEEP_Y = ((0.5, 1.0, 2.0), (0.25, 0.5, 1.0, 1.5, 2.0, 3.0))


def regime_round(rng: random.Random) -> list[Op]:
    ops = []
    for y in SWEEP_Y + SWEEP_Y:
        points = [(s, *_stratum_point(rng, s)) for s, n in _STRATA for _ in range(n)]
        rng.shuffle(points)
        ops.append(Op("prop2", spec={"points": points, "y": y},
                      points=len(points)))
    modulus = rng.choice((rng.uniform(0.5, 0.9), rng.uniform(1.1, 2.0)))
    ops.append(Op("prop1", spec={"Q": cmath.rect(modulus, _phase(rng)),
                                 "y": SWEEP_Y[0]}))
    return ops


# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Workload:
    make_round: Callable[[random.Random], list[Op]]
    warmup: Op


WORKLOADS = {
    "weight_grid": Workload(
        weight_grid_round,
        _weight_op("weight_quon", 0.5 + 0j, 1 + 0j, 257)),
    "fourier_inversion": Workload(
        fourier_round,
        _fourier_op("fourier_quon", 0.5 + 0j, 12.0, 2e-2, 513)),
    "klauder_verify": Workload(
        klauder_round,
        Op("verify", ("verify", "--q=0.5", "--p=1", "--dim=20"),
           {"q": 0.5 + 0j, "p": 1 + 0j, "dim": 20})),
    "regime_sweep": Workload(
        regime_round,
        Op("prop2", spec={"points": [("RegimeI", 0.5 + 0j, 1 + 0j),
                                     ("RegimeII", 1j, 2 + 0j),
                                     ("both_inside", 0.5 + 0j, 0.5j)],
                          "y": SWEEP_Y[0]},
           points=3)),
}
