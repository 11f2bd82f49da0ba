"""Output checks computed apart from the program.

Every reference here is built from the definitions in mpmath (or from a
closed form), never by calling qpcoherent:

* [n] = (q**n - p**(-n)) / (q - 1/p), n on the classical point q = p = 1;
* R = 1 / |q - 1/p|;
* the moments-route weight is the unique polynomial of the given degree on
  [0, R] whose first moments are |[n]|!/pi (solved as a Hilbert system);
* sum x**n / |[n]|! is the Euler product 1/((1-q)x; q)_inf for real quons,
  exp(x) at q = p = 1 and an mpmath sum with a certified tail otherwise;
* the Fourier-route weight is the damped, windowed transform of
  Wbar(y) = sum |[n]|! (iy)**n / (pi n!) summed in mpmath.

``check(op, out, deep)`` raises CheckFailure when an output is wrong;
``deep`` selects the slow references (a seeded sample of operations).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math

import mpmath as mp
import numpy as np

EPS = 2.0 ** -52
DPS = 30


class CheckFailure(AssertionError):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


# ----------------------------------------------------------------------
# references


def _mpc(z: complex):
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def _degenerate(q: complex, p: complex) -> bool:
    return _mpc(q) * _mpc(p) == 1


def radius(q: complex, p: complex) -> float:
    """R = 1/|q - 1/p|; inf on the degenerate set."""
    if _degenerate(q, p):
        return math.inf
    with mp.workdps(DPS):
        return float(1 / abs(_mpc(q) - 1 / _mpc(p)))


def numbers(q: complex, p: complex, count: int) -> list:
    """[1], ..., [count] as mpc at the working precision."""
    qq, pp = _mpc(q), _mpc(p)
    out = []
    if _degenerate(q, p):
        qn = mp.mpc(1)
        for n in range(1, count + 1):
            out.append(n * qn)
            qn *= qq
        return out
    denom = qq - 1 / pp
    qn, pn = mp.mpc(1), mp.mpc(1)
    for _ in range(count):
        qn *= qq
        pn /= pp
        out.append((qn - pn) / denom)
    return out


def _convergent_base(q: complex, p: complex) -> float:
    """|w| with |[n]| = R |1 - w**n| in the two convergent regimes.

    With |p| = 1, w = qp; with |q| = 1, w = 1/(qp). Either way |[k]| >=
    R (1 - |w|**k), the lower bound the series tails below rely on.
    """
    if abs(abs(p) - 1.0) < 1e-12:
        w = abs(q * p)
    elif abs(abs(q) - 1.0) < 1e-12:
        w = 1.0 / abs(q * p)
    else:
        raise ValueError("reference series only cover |q| = 1 or |p| = 1")
    if not w < 1.0:
        raise ValueError("reference series need |w| < 1")
    return w


def series_exp(x: complex, q: complex, p: complex, use_abs: bool,
               rel: float = 1e-20) -> complex:
    """sum x**n/[n]! (or /|[n]|!) with a certified geometric tail."""
    degenerate = _degenerate(q, p)
    with mp.workdps(DPS):
        xx = _mpc(x)
        ax = abs(xx)
        if not degenerate:
            w = _convergent_base(q, p)
            R = 1 / abs(_mpc(q) - 1 / _mpc(p))
        qq, pp = _mpc(q), _mpc(p)
        denom = None if degenerate else qq - 1 / pp
        qn, pn = mp.mpc(1), mp.mpc(1)
        term = mp.mpc(1)
        total = mp.mpc(1)
        n = 0
        while True:
            n += 1
            if degenerate:
                num = n * qn
                qn *= qq
            else:
                qn *= qq
                pn /= pp
                num = (qn - pn) / denom
            term = term * xx / (abs(num) if use_abs else num)
            total += term
            lower = (n + 1) if degenerate else R * (1 - mp.mpf(w) ** (n + 1))
            rho = ax / lower
            if rho < 1 and abs(term) * rho / (1 - rho) <= rel * abs(total):
                return complex(total)


def exp2_real(xs, q: complex, p: complex) -> list[float]:
    """sum x**n/|[n]|! at real x >= 0."""
    if complex(p) == 1 and complex(q).imag == 0 and 0 < complex(q).real < 1:
        qr = complex(q).real
        with mp.workdps(DPS):
            return [float(1 / mp.qp((1 - mp.mpf(qr)) * mp.mpf(x), mp.mpf(qr)))
                    for x in xs]
    return [series_exp(x, q, p, use_abs=True).real for x in xs]


@functools.lru_cache(maxsize=None)
def _hilbert_inverse(d1: int):
    # moments of t**k on [0, 1]: H[n, k] = 1 / (n + k + 1)
    with mp.workdps(60):
        return mp.inverse(mp.matrix([[mp.mpf(1) / (n + k + 1) for k in range(d1)]
                                     for n in range(d1)]))


def moment_weight(q: complex, p: complex, degree: int, xs) -> list[float]:
    """Polynomial on [0, R] whose moments 0..degree equal |[n]|!/pi."""
    d1 = degree + 1
    with mp.workdps(60):
        R = 1 / abs(_mpc(q) - 1 / _mpc(p))
        mu = [mp.mpf(1)]
        for v in numbers(q, p, degree):
            mu.append(mu[-1] * abs(v))
        # W(R t) = sum_k a_k t**k with sum_k a_k / (n + k + 1) = mu_n / (pi R**(n+1))
        rhs = mp.matrix([mu[n] / (mp.pi * R ** (n + 1)) for n in range(d1)])
        a = _hilbert_inverse(d1) * rhs
        coeffs = [a[k] for k in reversed(range(d1))]
        return [float(mp.polyval(coeffs, mp.mpf(x) / R)) for x in xs]


def fourier_weight(q: complex, p: complex, y_cut: float, damping: float,
                   xs, nodes: int = 40) -> np.ndarray:
    """(1/2pi) Re integral_{-Y}^{Y} exp(-iyx - eps y^2) Wbar(y) dy.

    Wbar is summed in mpmath at every node of a composite Gauss-Legendre rule
    the program does not use: 40 nodes per panel, one panel per 8 radians of
    the phase y x (at least 8 panels). The classical point uses the closed
    form 1/(pi (1 - iy)).
    """
    xs = np.asarray(xs, dtype=float)
    panels = max(8, math.ceil(2 * y_cut * float(np.max(xs)) / 8))
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(-y_cut, y_cut, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    ys = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    ws = (half[:, None] * gw[None, :]).ravel()
    if _degenerate(q, p):
        wbar = 1.0 / (math.pi * (1.0 - 1j * ys))
    else:
        with mp.workdps(DPS):
            R = 1 / abs(_mpc(q) - 1 / _mpc(p))
            mags = [abs(v) for v in numbers(q, p, 200)]
            tiny = mp.mpf(10) ** -22
            wbar = np.empty(len(ys), dtype=complex)
            for i, y in enumerate(ys):
                # term n is i**n * |[n]|! y**n / (pi n!): sum the real
                # magnitudes into the real or imaginary part by n mod 4
                yy = mp.mpf(y)
                term = 1 / mp.pi
                parts = [term, mp.mpf(0), mp.mpf(0), mp.mpf(0)]
                for n, m in enumerate(mags, start=1):
                    term = term * yy * m / n
                    parts[n % 4] += term
                    if R * abs(y) / (n + 1) < 0.5 and abs(term) < tiny:
                        break
                else:
                    raise CheckFailure("reference Wbar sum did not settle")
                wbar[i] = complex(parts[0] - parts[2], parts[1] - parts[3])
    f = ws * np.exp(-damping * ys ** 2) * wbar
    return (np.exp(-1j * np.outer(xs, ys)) @ f).real / (2.0 * math.pi)


# ----------------------------------------------------------------------
# output parsers


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    require(len(rows) >= 1, "empty CSV output")
    return rows[0], rows[1:]


def _floats(column) -> np.ndarray:
    return np.array([float(v) for v in column])


def sample_indices(n: int, count: int = 12) -> list[int]:
    """Spread indices over 0..n-1, always including both ends."""
    return sorted({int(round(v)) for v in np.linspace(0, n - 1, count)})


# ----------------------------------------------------------------------
# per-kind checks


def check_weight(spec: dict, out: str, deep: bool) -> None:
    q, p, grid = spec["q"], spec["p"], spec["grid"]
    header, rows = parse_csv(out)
    require(header == ["x", "wtilde", "w_physical"], f"weight header {header}")
    require(len(rows) == grid, f"{len(rows)} rows, expected {grid}")
    x = _floats(r[0] for r in rows)
    wt = _floats(r[1] for r in rows)
    wp = _floats(r[2] for r in rows)
    classical = _degenerate(q, p)
    R = radius(q, p)
    x_ref = np.linspace(0.0, 24.0, grid) if classical else \
        np.linspace(0.0, R, grid, endpoint=False)
    span = float(x_ref[-1])
    require(np.max(np.abs(x - x_ref)) <= 8 * EPS * max(span, 1.0),
            "x column is not the expected grid")
    idx = sample_indices(grid)
    if classical:
        ref = np.exp(-x_ref) / math.pi
        err = np.max(np.abs(wt - ref))
        require(err <= 1e-11 / math.pi, f"wtilde off exp(-x)/pi by {err:.3e}")
    else:
        ref = np.array(moment_weight(q, p, 12, x_ref[idx]))
        scale = float(np.max(np.abs(ref)))
        err = float(np.max(np.abs(wt[idx] - ref)))
        require(err <= 1e-7 * scale,
                f"wtilde off the moment solve by {err:.3e} (max {scale:.3e})")
    # whenever w_physical is checked, the edge point x = R (1 - 1/G) is too
    if classical:
        pts = list(range(grid))
        E = np.exp(x_ref)
    else:
        if complex(p) == 1 and complex(q).imag == 0:
            pts = idx
        elif deep:
            pts = [0, grid // 4, grid // 2, grid - 1]
        else:
            return
        E = np.array(exp2_real([float(x_ref[i]) for i in pts], q, p))
    target = wt[pts] * E
    err = np.abs(wp[pts] - target) / np.maximum(np.abs(target), 1e-300)
    worst = float(np.max(err))
    require(worst <= 1e-8,
            f"w_physical/wtilde off sum x^n/|[n]|! by {worst:.3e} relative")


def check_fourier(spec: dict, out: str, deep: bool) -> None:
    q, p, grid = spec["q"], spec["p"], spec["grid"]
    payload = json.loads(out)
    require(payload["method"] == "FourierInversion", "method is not Fourier")
    x = _floats(payload["grid"]["x"])
    wt = _floats(payload["grid"]["wtilde"])
    require(len(x) == grid and len(wt) == grid, "grid length")
    R = radius(q, p)
    span = 20.0 if math.isinf(R) else R
    x_ref = np.linspace(0.0, span, grid, endpoint=False)
    require(np.max(np.abs(x - x_ref)) <= 8 * EPS * span,
            "x column is not the expected grid")
    require(np.all(np.isfinite(wt)), "non-finite wtilde")
    if deep:
        idx = [0, grid // 7, grid // 3, (3 * grid) // 5, grid - 1]
        ref = fourier_weight(q, p, spec["y_cut"], spec["damping"], x_ref[idx])
        # the program's own accuracy: adaptive_gl at rtol 1e-6 on 2 pi W~,
        # relative to max(|2 pi W~|, 1)
        tol = 1e-6 * max(2 * math.pi * float(np.max(np.abs(wt))), 1.0) / (2 * math.pi)
        err = float(np.max(np.abs(wt[idx] - ref)))
        require(err <= tol,
                f"wtilde off the mpmath transform by {err:.3e} > {tol:.3e}")


def _regime_name(q: complex, p: complex) -> str:
    if _degenerate(q, p):
        return "Degenerate"
    return "RegimeI" if abs(abs(p) - 1.0) < 1e-12 else "RegimeII"


def check_verify(spec: dict, out: str, deep: bool) -> None:
    header, rows = parse_csv(out)
    require(header == ["check", "value", "threshold", "passed", "note"],
            f"verify header {header}")
    names = [r[0] for r in rows]
    require(names == ["regime", "fock_relations", "normalization", "annihilator",
                      "continuity", "overlap_consistency", "moment_residuals",
                      "resolution_residual"], f"verify rows {names}")
    require(rows[0][4] == _regime_name(spec["q"], spec["p"]),
            f"regime note {rows[0][4]!r}")
    for name, value, threshold, passed, _ in rows:
        require(passed == "true", f"verify row {name} did not pass")
        if value and threshold:
            require(abs(float(value)) <= float(threshold),
                    f"verify row {name}: {value} > {threshold}")


def check_coherent(spec: dict, out: str, deep: bool) -> None:
    header, rows = parse_csv(out)
    require(len(rows) == 1, "coherent prints one row")
    row = dict(zip(header, rows[0]))
    z = spec["z"]
    E = series_exp(abs(z) ** 2, spec["q"], spec["p"], use_abs=True).real
    ref = 1.0 / math.sqrt(E)
    got = float(row["norm_const"])
    require(abs(got - ref) <= 1e-11 * ref,
            f"norm_const {got!r} vs 1/sqrt(E(|z|^2)) {ref!r}")
    require(abs(float(row["norm_sq"]) - 1.0) <= 1e-10, "state is not normalized")
    require(float(row["annihilator_residual"]) <= 1e-10, "a|z> != z|z>")


def check_exp(spec: dict, out: str, deep: bool) -> None:
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    require(row["verdict"] == "Converged", f"exp verdict {row['verdict']}")
    ref = series_exp(spec["x"], spec["q"], spec["p"], use_abs=spec["which"] == 2)
    got = complex(float(row["value_re"]), float(row["value_im"]))
    require(abs(got - ref) <= 1e-10 * max(abs(ref), 1.0),
            f"exp value {got} vs reference {ref}")


def check_qnum(spec: dict, out: str, deep: bool) -> None:
    header, rows = parse_csv(out)
    nmax = spec["nmax"]
    require(len(rows) == nmax + 1, "qnum row count")
    with mp.workdps(DPS):
        nums = [mp.mpc(0)] + numbers(spec["q"], spec["p"], nmax)
        fact = mp.mpc(1)
        afact = mp.mpf(1)
        for n, row in enumerate(rows):
            r = dict(zip(header, row))
            require(int(r["n"]) == n, "qnum index column")
            if n:
                fact *= nums[n]
                afact *= abs(nums[n])
            for name, ref in (("number", nums[n]), ("factorial", fact)):
                got = complex(float(r[name + "_re"]), float(r[name + "_im"]))
                require(abs(got - complex(ref)) <= 1e-11 * max(float(abs(ref)), 1e-300),
                        f"qnum {name}[{n}] {got} vs {complex(ref)}")
            got = float(r["abs_factorial"])
            require(abs(got - float(afact)) <= 1e-11 * float(afact),
                    f"qnum abs_factorial[{n}]")


def check_fock(spec: dict, out: str, deep: bool) -> None:
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    dim = spec["dim"]
    require(int(row["dim"]) == dim and int(row["block_dim"]) == dim - 1,
            "fock-check dims")
    with mp.workdps(DPS):
        scale = max(1.0, max(float(abs(v)) for v in numbers(spec["q"], spec["p"], dim)))
    bound = 32 * EPS * scale ** 1.5
    for name in ("residual_qmutation", "residual_delta_comm",
                 "residual_adag_comm", "residual_qp"):
        require(float(row[name]) <= bound,
                f"{name} {row[name]} above rounding level {bound:.2e}")


def check_prop2(spec: dict, out: str, deep: bool) -> None:
    header, rows = parse_csv(out)
    require(header == ["q_re", "q_im", "p_re", "p_im", "regime", "v_exp1",
                       "v_exp2", "v_wbar", "ratio_estimates"],
            f"regime header {header}")
    points = spec["points"]
    require(len(rows) == len(points), "one row per grid point")
    for (stratum, q, p), row in zip(points, rows):
        got_q = complex(float(row[0]), float(row[1]))
        got_p = complex(float(row[2]), float(row[3]))
        require(got_q == q and got_p == p, "row order or parameters changed")
        verdicts = row[5:8]
        if stratum in ("RegimeI", "RegimeII"):
            require(row[4] == stratum, f"{q},{p} classified {row[4]}")
            require("Divergent" not in verdicts,
                    f"convergent-regime point {q},{p} got {verdicts}")
            est = float(row[8].split(";")[0])
            require(abs(est - 0.5) <= 1e-3,
                    f"exp ratio at x = R/2 is {est}, limit 1/2")
        else:
            require(row[4] == "Outside", f"{q},{p} classified {row[4]}")
            require("Divergent" in verdicts,
                    f"outside point {q},{p} has no Divergent verdict {verdicts}")


def check_prop1(spec: dict, rows: list, deep: bool) -> None:
    require(len(rows) == len(spec["y"]), "one row per y sample")
    for row, y in zip(rows, spec["y"]):
        require(row.Q == spec["Q"] and row.y == y, "row parameters changed")
        require(row.skipped is None, "off-circle Q was skipped")
        require(row.expected.value == "Divergent", "|Q| != 1 must be expected Divergent")
        require(row.verdict is not None and row.verdict.value == "Divergent",
                f"Q = {row.Q}, y = {y}: verdict {row.verdict}")
        require(row.consistent, "row not consistent")


CHECKS = {
    "weight_quon": check_weight,
    "weight_regime_i": check_weight,
    "weight_regime_ii": check_weight,
    "weight_classical": check_weight,
    "fourier_quon": check_fourier,
    "fourier_classical": check_fourier,
    "verify": check_verify,
    "coherent": check_coherent,
    "exp": check_exp,
    "qnum": check_qnum,
    "fock_check": check_fock,
    "prop2": check_prop2,
    "prop1": check_prop1,
}


def check(op, out, deep: bool) -> None:
    try:
        CHECKS[op.kind](op.spec, out, deep)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CheckFailure(f"malformed output: {exc!r}") from None
