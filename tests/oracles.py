"""Arbitrary-precision reference implementations, independent of the library.

Everything here is written directly from the defining formulas with mpmath
and brute-force partial sums; nothing imports the package under test.
"""

import mpmath as mp

mp.mp.dps = 60


def ref_number(n, q, p):
    q, p = mp.mpc(q), mp.mpc(p)
    if n == 0:
        return mp.mpc(0)
    if abs(q - 1 / p) < mp.mpf("1e-40"):
        return n * q ** (n - 1)
    return (q ** n - p ** (-n)) / (q - 1 / p)


def running_factorials(terms, q, p, use_abs=False):
    """Pairs (n, [n]!) (or (n, |[n]|!)) for n < terms.

    One running product of [1], [2], ... (or their moduli) from 1, so the
    whole table costs O(terms) multiplications.
    """
    f = mp.mpf(1) if use_abs else mp.mpc(1)
    for n in range(terms):
        if n:
            number = ref_number(n, q, p)
            f *= abs(number) if use_abs else number
        yield n, f


def ref_exp1(x, q, p, terms=200):
    return complex(mp.fsum(mp.mpc(x) ** n / f
                           for n, f in running_factorials(terms, q, p)))


def ref_exp2(x, q, p, terms=200):
    return complex(mp.fsum(mp.mpc(x) ** n / f
                           for n, f in running_factorials(terms, q, p, True)))


def ref_wbar(y, q, p, terms=300):
    return complex(mp.fsum(f * mp.mpc(0, y) ** n / (mp.pi * mp.factorial(n))
                           for n, f in running_factorials(terms, q, p, True)))


def ref_exp2_to_small_terms(x, q, p, small=mp.mpf("1e-25")):
    """sum x**n/|[n]|! for real x >= 0 off the degenerate set, up to the first
    term below ``small`` times the total.

    [n] comes from the direct formula with running powers of q and 1/p, so a
    sum of many thousand terms stays cheap.
    """
    q, p, x = mp.mpc(q), mp.mpc(p), mp.mpf(x)
    denom = q - 1 / p
    qn = pn = term = total = mp.mpf(1)
    while True:
        qn, pn = qn * q, pn / p
        term *= x / abs((qn - pn) / denom)
        total += term
        if term < small * total:
            return total


def ref_exp2_certified(x, q, p, rel=mp.mpf("1e-25")):
    """sum x**n/|[n]|! to ``rel`` relative, for 0 <= x < R, |q| = 1, |qp| > 1.

    There |[k]| = R |1 - w**k| with w = 1/(qp) and R = 1/|q - 1/p|, so every
    k > n has R (1 - |w|**(n+1)) <= |[k]| <= R (1 + |w|**(n+1)) and the
    remainder after the term t_n lies between t_n x/(U - x) and
    t_n x/(L - x). The sum stops once that bracket is narrower than ``rel``
    relative and returns its midpoint.
    """
    q, p, x = mp.mpc(q), mp.mpc(p), mp.mpf(x)
    assert abs(q) == 1 and abs(q * p) > 1
    aw = 1 / abs(q * p)
    R = 1 / abs(q - 1 / p)
    term = total = mp.mpf(1)
    n = 0
    while True:
        n += 1
        term *= x / abs(ref_number(n, q, p))
        total += term
        lower, upper = R * (1 - aw ** (n + 1)), R * (1 + aw ** (n + 1))
        if lower > x:
            high, low = term * x / (lower - x), term * x / (upper - x)
            if high - low <= rel * total:
                return total + (high + low) / 2


def gamma_moment(n):
    """Direct quadrature of the n-th moment of exp(-x) on [0, inf)."""
    return float(mp.quad(lambda x: x ** n * mp.exp(-x), [0, mp.inf]))
