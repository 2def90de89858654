"""The two special functions of the torsion Mellin integrals.

    E1(x)       = int_x^inf e^{-u} du / u  = Gamma(0, x)   (x > 0)
    Gamma(p, x) = int_x^inf u^{p-1} e^{-u} du              (p > 0, x > 0)

Each is a power series below a crossover and the continued fraction of
Gamma(p, x) above it (Abramowitz & Stegun 5.1.11 and 5.1.22 for E1, 6.5.29
and 6.5.31 for the incomplete gamma function), each summed until its
terms change the result by less than 1e-15 relative.  Both take an array
of x and return one value per entry, as a function of time takes an array
of times and returns one value per time; each entry stops at its own
convergence, so an array gives what each entry gives alone.
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.5772156649015329
# a relative step of a few rounding units: a continued fraction's last
# factors hover there instead of reaching exactly one
_TOL = 1e-15
_MAX_TERMS = 1000


def exp1(x) -> np.ndarray:
    """E1 at every entry of the array x > 0."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ValueError("E1 needs x > 0")
    out = np.empty_like(x)
    lo = x <= 1
    s = x[lo]
    # -gamma - log x - sum_{k>=1} (-x)^k / (k k!); the 20th term is 2e-20 at x = 1
    term, acc = np.ones_like(s), np.zeros_like(s)
    for k in range(1, 21):
        term *= -s / k
        acc += term / k
    out[lo] = -EULER_GAMMA - np.log(s) - acc
    out[~lo] = np.exp(-x[~lo]) * _upper_gamma_fraction(0.0, x[~lo])
    return out


def upper_gamma(p: float, x) -> np.ndarray:
    """Gamma(p, x) at every entry of the array x > 0."""
    x = np.asarray(x, dtype=float)
    if not (p > 0 and np.all(x > 0)):
        raise ValueError("Gamma(p, x) needs p > 0 and x > 0")
    out = np.exp(p * np.log(x) - x, out=np.empty_like(x))  # x^p e^{-x}, an array for any x
    hi = x >= p + 1
    out[hi] *= _upper_gamma_fraction(p, x[hi])
    # Gamma(p) minus the lower function's series x^p e^{-x} sum x^k / (p)_{k+1}
    s = x[~hi]
    term, acc = np.full_like(s, 1.0 / p), np.full_like(s, 1.0 / p)
    active = np.ones_like(s, dtype=bool)
    for k in range(1, _MAX_TERMS):
        term *= s / (p + k)
        acc += np.where(active, term, 0.0)
        active &= term >= acc * _TOL
        if not active.any():
            out[~hi] = math.gamma(p) - out[~hi] * acc
            return out
    raise ArithmeticError(f"the Gamma({p}, x) series did not converge")


def _upper_gamma_fraction(p: float, x: np.ndarray) -> np.ndarray:
    """e^x x^{-p} Gamma(p, x) at every entry of the array x >= p + 1.

    The continued fraction 1/(x+1-p - 1(1-p)/(x+3-p - 2(2-p)/(x+5-p - ...)))
    by the modified Lentz iteration.  Its partial denominators a d + b stay
    positive for 0 <= p <= 3 and x >= p + 1 (checked numerically up to
    x = 1e5), so the iteration needs no zero guard.
    """
    b = x + 1.0 - p
    d = 1.0 / b
    c = math.inf
    h = d
    active = np.ones_like(x, dtype=bool)
    for i in range(1, _MAX_TERMS):
        a = -i * (i - p)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= np.where(active, delta, 1.0)
        active &= np.abs(delta - 1.0) > _TOL
        if not active.any():
            return h
    raise ArithmeticError(f"the Gamma({p}, x) continued fraction did not converge")
