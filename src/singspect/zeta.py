"""Riemann zeta and its derivative by Euler-Maclaurin summation.

    zeta(s) = sum_{k=1}^{N-1} k^{-s} + N^{1-s}/(s-1) + N^{-s}/2
              + sum_{j=1}^{J} B_{2j}/(2j)! * (s)_{2j-1} * N^{-s-2j+1}

with (s)_m = s (s+1) ... (s+m-1) and B the Bernoulli numbers; the derivative
is the same expansion differentiated term by term in s.  With N = 50 direct
terms and J = 10 corrections the truncation error is negligible for real
|s| <= 10, but the cancellation between the direct sum and the N^{1-s}
term reaches ~1e18 near s = -10, so the evaluation runs in 50-digit decimal
arithmetic internally and rounds to float at the end.  Absolute error of
both value and derivative is well below 1e-12 on the validated range.

The A_1 torsion needs nothing but zeta'(-1), so its closed form lives here
too, with the extraction of c and r from f = c z^{r+1} (`ar_data`) that
both torsion paths start from.  The module imports no numpy, so `torsion
--exact` runs without it; `spectral` re-exports these names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple, Tuple

from .poly import MixedPolynomial

_BERNOULLI = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
    Fraction(43867, 798), Fraction(-174611, 330),
]

_PRECISION = 50
_N_TERMS = 50  # N, the direct terms


def zeta_and_derivative(s: float) -> Tuple[float, float]:
    """(zeta(s), zeta'(s)) for real s != 1, |s| <= 10, with every Bernoulli correction."""
    if abs(s - 1.0) < 1e-12:
        raise ValueError("zeta has a pole at s = 1")
    if abs(s) > 10 + 1e-9:
        raise ValueError("validated range is |s| <= 10")

    with localcontext() as ctx:
        ctx.prec = _PRECISION
        sd = Decimal(repr(s))
        one = Decimal(1)
        N = Decimal(_N_TERMS)
        logN = N.ln()

        def powD(base: Decimal, expo: Decimal) -> Decimal:
            return (expo * base.ln()).exp()

        val = Decimal(0)
        der = Decimal(0)
        for k in range(1, _N_TERMS):
            kd = Decimal(k)
            p = powD(kd, -sd) if k > 1 else one
            val += p
            der -= kd.ln() * p

        a = powD(N, one - sd)
        val += a / (sd - 1)
        der += (-logN * a * (sd - 1) - a) / (sd - 1) ** 2

        b = powD(N, -sd)
        val += b / 2
        der -= logN * b / 2

        for j, bern in enumerate(_BERNOULLI, start=1):
            coeff = Decimal(bern.numerator) / Decimal(bern.denominator) \
                / Decimal(math.factorial(2 * j))
            poch = one
            dpoch = Decimal(0)
            for m in range(2 * j - 1):
                dpoch = dpoch * (sd + m) + poch
                poch *= sd + m
            npow = powD(N, -sd - (2 * j - 1))
            val += coeff * poch * npow
            der += coeff * npow * (dpoch - poch * logN)

        return float(val), float(der)


# -- the A_1 closed form ------------------------------------------------------------


class UnsupportedSingularity(ValueError):
    """The spectral pipeline handles one-variable monomial singularities."""


class HeatExpansion(NamedTuple):
    p: float
    a0: float
    a1: float
    energy: float


@dataclass(frozen=True)
class ArData:
    """One-variable monomial singularity f = c z^{r+1}."""

    coeff: complex
    r: int

    @property
    def potential_scale(self) -> float:
        """v with |f'|^2 = v rho^{2r}."""
        return abs(self.coeff) ** 2 * (self.r + 1) ** 2

    @property
    def tau_effective(self) -> float:
        """Oscillator parameter of the A_1 case (spectrum 2 tau (k+l+1))."""
        if self.r != 1:
            raise ValueError("tau_effective is an A_1 quantity")
        return math.sqrt(self.potential_scale) / 2

    def heat_expansion(self) -> HeatExpansion:
        """Exponents, two coefficients and energy unit of the small-t heat trace.

        Tr e^{-tH} ~ sum_k a_k t^{(k-1) p} with p = 1 + 1/r (Wigner, Phys.
        Rev. 40, 749, 1932; Kirkwood, Phys. Rev. 44, 31, 1933).  The Weyl
        term is a_0 = Gamma(1 + 1/r) v^{-1/r}; a_1 = -r/12, independent of v,
        is the hbar^2 term -(t^3/12) int e^{-tV} |grad V|^2 after an
        integration by parts (zeta(-1) at r = 1).  Rescaling z makes every
        eigenvalue proportional to E = v^{1/(r+1)}.
        """
        r, v = self.r, self.potential_scale
        return HeatExpansion(p=1 + 1 / r, a0=math.gamma(1 + 1 / r) * v ** (-1 / r),
                             a1=-r / 12, energy=v ** (1 / (r + 1)))


def ar_data(f: MixedPolynomial) -> ArData:
    if f.n != 1:
        raise UnsupportedSingularity("spectral pipeline supports n = 1 only")
    if not f.is_holomorphic() or len(f.terms) != 1:
        raise UnsupportedSingularity("need a single monomial c * z^(r+1)")
    ((a, _b),) = f.terms.keys()
    r = a[0] - 1
    if r < 1:
        raise UnsupportedSingularity("need degree >= 2")
    data = ArData(coeff=complex(next(iter(f.terms.values()))), r=r)
    if not 0 < data.potential_scale < math.inf:  # |c|^2 itself may raise OverflowError
        raise UnsupportedSingularity("the potential scale |c (r+1)|^2 is outside the float range")
    return data


@dataclass
class ZetaResult:
    theta_at_0: float
    log_torsion: float
    torsion: float
    exponents: Tuple[float, ...] = ()
    fit_condition: float = 0.0
    fit_unstable: bool = False
    error_bar: float = 0.0
    log_torsion_splits: Tuple[float, ...] = ()  # numeric path: at split/2, split, 2 split


def torsion_exact_a1(tau: float) -> ZetaResult:
    """Closed-form A_1 torsion from Theta^2(s) = (2 tau)^{-s} zeta(s - 1).

    T^2 = (2 tau)^{-1/12} exp(-zeta'(-1)).
    """
    z_m1, zp_m1 = zeta_and_derivative(-1.0)
    deriv = -math.log(2 * abs(tau)) * z_m1 + zp_m1
    return ZetaResult(theta_at_0=z_m1, log_torsion=-deriv, torsion=math.exp(-deriv))
