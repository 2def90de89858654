"""Spectra, zeta functions and torsion invariants of one-variable singularities.

For f = c z^{r+1} the scalar twisted Laplacian on 0-forms is radially
symmetric, and the A_1 normalization is fixed so that f = z^2/2 has spectrum
{k + l + 1} (the oscillator family at parameter tau = 1/2):

    H = -d_z d_zbar + |f'(z)|^2 .

Eigenvalues come from a Rayleigh-Ritz discretization per angular-momentum
sector in a scaled 2-d oscillator radial basis, where s = omega rho^2 is the
tridiagonal Laguerre matrix T (exact from the three-term recurrence, no
quadrature) and the sector Hamiltonian is (omega/4)|T| + (v/omega^r) T^r.

The second zeta function of the spectrum {lambda_i} is
Theta^i(s) = (2^{i-1} - 1) sum lambda_i^{-s}; its renormalized derivative at
s = 0 defines the torsion log T^i = -(Theta^i)'(0).  Two routes compute it:

  * exact (A_1): Theta^2(s) = (2 tau)^{-s} zeta(s - 1), so
    T^2 = (2 tau)^{-1/12} exp(-zeta'(-1)) with zeta'(-1) = 1/12 - ln A in
    closed form (A is Glaisher's constant; the Euler-Maclaurin oracle
    checks it); this route and the extraction of c and r from f
    (`ar_data`) live in the numpy-free `zeta` module and are re-exported
    here;
  * numeric: Mellin split at t = 1/E, with E = v^{1/(r+1)} the energy unit;
    the upper part sums exponential integrals termwise and takes the Weyl
    tail in closed form, the lower part fits the heat trace on the
    Wigner-Kirkwood exponents t^{(k-1)(1+1/r)}, with the two closed-form
    leading coefficients pinned, and the divergent terms are cancelled by
    the renormalization.

The numeric torsion and the A_1 torsion sum rule renormalize through one
driver, `_renormalize`: one window rule in units of 1/E that keeps clear of
the spectrum's completeness edge, and log T at three splits, whose spread is
the error bar.  A function of time takes an array of times and
returns one value per time, so each time grid is one call.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ._special import EULER_GAMMA, exp1, upper_gamma
from .poly import MixedPolynomial
from .spectrum import Spectrum, cluster_eigenvalues
from .zeta import (  # noqa: F401  (the A_1 closed form, re-exported)
    ArData, HeatExpansion, UnsupportedSingularity, ZetaResult, ar_data, torsion_exact_a1,
)


class IllConditionedBasis(ValueError):
    """The Galerkin matrices overflow: a degree or basis too large for floats."""


class NonMonotoneRefinement(RuntimeError):
    """A Ritz value increased under basis refinement (internal bug flag)."""


class TailDominates(RuntimeError):
    """Truncated spectrum too short for the requested zeta argument."""


# -- Galerkin discretization ------------------------------------------------------


# cap on basis_size: every sector builds dense (basis_size + r)^2 matrices and
# runs an O(basis_size^3) eigensolve; at 1024 a matrix takes 8 MiB and a sector
# about 0.2 s on 2 vCPUs, while the callers here use at most 80
_MAX_BASIS_SIZE = 1024

# cap on sector_cutoff: each sector costs one eigensolve and keeps an array
# of basis_size // 2 levels; at basis 60, 4096 sectors take 2.2 s and 43 MB
# of peak RSS on 2 vCPUs, while the callers here use at most 90
_MAX_SECTOR_CUTOFF = 4096


class GalerkinConfig:
    """The singularity f, the radial basis size and the sector cutoff, with f's `data`."""

    __slots__ = ("f", "basis_size", "sector_cutoff", "data")

    def __init__(self, f: MixedPolynomial, basis_size: int = 40,
                 sector_cutoff: Optional[int] = None):
        self.data = ar_data(f)
        if not 8 <= basis_size <= _MAX_BASIS_SIZE:
            raise ValueError(f"basis_size must be from 8 to {_MAX_BASIS_SIZE}, "
                             f"not {basis_size}")
        floor = 2 * self.data.r + 2
        if sector_cutoff is None:
            sector_cutoff = max(floor, 24)
        if not floor <= sector_cutoff <= _MAX_SECTOR_CUTOFF:
            raise ValueError(f"sector_cutoff must be from {floor} to {_MAX_SECTOR_CUTOFF}, "
                             f"not {sector_cutoff}")
        self.f = f
        self.basis_size = basis_size
        self.sector_cutoff = sector_cutoff


def _sector(size: int, alpha: int, r: int) -> Tuple[np.ndarray, np.ndarray]:
    """T and T^r, cut to size, in sector |m| = alpha; raises if T^r overflows.

    T is multiplication by s = omega rho^2 in the normalized Laguerre basis.
    """
    k = np.arange(size + r)  # padding avoids truncated T^r rows
    T = np.diag(2.0 * k + alpha + 1)
    off = -np.sqrt((k[:-1] + 1) * (k[:-1] + alpha + 1))
    T += np.diag(off, 1) + np.diag(off, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        Tr = np.linalg.matrix_power(T, r)[:size, :size]
    if not np.all(np.isfinite(Tr)):
        raise IllConditionedBasis(f"s^{r} overflows in a basis of {size}; "
                                  "lower the degree, --basis or --sectors")
    return T[:size, :size], Tr


def choose_oscillator_scale(config: GalerkinConfig) -> float:
    """The omega minimizing the trace of the truncated Rayleigh quotient.

    The sector Hamiltonian is (omega/4)|T| + (v/omega^r) T^r for the
    matrices of `_sector`.  Summed over sectors alpha = 0..M with
    multiplicity m_alpha (1 for alpha = 0, else 2), its trace is exactly
    omega A + v B omega^{-r} with

        A = sum_alpha m_alpha sum_k (2k + alpha + 1) / 4,
        B = sum_alpha m_alpha tr[(T_alpha^r)[:size, :size]],

    so its minimizer is omega* = (r v B / A)^{1/(r+1)}.
    """
    v, r = config.data.potential_scale, config.data.r
    size, M = config.basis_size, config.sector_cutoff
    A = B = 0.0
    for alpha in range(M + 1):
        mult = 1 if alpha == 0 else 2
        A += mult * size * (size + alpha) / 4  # sum_k (2k + alpha + 1) / 4
        B += mult * float(np.trace(_sector(size, alpha, r)[1]))
    omega = (r * v * B / A) ** (1 / (r + 1))
    if not math.isfinite(omega):
        raise IllConditionedBasis(f"the trace of s^{r} overflows over {M + 1} sectors; "
                                  "lower the degree, --basis or --sectors")
    return omega


def eigensolve(config: GalerkinConfig) -> Spectrum:
    """Rayleigh-Ritz spectrum clustered over angular sectors, at the chosen scale.

    Each returned eigenvalue is an upper bound.  The spectrum is truncated
    to the window where no sector (kept radial levels, or omitted angular
    sectors) can be missing an eigenvalue.
    """
    return _eigensolve_at(config, choose_oscillator_scale(config))


def _eigensolve_at(config: GalerkinConfig, omega: float) -> Spectrum:
    """`eigensolve` in the basis of oscillator scale omega."""
    v, r = config.data.potential_scale, config.data.r
    size, M = config.basis_size, config.sector_cutoff
    keep = size // 2  # basis_size >= 8 leaves levels above the kept ones

    values, mults = [], []
    reliable = math.inf
    for alpha in range(M + 2):
        # T has a positive diagonal and a negative off-diagonal, so (omega/4)|T|
        # is the oscillator part diag(omega/2 (2k + alpha + 1)) - (omega/4) T
        T, Tr = _sector(size, alpha, r)
        H = (omega / 4) * np.abs(T) + (v / omega ** r) * Tr
        if not np.all(np.isfinite(H)):
            raise IllConditionedBasis("non-finite sector matrix; rescale omega")
        vals = np.linalg.eigvalsh(H)
        if alpha == M + 1:
            # this sector is excluded; its ground state bounds completeness
            reliable = min(reliable, float(vals[0]))
            break
        reliable = min(reliable, float(vals[keep]))
        values.append(vals[:keep])
        mults.append(np.full(keep, 1 if alpha == 0 else 2))  # sectors +-alpha for alpha > 0
    values, mults = cluster_eigenvalues(np.concatenate(values), np.concatenate(mults))
    kept = values <= reliable
    return Spectrum(values[kept], mults[kept], complete_below=reliable)


class RefinementReport(NamedTuple):
    spectra: Tuple[Spectrum, ...]
    max_increase: float
    truncation_errors: Tuple[float, ...]


def eigensolve_refined(config: GalerkinConfig, sizes: Sequence[int]) -> RefinementReport:
    """Solve at increasing basis sizes with one fixed scale; check monotonicity."""
    omega = choose_oscillator_scale(config)
    spectra = [
        _eigensolve_at(GalerkinConfig(config.f, basis_size=size,
                                      sector_cutoff=config.sector_cutoff), omega)
        for size in sizes
    ]
    bound = min(s.complete_below for s in spectra)
    tracked = min(s.count_below(bound) for s in spectra)
    arrays = [s.eigenvalues[:tracked] for s in spectra]
    max_inc = 0.0
    for prev, cur in zip(arrays, arrays[1:]):
        max_inc = max(max_inc, float((cur - prev).max()))
    if max_inc > 1e-8:
        raise NonMonotoneRefinement(f"Ritz value increased by {max_inc:.2e}")
    errors = tuple(float(abs(a - b)) for a, b in zip(arrays[-1], arrays[-2]))
    return RefinementReport(
        spectra=tuple(spectra), max_increase=max_inc, truncation_errors=errors,
    )


# -- tail model and heat trace ---------------------------------------------------


class WeylTail(NamedTuple):
    """Weyl counting model N(lambda) = a0 lambda^p / Gamma(p + 1) above Lambda = cutoff."""

    p: float
    a0: float
    cutoff: float

    def heat_tail(self, t):
        """int_cutoff^inf e^{-t lam} dN(lam), elementwise in t."""
        return self.a0 / math.gamma(self.p) * upper_gamma(self.p, self.cutoff * t) / t ** self.p

    def mellin_upper(self, split: float) -> float:
        """int_split^inf heat_tail(t) dt/t in closed form.

        With x = split * cutoff, exchanging the two integrals and
        integrating E1 by parts gives

            a0 / Gamma(p + 1) split^{-p} [Gamma(p, x) - x^p E1(x)].
        """
        p, x = self.p, split * self.cutoff
        return float(self.a0 / math.gamma(p + 1) * split ** (-p)
                     * (upper_gamma(p, x) - x ** p * exp1(x)))

    def zeta_tail(self, s: float) -> float:
        if s <= self.p + 0.25:
            raise TailDominates(f"need Re s > {self.p + 0.25:.2f} for the tail model")
        return self.a0 / math.gamma(self.p) * self.cutoff ** (self.p - s) / (s - self.p)


def fit_weyl_tail(spectrum: Spectrum, data: ArData) -> WeylTail:
    """Weyl counting law above the last kept eigenvalue.

    The exponent is the exact p = 1 + 1/r and the coefficient the closed-form
    Weyl term a_0 of the small-t heat trace.
    """
    p, a0, _, _ = data.heat_expansion()
    return WeylTail(p=p, a0=a0, cutoff=float(spectrum.values[-1]))


def heat_trace(spectrum: Spectrum, tail: WeylTail, t):
    """Trace sum over the kept spectrum plus the modeled tail, elementwise in t."""
    return spectrum.heat_sum(t) + tail.heat_tail(t)


_LEADING_WINDOW = (0.05, 0.4, 25)  # (lo, hi, points) of the log-log fit


def leading_heat_exponent(spectrum: Spectrum, tail: WeylTail) -> float:
    """Log-log slope of the small-t heat trace over a fixed small-t window."""
    ts = np.geomspace(*_LEADING_WINDOW)
    return float(np.polyfit(np.log(ts), np.log(heat_trace(spectrum, tail, ts)), 1)[0])


# -- zeta functions --------------------------------------------------------------


def theta(
    spectrum: Spectrum,
    i: int,
    s: float,
    tail: Optional[WeylTail] = None,
) -> Tuple[float, float]:
    """Theta^i(s) = (2^{i-1} - 1) sum lambda^{-s}, with a truncation error bar.

    For i = 1 the prefactor vanishes and the result is exactly zero.
    """
    if i < 1:
        raise ValueError("i must be a positive integer")
    pref = 2 ** (i - 1) - 1
    if pref == 0:
        return 0.0, 0.0
    lam = spectrum.eigenvalues
    partial = float((lam ** (-s)).sum())
    tail_val = 0.0
    if tail is not None:
        tail_val = tail.zeta_tail(s)
        if tail_val > abs(partial):
            raise TailDominates("tail estimate exceeds the partial sum")
    return pref * (partial + tail_val), pref * 0.25 * abs(tail_val)


class MellinResult(NamedTuple):
    value_at_0: float
    derivative_at_0: float
    exponents: Tuple[float, ...]
    fit_condition: float
    fit_residual: float


def _weighted_lstsq(ts: np.ndarray, vals: np.ndarray, exps: np.ndarray,
                    known: np.ndarray):
    """Relative-weighted least squares of vals - known on the columns t^beta.

    Returns (coefficients, max relative residual, condition number).
    """
    design = ts[:, None] ** exps[None, :]
    weights = 1.0 / np.maximum(np.abs(vals), 1e-12)
    dw = design * weights[:, None]
    scale = np.linalg.norm(dw, axis=0)
    coef, _, _, sv = np.linalg.lstsq(dw / scale[None, :], (vals - known) * weights,
                                     rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    coef = coef / scale
    resid = float(np.max(np.abs(vals - known - design @ coef) * weights))
    return coef, resid, cond


# points of the geometric grid the expansion is fitted on
_FIT_POINTS = 60


@functools.lru_cache(maxsize=1)
def _gauss_legendre() -> Tuple[np.ndarray, np.ndarray]:
    # built on first use: importing numpy.polynomial costs every command
    # about 1 MB of resident memory
    return np.polynomial.legendre.leggauss(32)


def _log_integral(g: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    """int_lo^hi g(t) dt/t by 32-node Gauss-Legendre in u = log t.

    The integrands here are smooth in u; on the torsion sum rule's
    [A, 60 A max(tau) / min(tau)] the rule agrees with an adaptive one to
    2e-12 for every tau pair the tests use, up to [A, 360 A].
    """
    nodes, weights = _gauss_legendre()
    half = math.log(hi / lo) / 2
    ts = lo * np.exp(half * (nodes + 1))
    return half * float(weights @ g(ts))


def mellin_derivative_at_zero(
    F: Callable[[np.ndarray], np.ndarray],
    exponents: Sequence[float],
    upper_integral: float,
    split: float,
    fit_window: Tuple[float, float],
    pinned: Sequence[Tuple[float, float]],
) -> MellinResult:
    """Renormalized value and derivative at s = 0 of (1/2Gamma(s)) Mellin[F].

    F(t) must be the supertraced, projector-subtracted heat trace, elementwise
    in t: it is called once on the fit grid and once on the quadrature nodes.
    Writing F ~ sum b_j t^{beta_j} near 0 and splitting the Mellin integral
    at `split` = A,

        Theta(0)  = b_0 / 2
        Theta'(0) = (gamma b_0 + b_0 log A + H(0)) / 2,
        H(0) = sum_{beta != 0} b_beta A^beta / beta
               + int_0^A (F - fit) dt/t + int_A^inf F dt/t ,

    where the divergent beta < 0 terms appear only through their finite
    A^beta / beta parts, exactly as the epsilon-cancellation prescribes.
    The caller supplies `upper_integral` = int_A^inf F dt/t, which it can
    evaluate from its own representation of F.

    The `pinned` (beta, b) terms are known; the coefficients of `exponents`
    are fitted to the rest of F by one least-squares solve on `fit_window`.
    The window may extend above the split point (the expansion is a small-t
    model, but extra data only sharpens the coefficients); its low edge must
    sit below the split.
    """
    lo, hi = fit_window
    if not (0 < lo < hi) or lo >= split:
        raise ValueError("fit window needs 0 < lo < hi with lo below the split")
    if not exponents:
        raise ValueError("need exponents to fit")
    ts = np.geomspace(lo, hi, _FIT_POINTS)
    exps = np.array([b for b, _ in pinned] + list(exponents), dtype=float)
    coef = np.array([c for _, c in pinned], dtype=float)
    known = (ts[:, None] ** exps[None, :coef.size]) @ coef
    fitted, resid, cond = _weighted_lstsq(ts, F(ts), exps[coef.size:], known)
    coef = np.concatenate([coef, fitted])
    order = np.argsort(exps)
    exps, coef = exps[order], coef[order]

    zero = np.abs(exps) < 1e-12
    b0 = float(coef[zero].sum())
    h0 = float((coef[~zero] * split ** exps[~zero] / exps[~zero]).sum())
    # int_0^A (F - fit) dt/t, numerically over [lo, A]; the fit is trusted
    # below lo where the data cannot reach
    h0 += _log_integral(lambda t: F(t) - (t[:, None] ** exps) @ coef, lo, split)
    h0 += upper_integral

    return MellinResult(
        value_at_0=b0 / 2,
        derivative_at_0=(EULER_GAMMA * b0 + b0 * math.log(split) + h0) / 2,
        exponents=tuple(float(b) for b in exps),
        fit_condition=cond,
        fit_residual=resid,
    )


# -- torsion ------------------------------------------------------------------------


def _renormalize(
    F: Callable[[np.ndarray], np.ndarray],
    upper: Callable[[float], float],
    energy: float,
    exponents: Sequence[float],
    pinned: Sequence[Tuple[float, float]],
    complete_below: float,
    split: float = 1.0,
) -> Tuple[MellinResult, Tuple[float, float, float]]:
    """The renormalized Mellin transform of F at `split`, and log T at three splits.

    `split` and the fit window are in units of 1/E, which makes the result
    covariant under rescaling the spectrum.  At each split s the window runs
    from max(s/4, min(12 E / complete_below, 0.6 s)), which keeps its low
    edge where truncating the spectrum is negligible, up to max(s, 1).
    `upper(A)` returns int_A^inf F dt/t.  The three values are
    log T = -Theta'(0) at split/2, split and 2 split, in that order; the fit
    at `split` runs first.
    """
    edge = 12.0 * energy / complete_below
    fits = []
    for s in (split, split / 2, 2 * split):
        lo = max(s / 4, min(edge, 0.6 * s))
        A = s / energy
        fits.append(mellin_derivative_at_zero(
            F, exponents, upper(A), split=A,
            fit_window=(lo / energy, max(s, 1.0) / energy), pinned=pinned,
        ))
    at_split, half, double = (-r.derivative_at_0 for r in fits)
    return fits[0], (half, at_split, double)


# the Wigner-Kirkwood powers (k-1) p are fitted up to this one; raising it to 8
# moves log T by less than the split spread for r = 1..4
_MAX_EXPONENT = 4.0


def renormalize_and_torsion(spectrum: Spectrum, data: ArData, split: float = 1.0) -> ZetaResult:
    """Numeric-path torsion T^2 from a computed 0-form spectrum (n = 1).

    For one variable the supertraced heat trace with number-operator weight
    2 is twice the 0-form trace, so `_renormalize` runs on that.  Its t^{-p}
    and t^0 coefficients are pinned to a_0 and a_1, and only the powers
    (k-1) p with k >= 2 are fitted.  The value reported is the one at
    `split`; `log_torsion_splits` holds log T at split/2, split and 2 split,
    and the error bar is their spread.
    """
    p, a0, a1, energy = data.heat_expansion()
    tail = fit_weyl_tail(spectrum, data)

    def F(t: np.ndarray) -> np.ndarray:
        return 2 * heat_trace(spectrum, tail, t)

    def upper(A: float) -> float:
        return 2 * (float(exp1(spectrum.eigenvalues * A).sum()) + tail.mellin_upper(A))

    exponents = [k * p for k in range(1, int(_MAX_EXPONENT / p + 1e-9) + 1)]
    res, logs = _renormalize(F, upper, energy, exponents, ((-p, 2 * a0), (0.0, 2 * a1)),
                             spectrum.complete_below, split)
    log_t = -res.derivative_at_0
    return ZetaResult(
        theta_at_0=res.value_at_0,
        log_torsion=log_t,
        torsion=math.exp(log_t),
        exponents=res.exponents,
        fit_condition=res.fit_condition,
        fit_unstable=res.fit_condition > 1e10 or res.fit_residual > 1e-3,
        error_bar=max(logs) - min(logs),
        log_torsion_splits=logs,
    )


# -- the torsion sum rule -----------------------------------------------------------


def torsion_sum_rhs(mu1: int, n1: int, log_t1: float,
                    mu2: int, n2: int, log_t2: float) -> float:
    """(-1)^{n1} mu1 log T(f2) + (-1)^{n2} mu2 log T(f1)."""
    return (-1) ** n1 * mu1 * log_t2 + (-1) ** n2 * mu2 * log_t1


# |lhs - rhs| above which the A_1 sum rule fails
_SUM_RULE_TOLERANCE = 2e-3


class TorsionSumReport(NamedTuple):
    log_lhs: float
    log_rhs: float
    difference: float
    error_bar: float
    passed: bool


def torsion_sum_check(tau1: float, tau2: float) -> TorsionSumReport:
    """Verify log T^2(f1 (+) f2) = -mu2 log T^2(f1) - mu1 log T^2(f2) for A_1 pairs.

    The left side is computed from the product heat traces: per degree p the
    sum singularity has Tr^p = sum_{p1+p2=p} Tr^{p1}_1 Tr^{p2}_2 (factor
    traces in closed form), the harmonic projector sits in degree 2 with
    rank mu1 mu2 = 1, and `_renormalize` fits the alternating p^2-weighted
    combination on the exponents -4..4 with nothing pinned.  The right side
    uses the exact factor torsions.  `error_bar` is the left side's spread
    over three splits.
    """
    from .oscillator import OscillatorSpec, heat_trace_k_forms

    def factor_traces(tau: float, t: np.ndarray) -> Tuple[np.ndarray, ...]:
        spec = OscillatorSpec(tau, t)
        t0 = heat_trace_k_forms(spec, 0)
        return t0, heat_trace_k_forms(spec, 1), t0

    def F(t: np.ndarray) -> np.ndarray:
        tr1 = factor_traces(tau1, t)
        tr2 = factor_traces(tau2, t)
        total = 0.0
        for p1 in range(3):
            for p2 in range(3):
                p = p1 + p2
                total += (-1) ** p * p * p * tr1[p1] * tr2[p2]
        return total - 4.0  # degree-2 harmonic projector, p^2 = 4, rank 1

    # the factor traces are functions of 2 tau t, so the split and the window
    # scale with the larger energy unit E; F decays like e^{-2 min(tau) t}, so
    # the upper integral runs to 60 A max(tau) / min(tau), where the part left
    # out is of order e^{-60} at A = 1/E whatever the ratio of the taus;
    # the closed-form traces are complete, so no edge raises the window
    stretch = 60 * max(tau1, tau2) / min(tau1, tau2)
    res, logs = _renormalize(F, lambda A: _log_integral(F, A, stretch * A),
                             2 * max(tau1, tau2), (-4.0, -2.0, 0.0, 2.0, 4.0), (),
                             math.inf)
    log_lhs = -res.derivative_at_0
    log_rhs = torsion_sum_rhs(1, 1, torsion_exact_a1(tau1).log_torsion,
                              1, 1, torsion_exact_a1(tau2).log_torsion)
    diff = abs(log_lhs - log_rhs)
    return TorsionSumReport(
        log_lhs=log_lhs, log_rhs=log_rhs, difference=diff, error_bar=max(logs) - min(logs),
        passed=diff <= _SUM_RULE_TOLERANCE,
    )
