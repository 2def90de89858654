"""The Gaussian-type index integral and the Milnor-number check.

For a non-degenerate quasi-homogeneous f,

    mu(f) = (t^n / pi^n) int exp(-t |grad f|^2) |det d^2 f|^2 dvol,

independent of t > 0.  The module evaluates the integral either by
importance-sampled Monte Carlo or, for any n, by quadrature in weighted
polar coordinates z_j = lam^{q_j} zeta_j: quasi-homogeneity turns the
integral into a smooth integral over the unit sphere (Gauss-Legendre on the
simplex of the |zeta_j|^2, trapezoid in the angles, one angle fixed by the
circle action) times a one-dimensional radial integral (trapezoid in log
lam).  It checks the t-independence across a grid.

The Monte Carlo proposal is the complex Gaussian of variance sigma_j^2 in
coordinate j.  log sigma is the least-squares solution of
log(sqrt(t) |c|) + a . log sigma = 0 over the terms c z^a of d_1 f .. d_n f,
a torus normalization of t |grad f|^2 solved exactly once per f as
log sigma_j = u_j - v_j log(t) / 2; it reads no seed.  For A_1 in any n the
proposal is the normalized integrand, so every weight is 1; for a
Brieskorn-Pham f it matches each coordinate's scale; and a factor c of f
gives the estimate of f at time t |c|^2.  It is drawn in polar form: each
|z_j|^2 is sigma_j^2 times a standard exponential, and a uniform phase is
drawn only for the pivot columns of the exact matrix of exponent differences
(a - b) - (a0 - b0) over the terms of each of d_1 f .. d_n f and det d^2 f;
every other coordinate is real and non-negative.  This is exact, not an
approximation: a phase vector phi in that matrix's null space (it holds the
weights q, the circle action) leaves every |d_j f|, |det d^2 f| and the
proposal unchanged under z_j -> e^{i phi_j} z_j, so rotating a sample
until its free phases are 0 leaves its weight unchanged while its other
phases stay iid uniform, and the law of the importance weight is that of
the full Gaussian draw.  For n = 1 and for Brieskorn-Pham f no phase is
drawn at all.

The integrand is evaluated at the rows of an (m, n) array of points, one
value per row.  Both methods evaluate d_1 f .. d_n f and det d^2 f
together, with one `poly.evaluate_joint` call and so one table of column
powers per block of at most _BLOCK_ROWS = 4096 points, and their
temporaries stay small whatever the sample or node count.  Monte Carlo
draws each block of samples from the one stream of its t-grid point, keyed
on (seed, point), into one reused buffer whose columns are contiguous.
When no phase is drawn the samples are real, so the buffer is float64 and
the derivatives are evaluated in float64 (in complex128 where a
coefficient is not real); otherwise the buffer is complex128, as are the
quadrature's sphere points, and so is the arithmetic.  A real product
rounds as the complex product of the same values with zero imaginary
parts, so both buffers give the same estimate to the bit.  The quadrature
takes at least 8 nodes: with fewer, its half-node error bar falls short of
the error.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .poly import (MixedPolynomial, abs_square, evaluate_joint, gradient, hessian_determinant,
                   square_sum)
from .weights import ConstancyViolated, _rref, solve_weights


class UnsupportedNodeCount(ValueError):
    """A quadrature node count below _MIN_QUADRATURE_NODES or whose rule is too large to run."""


class IndexEstimate(NamedTuple):
    t: float
    estimate: float
    std_error: float
    method: str
    budget: int


class IndexResult(NamedTuple):
    estimates: Tuple[IndexEstimate, ...]
    mu_pooled: float
    mu_rounded: int
    method: str


def _phase_rows(polys: Sequence[MixedPolynomial]) -> List[List[Fraction]]:
    """(a - b) - (a0 - b0) over the terms z^a conj(z)^b of each polynomial, whose
    first term is z^a0 conj(z)^b0: every |P| is invariant under z_j -> e^{i phi_j} z_j
    exactly when each row . phi = 0."""
    rows = []
    for p in polys:
        diffs = [[x - y for x, y in zip(a, b)] for a, b in p.terms]
        rows += [[Fraction(x - x0) for x, x0 in zip(d, diffs[0])] for d in diffs[1:]]
    return rows


def _log_scale(grads: Sequence[MixedPolynomial]) -> Tuple[List[float], List[float]]:
    """(u, v) with log sigma_j = u_j - v_j log(t) / 2, the least-squares solution
    of log(sqrt(t) |c|) + a . log sigma = 0 over the terms c z^a of d_1 f .. d_n f.

    So sigma is the scale at which every term of sqrt(t) grad f has modulus
    about 1, a torus normalization of t |grad f|^2.  The normal equations
    A^T A x = A^T y have an integer matrix, so [A^T A | A^T] is reduced
    exactly: u = -M log|c| and v = M 1 with M = (A^T A)^{-1} A^T.  A column
    that f does not constrain gets u_j = v_j = 0.
    """
    exponents, log_c = [], []
    for g in grads:
        for (a, b), c in g.terms.items():
            exponents.append([x + y for x, y in zip(a, b)])
            m = c.abs2()
            log_c.append((math.log(m.numerator) - math.log(m.denominator)) / 2)
    n = len(grads)
    normal = [[Fraction(sum(row[i] * row[k] for row in exponents)) for k in range(n)]
              + [Fraction(row[i]) for row in exponents] for i in range(n)]
    mat, pivots = _rref(normal)
    u, v = [0.0] * n, [0.0] * n
    for row, j in zip(mat, pivots):
        u[j] = -math.fsum(float(m) * lc for m, lc in zip(row[n:], log_c))
        v[j] = float(sum(row[n:]))
    return u, v


class _Compiled:
    """Gradient and exact Hessian determinant of f, evaluated together at the
    same points, and the coordinates whose phase the Monte Carlo draws."""

    def __init__(self, f: MixedPolynomial):
        self.n = f.n
        # d_1 f .. d_n f, then det d^2 f: one evaluate_joint call reads them all
        self.derivatives = gradient(f) + [hessian_determinant(f)]
        # the pivot columns of the phase rows; each free column's phase is fixed
        # by a symmetry of the density, so it is set to 0
        self.angles = _rref(_phase_rows(self.derivatives))[1]
        self.log_scale = _log_scale(self.derivatives[:-1])

    def sigma(self, t: float) -> List[float]:
        """The Monte Carlo proposal's scale per coordinate at time t: E |z_j|^2 = sigma_j^2."""
        half_log_t = math.log(t) / 2
        return [math.exp(u - v * half_log_t) for u, v in zip(*self.log_scale)]

    def density(self, Z: np.ndarray, t: float, log_factor=0.0) -> np.ndarray:
        """(t^n / pi^n) exp(-t |grad f|^2) |det d^2 f|^2 at the rows of Z.

        `log_factor` (a scalar or one value per row) is added inside the
        exponential, so an importance weight needs no second `exp`.
        """
        *grads, d = evaluate_joint(self.derivatives, Z)
        arg = square_sum(grads)
        arg *= -t
        arg += self.n * math.log(t / math.pi)
        arg += log_factor
        np.exp(arg, out=arg)
        arg *= abs_square(d)
        return arg


@functools.lru_cache(maxsize=16)
def _compile(f: MixedPolynomial) -> _Compiled:
    """_Compiled(f), built once per f: a t-grid shares it."""
    return _Compiled(f)


def integrand(f: MixedPolynomial, Z, t: float) -> np.ndarray:
    """The index density at the rows of an (m, n) array, read as complex points: one value per point."""
    _check_t(t)
    return _compile(f).density(np.asarray(Z, dtype=complex), t)


# rows of points per density evaluation, for Monte Carlo and quadrature alike:
# a block's temporaries (64 KB complex) stay in cache and below malloc's mmap
# threshold, so they are reused from the heap rather than faulted in afresh
_BLOCK_ROWS = 4096


def _point_seed(seed: int, point: int) -> np.random.SeedSequence:
    """The stream of t-grid point `point`.

    Spawn keys keep every (seed, point) apart, and apart from the unkeyed
    SeedSequence(seed) behind default_rng(seed): numpy pads entropy with
    zeros, so SeedSequence([seed, 0]) would be that stream.
    """
    return np.random.SeedSequence(seed, spawn_key=(point,))


def _mc_estimate(
    comp: _Compiled, t: float, budget: int, seed: int, sigma: Sequence[float], point: int = 0
) -> Tuple[float, float]:
    """Importance-sampled mean and standard error, from one stream in blocks.

    The proposal is the complex Gaussian of variance sigma_j^2 in coordinate
    j (comp.sigma(t)), in polar form.  The samples come in blocks of
    _BLOCK_ROWS rows (the last one shorter) from the one stream
    _point_seed(seed, point).  Each block draws the standard exponentials E_j
    with |z_j|^2 = sigma_j^2 E_j, coordinate by coordinate, then a uniform
    phase for each column in comp.angles; every other coordinate is real and
    non-negative, which leaves the law of the weight unchanged (see the
    module docstring).  So -log p = sum_j E_j + sum_j log(pi sigma_j^2), and
    no |z|^2 is recomputed.  Each block's exponentials are drawn into one
    reused buffer, coordinate by coordinate, and scaled in place, and their
    square roots go straight into one reused point buffer whose columns are
    contiguous, so the density reads them without a copy.  That buffer is
    float64 when comp.angles is empty, so phase-free samples are evaluated
    in float64, and complex128 otherwise.  The weights add to the sum and
    the sum of squares in block order.  A standard error needs at least 2
    samples: one sample's spread is 0, a bar it has not earned.
    """
    if budget < 2:
        raise ValueError(f"the Monte Carlo budget must be at least 2 samples, not {budget}")
    n, angles = comp.n, comp.angles
    scale = [s * s for s in sigma]  # E |z_j|^2
    if not all(sys.float_info.min <= v <= sys.float_info.max for v in scale):
        raise ValueError(f"the Monte Carlo proposal variances sigma_j^2 at t = {t} are not all "
                         f"normal floats: {scale}")
    log_norm = sum(math.log(math.pi * v) for v in scale)  # log of proposal normalizer
    rng = np.random.default_rng(_point_seed(seed, point))
    rows = min(budget, _BLOCK_ROWS)
    # free columns stay real; with no drawn phase every column is
    Z = np.zeros((n, rows), dtype=complex if angles else float).T
    E = np.empty(n * rows)
    total = 0.0
    total_sq = 0.0
    for lo in range(0, budget, _BLOCK_ROWS):
        zb = Z[:budget - lo]
        e = E[:n * len(zb)].reshape(n, len(zb))  # C-contiguous: the fill order of a fresh draw
        rng.standard_exponential(out=e)
        neg_log_p = e[0] + log_norm
        for j in range(1, n):
            neg_log_p += e[j]
        for j in range(n):
            e[j] *= scale[j]
            np.sqrt(e[j], out=zb[:, j].real)
        if angles:
            u = rng.random((len(angles), len(zb))) * math.pi  # half the phases
            for a, j in enumerate(angles):
                # the rational parametrization of the circle by h = tan(phase / 2),
                # whose cos^2 + sin^2 = 1 holds whatever the rounding of h
                h = np.tan(u[a])
                c = 2 / (1 + h * h)  # 1 + cos(phase); sin(phase) = h c
                z = zb[:, j]
                z.imag = z.real * (h * c)
                z.real *= c - 1
        w = comp.density(zb, t, neg_log_p)  # density / proposal
        total += float(w.sum())
        total_sq += float((w * w).sum())
    mean = total / budget
    var = max(total_sq / budget - mean * mean, 0.0)
    return mean, math.sqrt(var / budget)


# cap on quadrature work: sphere points times radial nodes, (2N^2)^(n-1) 4N,
# or N^3 for the dense Legendre eigensolve.  It allows N = 645, 322 and 27 at
# n = 1, 2 and 3; the largest n = 2 rule, 2.7e8 points and its half-node rule,
# takes about 1.1 s in-process (z1^3 + z2^3 and E7, Python 3.11, numpy 2.4.6,
# 2 vCPUs of a Xeon), and the largest n = 3 rule about 1.8 s
_MAX_QUADRATURE_POINTS = 128 ** 4
# below 7 nodes neither the N- nor the N/2-node rule is resolved, and the
# error bar |Q_N - Q_{N/2}| falls short of the error
_MIN_QUADRATURE_NODES = 8


def _polar_rule(nodes: int):
    """Gauss-Legendre nodes and weights on [0, 1] (N = `nodes`) and the
    4N-point trapezoid in x - x0 = log lam - x0 on [-30, 8]."""
    u, wu = np.polynomial.legendre.leggauss(nodes)
    x, h = np.linspace(-30.0, 8.0, 4 * nodes, retstep=True)  # not x[1] - x[0], off by 5e-14
    wx = np.full(x.size, h)
    wx[[0, -1]] /= 2
    return (u + 1) / 2, wu / 2, x, wx


def _sphere_block(rows: np.ndarray, u: np.ndarray, wu: np.ndarray, q: np.ndarray):
    """Points zeta at rows of the sphere rule, and weights times sum_j q_j s_j.

    Row r holds n - 1 simplex digits in base N, least significant first, then
    n - 1 angle digits in base 2N; theta_n = 0.  The simplex of the s_j =
    |zeta_j|^2 is collapsed as s_k = u_k prod_{i<k} (1 - u_i), with Jacobian
    prod_k prod_{i<k} (1 - u_i).
    """
    n = q.size
    angles = 2 * u.size
    s = np.empty((rows.size, n))
    w = np.full(rows.size, (2 * math.pi / angles) ** (n - 1))
    left = np.ones(rows.size)  # prod_{i<k} (1 - u_i)
    for k in range(n - 1):
        rows, digit = np.divmod(rows, u.size)
        w *= wu[digit] * left
        s[:, k] = u[digit] * left
        left *= 1 - u[digit]
    s[:, -1] = left
    Z = np.zeros((rows.size, n), dtype=complex)
    np.sqrt(s, out=Z.real)
    for k in range(n - 1):
        rows, digit = np.divmod(rows, angles)
        Z[:, k] *= np.exp(2j * math.pi / angles * digit)
    return Z, w * (s @ q)


def _quadrature_estimate(
    comp: _Compiled, t: float, nodes: int, q: Sequence
) -> Tuple[float, float]:
    """The index integral in weighted polar coordinates z_j = lam^{q_j} zeta_j.

    With |zeta| = 1, s_j = |zeta_j|^2 and a_j = 2(1 - q_j), the weight of
    |d_j f|^2 (|det d^2 f|^2 has weight 2n - 4|q|, d^{2n} z = lam^{2|q|-1}
    (sum_j q_j s_j) dlam dsigma and dsigma = 2^{1-n} ds dtheta, Archimedes):

        mu = (t/pi)^n 2pi 2^{1-n} int (sum_j q_j s_j) |det d^2 f(zeta)|^2 R(zeta) ds dtheta',
        R(zeta) = int_0^inf lam^{p-1} exp(-t sum_j lam^{a_j} |d_j f(zeta)|^2) dlam,

    p = sum_j a_j, where the circle action z_j -> e^{i phi q_j} z_j fixes
    theta_n = 0.  The simplex takes N-point Gauss-Legendre on each collapsed
    axis, each other angle a 2N-point trapezoid and R a 4N-point trapezoid in
    x = log lam on x0 + [-30, 8], x0 = -log(t max_j |d_j f(zeta)|^2) / min_j a_j.
    t and a constant factor c of f enter only through x0, so the rule is
    covariant under c f and, for equal weights, t-independent to rounding.
    Sphere points come in blocks of _BLOCK_ROWS rows, each with one pass over
    the radial nodes.  The error is |Q_N - Q_{N/2}|, at least 1e3 eps |Q_N|,
    so it is not finite when Q_N or Q_{N/2} is not.
    Raises UnsupportedNodeCount, before any rule is built, for N < 8 or when
    (2N^2)^(n-1) sphere points times 4N radial nodes, or N^3, exceed
    _MAX_QUADRATURE_POINTS.
    """
    n = comp.n
    points = max((2 * nodes * nodes) ** (n - 1) * 4 * nodes, nodes ** 3)
    if nodes < _MIN_QUADRATURE_NODES or points > _MAX_QUADRATURE_POINTS:
        raise UnsupportedNodeCount(
            f"{nodes} nodes in {n} variables need {points} quadrature points; "
            f"nodes must be at least {_MIN_QUADRATURE_NODES} and points at most "
            f"{_MAX_QUADRATURE_POINTS}")
    a = [2 * (1 - qj) for qj in q]  # exact, so equal weights give ratios of exactly 1
    # the powers of t max_j |d_j f|^2 = e^{-min_j a_j x0} in t e^{a_j x0} and e^{p x0}
    r = np.array([float(aj / min(a)) for aj in a])
    rp = float(sum(a) / min(a))
    af = np.array([float(aj) for aj in a])
    qf = np.array([float(qj) for qj in q])
    rules = {npts: _polar_rule(npts) for npts in (nodes, nodes // 2)}

    def block(Z: np.ndarray, w: np.ndarray, lam_a, log_wx) -> float:
        *grads, d = evaluate_joint(comp.derivatives, Z)
        w *= abs_square(d)
        b = np.empty((len(w), n))  # t |d_j f|^2 e^{a_j x0}
        for j, v in enumerate(grads):
            b[:, j] = abs_square(v)
        gmax = b.max(axis=1)
        log_tg = math.log(t) + np.log(gmax)
        b /= gmax[:, None]
        b *= np.exp(np.outer(log_tg, 1 - r))
        w *= np.exp(n * math.log(t) - rp * log_tg)  # t^n e^{p x0}
        acc = np.zeros(len(w))
        for k in range(len(log_wx)):
            arg = b @ lam_a[k]
            np.subtract(log_wx[k], arg, out=arg)
            acc += np.exp(arg, out=arg)
        return float(w @ acc)

    def run(npts: int) -> float:
        u, wu, x, wx = rules[npts]
        lam_a = np.exp(np.outer(x, af))  # lam^{a_j} e^{-a_j x0}
        log_wx = np.log(wx) + af.sum() * x  # lam^p dx = lam^{p-1} dlam
        size = (2 * npts * npts) ** (n - 1)
        total = sum(block(*_sphere_block(np.arange(lo, min(lo + _BLOCK_ROWS, size)), u, wu, qf),
                          lam_a, log_wx) for lo in range(0, size, _BLOCK_ROWS))
        return 2 * math.pi * 2.0 ** (1 - n) / math.pi ** n * total

    full, half = run(nodes), run(nodes // 2)
    return full, max(abs(full - half), 1e3 * np.finfo(float).eps * abs(full))


# a budget of None means the method's default, as in the CLI's `index`
_DEFAULT_BUDGETS = {"mc": 10 ** 6, "quadrature": 128}


def _check_t(t: float) -> None:
    """Reject a t outside [smallest normal float, inf), for both methods alike.

    Below the normal range t |grad f|^2 loses its precision, and the Monte
    Carlo weights overflow for most samples but not all, which biases the
    estimate while its bar stays small.
    """
    if not sys.float_info.min <= t < math.inf:
        raise ValueError(f"t must be positive and finite, at least the smallest normal float "
                         f"{sys.float_info.min:.4g}, not {t}")


def compute_index(
    f: MixedPolynomial,
    t: float,
    budget: int | None = None,
    seed: int = 0,
    method: str = "mc",
    point: int = 0,
) -> IndexEstimate:
    """One estimate of the index integral at time t.

    `budget` is the sample count (Monte Carlo) or the node count N of the
    weighted-polar rule (quadrature), whose weights come from solve_weights;
    None means 10^6 samples or 128 nodes.  `point` is the estimate's index
    in a t-grid, which Monte Carlo keys its stream on (_point_seed); a
    standalone estimate is point 0.  Both methods run with numpy's float
    warnings off.  The density is non-negative and mu is at least 1, so an
    estimate that is not positive and finite (0 when no sample or node
    carried the integrand), or an error that is not finite, raises
    ValueError.
    """
    _check_t(t)
    if budget is None:
        budget = _DEFAULT_BUDGETS.get(method)
    comp = _compile(f)
    with np.errstate(all="ignore"):  # a non-finite or zero estimate is raised below
        if method == "mc":
            est, err = _mc_estimate(comp, t, budget, seed, comp.sigma(t), point)
        elif method == "quadrature":
            est, err = _quadrature_estimate(comp, t, budget, solve_weights(f).q)
        else:
            raise ValueError("method must be 'mc' or 'quadrature'")
    if not (0 < est < math.inf and math.isfinite(err)):
        raise ValueError(f"the {method} estimate at t = {t} is not positive and finite: "
                         f"{est} +- {err}")
    return IndexEstimate(t=t, estimate=est, std_error=err, method=method, budget=budget)


def mckean_singer_check(
    f: MixedPolynomial,
    t_grid: Sequence[float] = (0.5, 1.0, 2.0),
    budget: int | None = None,
    seed: int = 0,
    method: str = "mc",
) -> IndexResult:
    """Estimates across the t-grid with pairwise 3-sigma constancy enforced.

    A one-point grid has no pairs to compare; its pooled value is its estimate.
    """
    if not t_grid:
        raise ValueError("need at least one grid point")
    for t in t_grid:  # reject a bad t before any estimate is computed
        _check_t(t)
    ests: List[IndexEstimate] = []
    for i, t in enumerate(t_grid):
        ests.append(compute_index(f, t, budget=budget, seed=seed, method=method, point=i))
    floor = 1e-12
    for i in range(len(ests)):
        for j in range(i + 1, len(ests)):
            se = math.hypot(max(ests[i].std_error, floor), max(ests[j].std_error, floor))
            zscore = abs(ests[i].estimate - ests[j].estimate) / se
            if zscore > 3.0:
                raise ConstancyViolated(ests[i].t, ests[j].t, zscore)
    wts = [1.0 / max(e.std_error, floor) ** 2 for e in ests]
    norm = sum(wts)
    # weights normalized before summing, so one point pools to its estimate exactly
    pooled = sum(w / norm * e.estimate for w, e in zip(wts, ests))
    return IndexResult(
        estimates=tuple(ests),
        mu_pooled=pooled,
        mu_rounded=int(round(pooled)),
        method=method,
    )
