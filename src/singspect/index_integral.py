"""The Gaussian-type index integral and the Milnor-number check.

For a non-degenerate quasi-homogeneous f,

    mu(f) = (t^n / pi^n) int exp(-t |grad f|^2) |det d^2 f|^2 dvol,

independent of t > 0.  The module evaluates the integral either by
importance-sampled Monte Carlo (complex Gaussian proposal whose scale comes
from the fitted quadratic growth floor |grad f|^2 >= |z|^2 / C - 1, which
keeps the weights bounded) or, for any n, by orbit-reduced quadrature: the
weighted circle action of f leaves the integrand invariant, so z1 is taken
real and radial (Gauss-Laguerre) and C^{n-1} gets a tensor Gauss-Hermite
rule.  It checks the t-independence across a grid.  The integrand is
evaluated at the rows of a complex (m, n) array of points, one value per row;
both methods evaluate it in blocks of at most _BLOCK_ROWS = 4096 points, so
the temporaries of one evaluation stay small whatever the sample or node count.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .poly import MixedPolynomial, gradient, gradient_square, hessian_determinant
from .weights import ConstancyViolated, NondegeneracyReport


class UnsupportedNodeCount(ValueError):
    """A quadrature node count too large to run or with non-finite Gauss weights."""


@dataclass(frozen=True)
class IndexEstimate:
    t: float
    estimate: float
    std_error: float
    method: str
    budget: int


@dataclass(frozen=True)
class IndexResult:
    estimates: Tuple[IndexEstimate, ...]
    mu_pooled: float
    mu_rounded: int
    method: str

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["t", "estimate", "stderr"])
        for e in self.estimates:
            w.writerow([e.t, e.estimate, e.std_error])
        return buf.getvalue()


class _Compiled:
    """Gradient and exact Hessian determinant of f for vectorized evaluation."""

    def __init__(self, f: MixedPolynomial):
        self.n = f.n
        self.grads = gradient(f)
        self.det_hess = hessian_determinant(f)

    def density(self, Z: np.ndarray, t: float, log_factor=0.0) -> np.ndarray:
        """(t^n / pi^n) exp(-t |grad f|^2) |det d^2 f|^2 at the rows of Z.

        `log_factor` (a scalar or one value per row) is added inside the
        exponential, so an importance weight needs no second `exp`.
        """
        arg = gradient_square(self.grads, Z)
        arg *= -t
        arg += self.n * math.log(t / math.pi)
        arg += log_factor
        np.exp(arg, out=arg)
        d = self.det_hess.evaluate_many(Z)
        arg *= d.real * d.real + d.imag * d.imag
        return arg


def integrand(f: MixedPolynomial, Z, t: float) -> np.ndarray:
    """The index density at the rows of a complex (m, n) array: one value per point."""
    if not t > 0:
        raise ValueError("t must be positive")
    return _Compiled(f).density(np.asarray(Z, dtype=complex), t)


_MC_STRATA = 64  # each stratum has its own stream; sums are reduced in stratum order
# rows of points per density evaluation, for Monte Carlo and quadrature alike:
# a block's temporaries (64 KB complex) stay in cache and below malloc's mmap
# threshold, so they are reused from the heap rather than faulted in afresh
_BLOCK_ROWS = 4096


def _mc_estimate(
    comp: _Compiled, t: float, budget: int, seed: int, growth_c: float
) -> Tuple[float, float]:
    """Importance-sampled mean and standard error, reduced in stratum order.

    Stratum idx draws X then Y from SeedSequence([seed, idx]) into buffers
    shared by all strata; its weights are evaluated in blocks of _BLOCK_ROWS
    rows into one vector, whose sum and sum of squares are the stratum's.
    """
    if budget < 1:
        raise ValueError(f"the Monte Carlo budget must be at least 1 sample, not {budget}")
    n = comp.n
    var_real = growth_c / (2 * t)        # per real coordinate; complex variance C/t
    sigma = math.sqrt(var_real)
    per = budget // _MC_STRATA
    counts = [per + (1 if i < budget - per * _MC_STRATA else 0) for i in range(_MC_STRATA)]
    total = 0.0
    total_sq = 0.0
    log_norm = n * math.log(math.pi * 2 * var_real)  # log of proposal normalizer
    X = np.empty((counts[0], n))
    Y = np.empty((counts[0], n))
    Z = np.empty((min(counts[0], _BLOCK_ROWS), n), dtype=complex)
    W = np.empty(counts[0])
    for idx, m in enumerate(counts):
        if m == 0:
            continue
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx]))
        x, y, w = X[:m], Y[:m], W[:m]
        rng.standard_normal(out=x)  # the same stream as normal(scale=sigma)
        x *= sigma
        rng.standard_normal(out=y)
        y *= sigma
        for lo in range(0, m, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, m)
            xb, yb, zb = x[lo:hi], y[lo:hi], Z[:hi - lo]
            zb.real = xb
            zb.imag = yb
            neg_log_p = (xb * xb + yb * yb).sum(axis=1) / (2 * var_real) + log_norm
            w[lo:hi] = comp.density(zb, t, neg_log_p)  # density / proposal
        total += float(w.sum())
        total_sq += float((w * w).sum())
    mean = total / budget
    var = max(total_sq / budget - mean * mean, 0.0)
    return mean, math.sqrt(var / budget)


# cap on quadrature points: the size of a 128-node tensor Gauss-Hermite rule on C^2
_MAX_QUADRATURE_POINTS = 128 ** 4


def _gauss_laguerre(nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes s and unweighted weights w e^s.

    The nodes are the eigenvalues of the Jacobi matrix of the Laguerre
    recurrence (diagonal 2k + 1, off-diagonal k; Golub & Welsch, Math. Comp.
    23, 1969), polished by two Newton steps.  The weights come from
    w = s / (N L_{N-1}(s))^2 in log space, not from eigenvector components,
    which lose all relative accuracy once w falls below 1e-16 although w e^s
    stays of order one.  L_k runs through
    the difference recurrence d_{k+1} = (k d_k - s L_k) / (k + 1),
    L_{k+1} = L_k + d_{k+1}, which keeps small nodes accurate, with both
    terms rescaled by a power of two at each step so they never overflow.
    """
    k = np.arange(1, nodes, dtype=float)
    s = np.linalg.eigvalsh(np.diag(2.0 * np.arange(nodes) + 1) + np.diag(k, 1)
                           + np.diag(k, -1))

    def recurrence(s: np.ndarray):
        """(L_N, L_N - L_{N-1}) divided by 2^e, and the exponent e."""
        p, d = 1.0 - s, -s
        e = np.zeros(s.shape, dtype=int)
        for j in range(1, nodes):
            d = (j * d - s * p) / (j + 1)
            p = p + d
            _, ej = np.frexp(p)
            p, d, e = np.ldexp(p, -ej), np.ldexp(d, -ej), e + ej
        return p, d, e

    for _ in range(2):
        p, d, _ = recurrence(s)
        s = s - s * p / (nodes * d)  # L_N' = N (L_N - L_{N-1}) / s
    p, d, e = recurrence(s)
    log_w = s + np.log(s) - 2 * (math.log(nodes) + np.log(np.abs(p - d)) + e * math.log(2))
    return s, np.exp(log_w)


def _gauss_rules(nodes: int, n: int):
    """Gauss-Laguerre nodes/weights in s and Gauss-Hermite nodes/weights in x.

    Both weights are returned unweighted (multiplied by e^s and e^{x^2}), so
    the rules integrate plain functions on [0, inf) and on R.  Raises
    UnsupportedNodeCount, before any integrand is evaluated, for a rule
    larger than _MAX_QUADRATURE_POINTS or one whose weights are not finite.
    """
    # each rule is a dense O(nodes^3) eigensolve, which dominates at n = 1
    points = max(nodes ** (2 * n - 1), nodes ** 3)
    if nodes < 1 or points > _MAX_QUADRATURE_POINTS:
        raise UnsupportedNodeCount(
            f"{nodes} nodes in {n} variables need {points} quadrature points; "
            f"nodes must be positive and points at most {_MAX_QUADRATURE_POINTS}")

    def finite(w: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(w)):
            raise UnsupportedNodeCount(f"the {nodes}-node Gauss rule has non-finite weights")
        return w

    # the Laguerre weights stay finite up to the point cap (645 nodes); the
    # Hermite weights w e^{x^2} overflow from 372 nodes, so counts from 372
    # to 645 are rejected after both rules are built
    with np.errstate(all="ignore"):
        s, ws = _gauss_laguerre(nodes)
        ws = finite(ws)
        x, wx = np.polynomial.hermite.hermgauss(nodes)
        wx = finite(wx * np.exp(x * x))
    return s, ws, x, wx


def _quadrature_estimate(
    comp: _Compiled, t: float, nodes: int, growth_c: float
) -> Tuple[float, float]:
    """Orbit-reduced Gauss quadrature after the Gaussian change of variables.

    The integrand is invariant under the circle action z_j -> e^{i theta q_j} z_j
    of a quasi-homogeneous f, so rotating z1 onto the positive real axis gives

        int_{C^n} F = 2 pi int_0^inf r dr int_{C^{n-1}} F(r, z') dz'.

    The radial integral is Gauss-Laguerre in s = r^2 / sigma^2 and C^{n-1}
    carries the tensor Gauss-Hermite rule with nodes sigma x, sigma^2 = C / t:
    nodes^(2n-1) points, evaluated one radial node at a time in blocks of at
    most _BLOCK_ROWS grid rows, which also bounds memory at any n and node
    count.  The reported error is the difference against a reference rule
    with half the nodes, but at least 8.
    At exactly 8 nodes that floor would compare the rule with itself, so the
    reference there is the 4-node rule: like every coarser reference it
    overstates the error, where a finer 16-node reference can understate it.
    """
    n = comp.n
    sigma = math.sqrt(growth_c / t)
    ref = max(nodes // 2, 8)
    if ref == nodes:
        ref = nodes // 2
    rules = {npts: _gauss_rules(npts, n) for npts in (nodes, ref)}
    axes = 2 * n - 2  # real axes of C^{n-1}; the grid is one point when n = 1

    def run(npts: int) -> float:
        s, ws, x, wx = rules[npts]
        radial = list(zip(sigma * np.sqrt(s), math.pi * sigma ** 2 * ws))
        size = npts ** axes
        total = 0.0
        for lo in range(0, size, _BLOCK_ROWS):
            rows = np.arange(lo, min(lo + _BLOCK_ROWS, size))
            # row-major digits of each row number: its tensor-grid multi-index
            idx = np.array([rows // npts ** (axes - 1 - a) % npts for a in range(axes)],
                           dtype=np.intp).reshape(axes, rows.size)
            wts = np.prod(sigma * wx[idx], axis=0)
            Z = np.empty((rows.size, n), dtype=complex)
            Z[:, 1:] = sigma * (x[idx[0::2]] + 1j * x[idx[1::2]]).T
            for r, wr in radial:
                Z[:, 0] = r
                total += wr * float(comp.density(Z, t) @ wts)
        return total

    full = run(nodes)
    return full, abs(full - run(ref))


def _check_t(t: float) -> None:
    if not 0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, not {t}")


def compute_index(
    f: MixedPolynomial,
    t: float,
    budget: int = 10 ** 6,
    seed: int = 0,
    method: str = "mc",
    *,
    report: NondegeneracyReport,
) -> IndexEstimate:
    """One estimate of the index integral at time t.

    `report` is the weights-module non-degeneracy report; its fitted
    growth constant sets the proposal scale.  `budget` is the sample count
    (Monte Carlo) or nodes per axis (quadrature).
    """
    _check_t(t)
    comp = _Compiled(f)
    if method == "mc":
        est, err = _mc_estimate(comp, t, budget, seed, report.fitted_C)
    elif method == "quadrature":
        est, err = _quadrature_estimate(comp, t, budget, report.fitted_C)
    else:
        raise ValueError("method must be 'mc' or 'quadrature'")
    return IndexEstimate(t=t, estimate=est, std_error=err, method=method, budget=budget)


def grid_seed(seed: int, i: int) -> int:
    """Seed of the estimate at point i of a t-grid run with base seed `seed`."""
    return seed + 977 * i


def mckean_singer_check(
    f: MixedPolynomial,
    t_grid: Sequence[float] = (0.5, 1.0, 2.0),
    budget: int = 10 ** 6,
    seed: int = 0,
    method: str = "mc",
    *,
    report: NondegeneracyReport,
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
        ests.append(compute_index(f, t, budget=budget, seed=grid_seed(seed, i),
                                  method=method, report=report))
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
