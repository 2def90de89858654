"""Weight systems, non-degeneracy checks and the Milnor-number oracle.

Given a holomorphic polynomial f, the weight system is the exact rational
solution q of b . q = 1 over all exponent vectors b of f.  The module also
checks the two non-degeneracy conditions (no bilinear monomial; isolated
critical point at the origin, verified heuristically by randomized witness
sampling plus local descent on the weighted unit sphere), produces the
tameness report with the gap quantities

    delta  = (1 - 3(q_M - q_m)) / (3 (1 - q_M))
    delta2 = (1 - 2(q_M - q_m)) / (2 (1 - q_M))
    delta3 = (1 - 3(q_M - q_m)) / (2 (1 - q_M))

and computes the Milnor number mu = prod_i (1/q_i - 1), cross-checked for
small cases against the brute-force Jacobian-ring dimension.  Everything but
the witness check is exact, and only the witness functions import numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .gaussian_rational import GaussianRational
from .poly import MixedPolynomial, evaluate_joint, gradient, gradient_square, hessian


class DegenerateSingularity(ValueError):
    """f is not an isolated quasi-homogeneous singularity the package handles."""


class NotQuasiHomogeneous(DegenerateSingularity):
    """The weight system b . q = 1 is inconsistent."""


class WeightsNotUnique(DegenerateSingularity):
    """The weight system has rank < n; weights are not determined."""


class WeightOutOfRange(DegenerateSingularity):
    """Some solved weight falls outside (0, 1/2]."""


class BilinearMonomialPresent(DegenerateSingularity):
    """f contains a monomial z_i z_j with i != j."""


class GradientVanishesAwayFromOrigin(DegenerateSingularity):
    """A witness point z != 0 with grad f(z) = 0 was found."""

    def __init__(self, witness):
        super().__init__(f"gradient vanishes near {witness}")
        self.witness = witness


class NonIntegerMilnor(DegenerateSingularity):
    """prod (1/q_i - 1) is not a positive integer."""


class ConstancyViolated(RuntimeError):
    """Two index estimates on the t-grid disagree beyond 3 combined sigma.

    Raised by `index_integral.mckean_singer_check`, which re-exports it; it
    lives here so that the CLI's exit codes need no numeric module.
    """

    def __init__(self, t1, t2, zscore):
        super().__init__(f"estimates at t={t1} and t={t2} differ at z={zscore:.2f}")
        self.pair = (t1, t2)
        self.zscore = zscore


@dataclass(frozen=True)
class WeightVector:
    """Exact weights q_i in (0, 1/2] with q_i = k_i / d, gcd(d, k_1..k_n) = 1."""

    q: Tuple[Fraction, ...]

    def __post_init__(self):
        for qi in self.q:
            if not (0 < qi <= Fraction(1, 2)):
                raise WeightOutOfRange(f"weight {qi} outside (0, 1/2]")

    @property
    def n(self) -> int:
        return len(self.q)

    @property
    def q_max(self) -> Fraction:
        return max(self.q)

    @property
    def q_min(self) -> Fraction:
        return min(self.q)

    @property
    def d(self) -> int:
        return math.lcm(*(qi.denominator for qi in self.q))

    @property
    def k(self) -> Tuple[int, ...]:
        d = self.d
        return tuple(int(qi * d) for qi in self.q)


@dataclass(frozen=True)
class NondegeneracyReport:
    """What a passed witness measured: `nondegeneracy_check` raises on every failure.

    `min_grad_norm`, the least |grad f| over the raw samples, is a diagnostic
    that can underflow to 0.0; `fitted_C` is the scale C of the growth floor
    |grad f|^2 >= |z|^2 / C - 1, exported for importance sampling.
    """

    samples: int
    min_grad_norm: float
    fitted_C: float

    def to_json_dict(self) -> dict:
        return {
            "no_bilinear": True,
            "isolated_witness": {
                "passed": True,
                "samples": self.samples,
                "min_grad_norm": self.min_grad_norm,
                "heuristic": True,
            },
            "fitted_C": self.fitted_C,
        }


@dataclass(frozen=True)
class TamenessReport:
    q_max: Fraction
    q_min: Fraction
    gap: Fraction
    delta: Fraction
    delta2: Fraction
    delta3: Fraction
    condition_13: bool

    def to_json_dict(self) -> dict:
        return {
            "q_max": str(self.q_max),
            "q_min": str(self.q_min),
            "gap": str(self.gap),
            "delta": str(self.delta),
            "delta2": str(self.delta2),
            "delta3": str(self.delta3),
            "condition_13": self.condition_13,
        }


# -- weight solving ----------------------------------------------------------


def _rref(rows: List[list]) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form over Q or Q(i); returns (matrix, pivot columns).

    Entries are `Fraction`s or `GaussianRational`s; a pivot is any nonzero
    (truthy) entry.
    """
    mat = [row[:] for row in rows]
    m = len(mat)
    ncols = len(mat[0]) if m else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, m) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(m):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return mat, pivots


def solve_weights(f: MixedPolynomial) -> WeightVector:
    """Solve {b . q = 1 for every exponent b of f} exactly.

    Raises NotQuasiHomogeneous when inconsistent, WeightsNotUnique when the
    exponent matrix has rank < n, and WeightOutOfRange when a solved weight
    leaves (0, 1/2].
    """
    if f.is_zero():
        raise NotQuasiHomogeneous("zero polynomial")
    if not f.is_holomorphic():
        raise ValueError("weight system is defined for holomorphic polynomials")
    n = f.n
    rows = [[Fraction(e) for e in a] + [Fraction(1)] for (a, _b) in f.terms]
    mat, pivots = _rref(rows)
    rank = len(pivots)
    # _rref pivots on the right-hand side too: an inconsistent system has a
    # pivot in column n, from a row 0 = 1
    if n in pivots:
        raise NotQuasiHomogeneous("weight system is inconsistent")
    if rank < n:
        raise WeightsNotUnique(f"weight system has rank {rank} < {n}")
    q = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        q[c] = mat[i][-1]
    return WeightVector(tuple(q))  # raises WeightOutOfRange outside (0, 1/2]


def weight_residuals(f: MixedPolynomial, wv: WeightVector) -> List[Fraction]:
    """b . q - 1 per exponent of f; all zero iff q solves the system."""
    return [
        sum((Fraction(e) * qi for e, qi in zip(a, wv.q)), Fraction(0)) - 1
        for (a, _b) in f.terms
    ]


# -- tameness ---------------------------------------------------------------


def tameness_report(wv: WeightVector) -> TamenessReport:
    qM, qm = wv.q_max, wv.q_min
    gap = qM - qm
    one = Fraction(1)
    return TamenessReport(
        q_max=qM,
        q_min=qm,
        gap=gap,
        delta=(one - 3 * gap) / (3 * (one - qM)),
        delta2=(one - 2 * gap) / (2 * (one - qM)),
        delta3=(one - 3 * gap) / (2 * (one - qM)),
        condition_13=gap < Fraction(1, 3),
    )


# -- non-degeneracy ----------------------------------------------------------


def has_bilinear_monomial(f: MixedPolynomial) -> bool:
    for (a, b) in f.terms:
        if any(b):
            continue
        if sum(a) == 2 and max(a) == 1:
            return True
    return False


_DESCENT_STARTS = 8  # descents, from the witness points lowest in |grad f|^2 on the sphere
_DESCENT_STEPS = 300


def _to_weighted_sphere(Z: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Move each row of Z along (lambda . z)_i = lambda^(q_i) z_i onto max_i |z_i|^(1/q_i) = 1."""
    import numpy as np

    rho = (np.abs(Z) ** (1 / q)).max(axis=1)
    return Z * rho[:, None] ** -q


def _descend_to_critical(grads, hess, q: np.ndarray, Z: np.ndarray, h_scale: float) -> np.ndarray:
    """Gradient descent on h = |grad f|^2 from each row of Z, on the weighted unit sphere of q.

    Each step is moved back onto the sphere, so no row creeps towards the
    origin, where |grad f| is tiny for a high-degree f.  Each row keeps its
    own step and stops at h below 1e-24 h_scale or at a step below 1e-12.
    """
    import numpy as np

    n = len(grads)
    # d_i d_k f and d_k d_i f are both built from f's terms in f's order, so
    # the entries with i <= k hold the whole symmetric Hessian, to the bit
    assert all(list(hess[i][k].terms.items()) == list(hess[k][i].terms.items())
               for i in range(n) for k in range(i))
    upper = [(i, k) for i in range(n) for k in range(i, n)]
    Z, step = Z.copy(), np.full(len(Z), 0.1)
    val = gradient_square(grads, Z)
    rows = np.arange(len(Z))  # the rows still descending
    for _ in range(_DESCENT_STEPS):
        z = Z[rows]
        # d_i f, then d_i d_k f for i <= k, from one table of column powers
        vals = list(evaluate_joint(grads + [hess[i][k] for i, k in upper], z))
        gv, hv = vals[:n], dict(zip(upper, vals[n:]))
        # d h / d conj(z_k) = sum_i (d_i f)(z) * conj(d_k d_i f)(z)
        d = np.stack([sum(gi * np.conj(hv[min(i, k), max(i, k)]) for i, gi in enumerate(gv))
                      for k in range(n)], axis=1)
        # d scales with |c|^2 for c f: a power of two per row brings it near 1,
        # so its norm neither overflows nor underflows, and the step
        # (step / nrm) d is the same to the bit
        _, e = np.frexp(np.abs(d).max(axis=1))
        d *= np.ldexp(1.0, np.minimum(-e, 1023))[:, None]
        nrm = np.linalg.norm(d, axis=1)
        go = (nrm > 0) & (val[rows] >= 1e-24 * h_scale)
        rows, z, d, nrm = rows[go], z[go], d[go], nrm[go]
        cand = _to_weighted_sphere(z - (step[rows] / nrm)[:, None] * d, q)
        cval = gradient_square(grads, cand)
        better = cval < val[rows]
        Z[rows[better]], val[rows[better]] = cand[better], cval[better]
        step[rows] *= np.where(better, 1.3, 0.5)
        rows = rows[step[rows] >= 1e-12]
        if rows.size == 0:
            break
    return Z


# witness points in total, split as evenly as possible over the sphere radii
WITNESS_SAMPLES = 12000
_WITNESS_RADII = (0.1, 1.0, 10.0)


def nondegeneracy_check(
    f: MixedPolynomial,
    wv: WeightVector,
    samples: int = WITNESS_SAMPLES,
    seed: int = 0,
) -> NondegeneracyReport:
    """Check the two non-degeneracy conditions.

    Condition (1), no bilinear monomial, is exact.  Condition (2), isolated
    critical point at the origin, is a randomized witness check: sample
    `samples` points in total on three spheres, move them onto the weighted
    unit sphere of `wv`, descend on that sphere from the lowest to hunt for
    off-origin critical points, and fit the quadratic growth floor
    |grad f|^2 >= |z|^2 / C - 1.  Sound for rejection, heuristic for
    acceptance.
    """
    import numpy as np

    if has_bilinear_monomial(f):
        raise BilinearMonomialPresent("f contains a z_i*z_j monomial with i != j")
    grads = gradient(f)
    rng = np.random.default_rng(seed)
    n = f.n
    per = samples // len(_WITNESS_RADII)
    pts = []
    for i, r in enumerate(_WITNESS_RADII):
        m = per + (1 if i < samples - per * len(_WITNESS_RADII) else 0)
        x = rng.normal(size=(m, 2 * n))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        pts.append(r * (x[:, :n] + 1j * x[:, n:]))
    Z = np.concatenate(pts, axis=0)
    q = np.array([float(qi) for qi in wv.q])
    with np.errstate(over="ignore"):  # h_scale below rejects an h that overflows
        grad_sq = gradient_square(grads, Z)
        S = _to_weighted_sphere(Z, q)
        h = gradient_square(grads, S)

    # an off-origin critical point has a whole C* orbit of them, so it meets
    # the weighted unit sphere, where |grad f| of an isolated singularity is
    # bounded away from zero whatever its degree: descend there.  h scales
    # with |c|^2 for c f, so its thresholds are relative to its largest value.
    # The raw samples reach radius 10, where |grad f|^2 can overflow while h
    # does not, and the growth floor below needs them finite too
    h_scale = float(h.max())
    for value in (h_scale, float(grad_sq.max())):
        if not 0 < value < math.inf:
            raise ValueError(f"a coefficient is outside the float range: |grad f|^2 = {value}")
    # the thresholds 1e-24 h_scale and 1e-20 h_scale must stay normal floats,
    # or they reach 0 and nothing can be rejected
    if 1e-24 * h_scale < np.finfo(float).tiny:
        raise ValueError(f"a coefficient is outside the float range: h_scale = {h_scale}")
    starts = S[np.argsort(h)[:_DESCENT_STARTS]]
    ends = _descend_to_critical(grads, hessian(f), q, starts, h_scale)
    for zc, hv in zip(ends, gradient_square(grads, ends)):
        if hv < 1e-20 * h_scale:
            raise GradientVanishesAwayFromOrigin(tuple(complex(v) for v in zc))

    # growth floor |grad f|^2 >= |z|^2/C - 1: C must dominate the max sample
    # ratio.  A 1.5x margin keeps downstream importance weights bounded when
    # samples undershoot
    ratio = (np.abs(Z) ** 2).sum(axis=1) / (grad_sq + 1.0)
    return NondegeneracyReport(
        samples=int(Z.shape[0]),
        min_grad_norm=float(np.sqrt(grad_sq.min())),
        fitted_C=1.5 * float(ratio.max()),
    )


# -- Milnor number ------------------------------------------------------------


def milnor_oracle(wv: WeightVector) -> int:
    """mu = prod_i (1/q_i - 1); raises NonIntegerMilnor if not an integer."""
    mu = Fraction(1)
    for qi in wv.q:
        mu *= 1 / qi - 1
    if mu.denominator != 1 or mu <= 0:
        raise NonIntegerMilnor(f"prod (1/q_i - 1) = {mu} is not a positive integer")
    return int(mu)


def milnor_brute_force(f: MixedPolynomial, wv: WeightVector) -> int:
    """dim C[z]/(grad f) by exact linear algebra on the weighted-graded pieces.

    For a weighted-homogeneous isolated singularity the Jacobian ring lives
    in weighted degrees <= c = sum_i (1 - 2 q_i), so counting monomials of
    weighted degree <= c modulo the relations m * d_i f of weighted degree
    <= c gives the exact dimension.  Intended for n <= 2, degree <= 6.
    """
    n = f.n
    q = wv.q
    c_top = sum((1 - 2 * qi for qi in q), Fraction(0))

    def monomials_up_to(bound: Fraction) -> List[Tuple[int, ...]]:
        out: List[Tuple[int, ...]] = []

        def rec(prefix: List[int], j: int, left: Fraction):
            if j == n:
                out.append(tuple(prefix))
                return
            e = 0
            while e * q[j] <= left:
                rec(prefix + [e], j + 1, left - e * q[j])
                e += 1

        rec([], 0, bound)
        return sorted(out)

    basis = monomials_up_to(c_top)
    index = {m: i for i, m in enumerate(basis)}
    rows: List[List[GaussianRational]] = []
    zero = GaussianRational(0)
    for i, gi in enumerate(gradient(f)):
        wdeg_gi = Fraction(1) - q[i]
        for m in monomials_up_to(c_top - wdeg_gi):
            row = [zero] * len(basis)
            filled = False
            for (a, _b), coeff in gi.terms.items():
                e = tuple(x + y for x, y in zip(a, m))
                if e in index:
                    row[index[e]] = row[index[e]] + coeff
                    filled = True
            if filled:
                rows.append(row)
    return len(basis) - len(_rref(rows)[1])
