"""Weight systems, non-degeneracy checks and the Milnor-number oracle.

Given a holomorphic polynomial f, the weight system is the exact rational
solution q of b . q = 1 over all exponent vectors b of f.  The module also
checks the two non-degeneracy conditions exactly (no bilinear monomial;
isolated critical point at the origin, decided from the weighted-graded
Jacobian ring), produces the tameness report with the gap quantities

    delta  = (1 - 3(q_M - q_m)) / (3 (1 - q_M))
    delta2 = (1 - 2(q_M - q_m)) / (2 (1 - q_M))
    delta3 = (1 - 3(q_M - q_m)) / (2 (1 - q_M))

and computes the Milnor number mu = prod_i (1/q_i - 1) and, as its
cross-check, the brute-force Jacobian-ring dimension from the same graded
pieces (the CLI reports it for mu <= BRUTE_FORCE_MAX_MU).  Everything
here is exact rational arithmetic, and the module imports no numpy, so it
answers for any coefficient: whether a coefficient fits the float range is
decided where the numeric layers convert it (`GaussianRational.__complex__`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from fractions import Fraction
from typing import List, Tuple

from .poly import MixedPolynomial, _monomial_str, gradient


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
    """grad f vanishes on a curve through 0: the Jacobian ring is infinite-dimensional.

    The certificate is a monomial of weighted degree `degree`, above the top
    degree sum_i (1 - 2 q_i) of an isolated singularity, that lies outside
    the Jacobian ideal (d_1 f, ..., d_n f).
    """

    def __init__(self, degree: Fraction, monomial: Tuple[int, ...]):
        super().__init__(f"grad f vanishes away from the origin: {_monomial_str(monomial, ())} "
                         f"of weighted degree {degree} is outside the Jacobian ideal")
        self.degree = degree
        self.monomial = monomial


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


class NondegeneracyReport:
    """What a passed check found: `nondegeneracy_check` raises on every failure.

    The check is exact and draws no points, so `samples` is 0.
    """

    samples = 0

    def to_json_dict(self) -> dict:
        return {"no_bilinear": True, "isolated_witness": {"passed": True, "heuristic": False}}


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


def _monomials(k: Tuple[int, ...], delta: int) -> List[Tuple[int, ...]]:
    """The exponent tuples e with sum_j e_j k_j = delta, in increasing order."""
    if delta < 0:
        return []
    heads = [((), delta)]  # exponents of the first variables, and the degree left
    for kj in k[:-1]:
        heads = [(e + (i,), left - i * kj) for e, left in heads for i in range(left // kj + 1)]
    return [e + (left // k[-1],) for e, left in heads if left % k[-1] == 0]


def _top_degree(d: int, k: Tuple[int, ...]) -> int:
    """c = d sum_i (1 - 2 q_i), the top weighted degree of an isolated f's Jacobian ring."""
    return sum(d - 2 * kj for kj in k)


def _jacobian_piece(grads: List[MixedPolynomial], d: int, k: Tuple[int, ...],
                    delta: int) -> Tuple[int, Tuple[int, ...] | None]:
    """dim A_delta of A = C[z]/(d_1 f, ..., d_n f), and a monomial spanning part of it.

    delta counts weighted degree in units of 1/d, so deg z_j = k_j and d_j f
    has degree d - k_j (d and k from `WeightVector`).  The rows m * d_j f of
    degree delta, each a dict from exponent tuple to coefficient, are
    reduced by sparse exact elimination that pivots on a row's largest
    monomial.  The monomials of degree delta that no row pivots on are a
    basis of A_delta; the first of them is returned, or None when A_delta = 0.
    """
    basis = _monomials(k, delta)
    if not basis:  # then no row has degree delta either
        return 0, None
    pivots: dict = {}  # leading monomial -> its row
    for j, g in enumerate(grads):
        for m in _monomials(k, delta - (d - k[j])):
            row = {tuple(map(add, a, m)): c for (a, _b), c in g.terms.items()}
            while row:
                lead = max(row)
                pivot = pivots.get(lead)
                if pivot is None:
                    pivots[lead] = row
                    break
                c = row[lead] / pivot[lead]
                for e, v in pivot.items():
                    x = row[e] - c * v if e in row else -(c * v)
                    if x:
                        row[e] = x
                    else:
                        del row[e]
    free = [m for m in basis if m not in pivots]
    return len(free), (free[0] if free else None)


def nondegeneracy_check(f: MixedPolynomial, wv: WeightVector) -> NondegeneracyReport:
    """Check the two non-degeneracy conditions of f, exactly.

    Condition (1), no bilinear monomial, is read off f.  Condition (2),
    isolated critical point at the origin, holds iff the Jacobian ring
    A = C[z]/(grad f) is finite-dimensional.  An isolated f has A_delta = 0
    above its top degree c = sum_i (1 - 2 q_i) (Milnor & Orlik, Topology 9
    (1970) 385), and every monomial of degree above c + max_i q_i is z_j
    times one of degree above c, so A is finite iff A_delta = 0 for every
    delta in (c, c + max_i q_i]; otherwise a monomial of such a degree
    outside the Jacobian ideal is raised as the certificate.  Both tests
    are exact, so every coefficient, however large or small, gets its
    verdict.
    """
    if has_bilinear_monomial(f):
        raise BilinearMonomialPresent("f contains a z_i*z_j monomial with i != j")
    grads, d, k = gradient(f), wv.d, wv.k
    c_top = _top_degree(d, k)
    for delta in range(c_top + 1, c_top + max(k) + 1):
        dim, monomial = _jacobian_piece(grads, d, k, delta)
        if dim:
            raise GradientVanishesAwayFromOrigin(Fraction(delta, d), monomial)
    return NondegeneracyReport()


# -- Milnor number ------------------------------------------------------------


# the CLI's `weights` reports milnor_brute_force for mu up to this: about 30 ms
# in-process (Python 3.11, 2 vCPUs of a Xeon)
BRUTE_FORCE_MAX_MU = 1000


def milnor_oracle(wv: WeightVector) -> int:
    """mu = prod_i (1/q_i - 1); raises NonIntegerMilnor if not an integer."""
    mu = Fraction(1)
    for qi in wv.q:
        mu *= 1 / qi - 1
    if mu.denominator != 1 or mu <= 0:
        raise NonIntegerMilnor(f"prod (1/q_i - 1) = {mu} is not a positive integer")
    return int(mu)


def milnor_brute_force(f: MixedPolynomial, wv: WeightVector) -> int:
    """dim C[z]/(grad f), summed over the weighted-graded pieces of degree <= c.

    For a weighted-homogeneous isolated singularity the Jacobian ring lives
    in weighted degrees <= c = sum_i (1 - 2 q_i) (see `nondegeneracy_check`),
    so this is its exact dimension, mu.
    """
    grads, d, k = gradient(f), wv.d, wv.k
    return sum(_jacobian_piece(grads, d, k, delta)[0] for delta in range(_top_degree(d, k) + 1))
