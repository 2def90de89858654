"""Exact parametrix of the heat operator d_t + (-Delta + V + B).

The parametrix is P_k(z, w, t) = E0 E1 sum_{j<=k} t^j U_j(z, w) with
E0 the Euclidean heat kernel, E1 = exp(-t g(z, w)), g the segment average
of the potential V = |grad f|^2, and operator-valued polynomial coefficients
U_j determined by U_0 = I and, for j >= 0,

  (j+1) U_{j+1} + (z-w).grad_z U_{j+1}
      = Delta_z U_j - B U_j - Delta_z g U_{j-1}
        - 2 grad_z g . grad_z U_{j-1} + (grad_z g)^2 U_{j-2},

where terms with a negative index vanish, solved exactly by the
tau-weighted segment average of the right-hand side.  At j = 0 the
right-hand side is -B, so U_1 = -int_0^1 B(s(z-w)+w) ds.  The same
right-hand side at j = k, k+1, k+2 with U_{k+1} = U_{k+2} = 0 gives the
remainder of the truncated parametrix.  All real-gradient expressions are
translated to Wirtinger form once: Delta = 4 sum d dbar,
grad.grad = 2 sum (d (x) dbar + dbar (x) d), (grad g)^2 = 4 sum dg dbar g.

An operator-valued polynomial is a SparseMap (gaussian_rational.py) from
canonicalized ExteriorOperator symbols to scalar two-point polynomial
coefficients (2n-slot MixedPolynomials in u = z - w and w, see poly.py), so
all polynomial calculus stays in the scalar factors and matrix products
happen once per distinct symbol pair (cached).  The map's sums, negation and
scaling are SparseMap's; only the symbol canonicalization is its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .clifford import ExteriorOperator, hessian_coupling
from .gaussian_rational import GaussianRational, SparseMap
from .poly import (
    MixedPolynomial,
    at_u_zero,
    evaluate_two_point,
    from_single_point,
    grad_dot_z,
    hermitian_gradient_square,
    hessian,
    laplacian_z,
    segment_average,
    swap_points,
    tau_weighted,
    u_euler,
)

_matmul_cache: Dict[tuple, ExteriorOperator] = {}


def _cached_matmul(a: ExteriorOperator, b: ExteriorOperator) -> ExteriorOperator:
    key = (a.canon_key(), b.canon_key())
    out = _matmul_cache.get(key)
    if out is None:
        out = a @ b
        _matmul_cache[key] = out
    return out


class OperatorPolynomial(SparseMap):
    """Two-point polynomial with ExteriorOperator coefficients.

    terms maps a symbol whose first (sorted) entry is 1 to its two-point
    polynomial; `scale` multiplies every polynomial by an exact number or by
    a two-point polynomial.
    """

    __slots__ = ()

    def __init__(self, n: int, terms: Dict[ExteriorOperator, MixedPolynomial] | None = None):
        self.n = n
        self.terms = {}
        for op, poly in (terms or {}).items():
            self._put(self.terms, op, poly)

    def _put(self, out, op: ExteriorOperator, poly: MixedPolynomial) -> None:
        """Scale op so its first (sorted) entry is 1, fold the factor into poly, accumulate."""
        if not op or not poly:
            return
        c0 = op.terms[min(op.terms)]
        if c0 != 1:
            op = op.scale(GaussianRational(1) / c0)
            poly = poly * c0
        super()._put(out, op, poly)

    @property
    def parts(self) -> Dict[ExteriorOperator, MixedPolynomial]:
        """terms, under the name perfbench/child.py reads."""
        return self.terms

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "OperatorPolynomial":
        return cls(n, {ExteriorOperator.identity(n): MixedPolynomial.constant(2 * n, 1)})

    # -- products (sums, negation and scaling are SparseMap's) ----------------

    def __matmul__(self, other: "OperatorPolynomial") -> "OperatorPolynomial":
        out: Dict[ExteriorOperator, MixedPolynomial] = {}
        for op1, p1 in self.terms.items():
            for op2, p2 in other.terms.items():
                self._put(out, _cached_matmul(op1, op2), p1 * p2)
        return self._raw(self.n, out)

    # -- z-direction calculus, applied to the scalar factors -----------------

    def map_polys(self, fn) -> "OperatorPolynomial":
        return OperatorPolynomial(self.n, {op: fn(poly) for op, poly in self.terms.items()})

    def laplacian_z(self) -> "OperatorPolynomial":
        return self.map_polys(laplacian_z)

    def u_euler(self) -> "OperatorPolynomial":
        return self.map_polys(u_euler)

    def tau_weighted(self, j: int) -> "OperatorPolynomial":
        return self.map_polys(lambda p: tau_weighted(p, j))

    def grad_dot_with(self, g: MixedPolynomial) -> "OperatorPolynomial":
        """grad_z g . grad_z self, scalar-gradient against each coefficient."""
        return self.map_polys(lambda p: grad_dot_z(g, p))

    # -- reductions ----------------------------------------------------------

    def supertrace(self) -> MixedPolynomial:
        out = MixedPolynomial.zero(2 * self.n)
        for op, poly in self.terms.items():
            s = op.supertrace()
            if s:
                out = out + poly * s
        return out

    def diagonal_supertrace(self) -> MixedPolynomial:
        """str of the operator polynomial restricted to z = w."""
        return at_u_zero(self.supertrace())

    def swap_points(self) -> "OperatorPolynomial":
        return self.map_polys(swap_points)

    def evaluate(self, z, w) -> np.ndarray:
        """The dense matrices at the point pairs (z[i], w[i]) of two (m, n) arrays."""
        z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
        rows = np.concatenate([z - w, w], axis=1)
        dim = 4 ** self.n
        out = np.zeros((len(rows), dim, dim), dtype=complex)
        for op, poly in self.terms.items():
            out += poly.evaluate_many(rows)[:, None, None] * op.to_numpy()
        return out

    def dump(self) -> str:
        """Canonical text dump: sorted symbols as (row,col)=entry lists with their polys."""
        lines = []
        items = sorted(self.terms.items(), key=lambda kv: kv[0].canon_key())
        for op, poly in items:
            trip = "; ".join(f"({r},{c})={_fmt_coeff(v)}" for (r, c), v in op.sorted_terms())
            lines.append(f"[{trip}] * ({poly})")
        return "\n".join(lines) if lines else "0"

    def __repr__(self):
        return f"OperatorPolynomial(n={self.n}, symbols={len(self.terms)})"


def _fmt_coeff(v: GaussianRational) -> str:
    return f"{v.re}{'+' if v.im >= 0 else ''}{v.im}i" if v.im else str(v.re)


# -- bundle construction ---------------------------------------------------------


@dataclass
class ParametrixBundle:
    f: MixedPolynomial
    k: int
    V: MixedPolynomial
    g: MixedPolynomial
    B: OperatorPolynomial
    U: List[OperatorPolynomial]
    # derived from g once by build_U: Delta g and (grad g)^2
    lap_g: MixedPolynomial
    grad_sq_g: MixedPolynomial
    # the three remainder groups, built on first use by residual_polynomials
    residual_groups: Optional[Tuple[OperatorPolynomial, ...]] = field(
        default=None, init=False, repr=False, compare=False)


def build_g(V: MixedPolynomial) -> MixedPolynomial:
    """Mean value of V along the segment, with both invariants verified."""
    if not V.is_real():
        raise ValueError("potential must be a real polynomial")
    g = segment_average(V, 0)
    if not (swap_points(g) - g).is_zero():
        raise AssertionError("mean-value function is not point-symmetric")
    if not (u_euler(g) + g - from_single_point(V)).is_zero():
        raise AssertionError("Euler identity (z-w).grad g + g = V failed")
    return g


def build_B(f: MixedPolynomial) -> OperatorPolynomial:
    """The Hessian coupling operator as a polynomial in z = u + w."""
    out = OperatorPolynomial.zero(f.n)
    for atom, coeff in hessian_coupling(hessian(f)):
        out = out + OperatorPolynomial(f.n, {atom: from_single_point(coeff)})
    return out


def _recursion_rhs(bundle: ParametrixBundle, U, j) -> OperatorPolynomial:
    """Delta U_j - B U_j - Delta g U_{j-1} - 2 grad g . grad U_{j-1} + (grad g)^2 U_{j-2}.

    Terms with a negative index vanish, so j = 0 gives -B.
    """
    rhs = U[j].laplacian_z() - (bundle.B @ U[j])
    if j >= 1:
        rhs = rhs - U[j - 1].scale(bundle.lap_g) \
            - U[j - 1].grad_dot_with(bundle.g).scale(2)
    if j >= 2:
        rhs = rhs + U[j - 2].scale(bundle.grad_sq_g)
    return rhs


def _recursion_lhs(U, j) -> OperatorPolynomial:
    """(j+1) U_{j+1} + (z-w).grad_z U_{j+1}."""
    return U[j + 1].scale(j + 1) + U[j + 1].u_euler()


def build_U(f: MixedPolynomial, k: int) -> ParametrixBundle:
    """U_0..U_k exactly, with the defining identities re-verified after the fact.

    Each order's recursion identity is checked exactly against the
    right-hand side the build solved, which is not computed a second time;
    recursion_residual recomputes it for an independent check.
    """
    if k < 0:
        raise ValueError("truncation order must be non-negative")
    V = hermitian_gradient_square(f)
    g = build_g(V)
    bundle = ParametrixBundle(
        f=f, k=k, V=V, g=g, B=build_B(f), U=[OperatorPolynomial.identity(f.n)],
        lap_g=laplacian_z(g), grad_sq_g=grad_dot_z(g, g),
    )
    U = bundle.U
    rhs = []
    for j in range(k):
        rhs.append(_recursion_rhs(bundle, U, j))
        U.append(rhs[j].tau_weighted(j))

    for j in range(k):
        if not (_recursion_lhs(U, j) - rhs[j]).is_zero():
            raise AssertionError(f"recursion identity failed at j={j}")
    if k >= 1 and not (U[1].swap_points() - U[1]).is_zero():
        raise AssertionError("U_1 is not symmetric in z and w")
    return bundle


def recursion_residual(bundle: ParametrixBundle, j: int) -> OperatorPolynomial:
    """Left-hand side of the order-j recursion identity; zero when satisfied.

    (j+1) U_{j+1} + (z-w).grad U_{j+1} - Delta U_j + B U_j
        + Delta g U_{j-1} + 2 grad g . grad U_{j-1} - (grad g)^2 U_{j-2}
    """
    if not 0 <= j <= bundle.k - 1:
        raise ValueError("recursion index out of range")
    return _recursion_lhs(bundle.U, j) - _recursion_rhs(bundle, bundle.U, j)


# -- evaluation -------------------------------------------------------------------


def _as_point(z: Sequence[complex]) -> List[complex]:
    return [complex(v) for v in np.atleast_1d(z)]


def _gaussian(bundle: ParametrixBundle, z: List[complex], w: List[complex], t: float) -> float:
    """The prefactor E0 E1 = (4 pi t)^{-n} exp(-|z-w|^2 / 4t) exp(-t g(z, w))."""
    d2 = sum(abs(a - b) ** 2 for a, b in zip(z, w))
    e0 = (4 * math.pi * t) ** (-bundle.f.n) * math.exp(-d2 / (4 * t))
    return e0 * math.exp(-t * evaluate_two_point(bundle.g, z, w).real)


def evaluate_Pk(
    bundle: ParametrixBundle, z: Sequence[complex], w: Sequence[complex], t: float
) -> np.ndarray:
    """P_k(z, w, t) = E0 E1 sum t^j U_j as a dense complex matrix."""
    if t <= 0:
        raise ValueError("t must be positive")
    z, w = _as_point(z), _as_point(w)
    dim = 4 ** bundle.f.n
    acc = np.zeros((dim, dim), dtype=complex)
    for j, Uj in enumerate(bundle.U):
        acc += t ** j * Uj.evaluate([z], [w])[0]
    return _gaussian(bundle, z, w, t) * acc


# -- remainder ---------------------------------------------------------------------


def residual_polynomials(bundle: ParametrixBundle) -> Tuple[OperatorPolynomial, ...]:
    """The three t-groups of the divided remainder R~ = R / (E0 E1).

    R~ = T_k t^k + T_{k+1} t^{k+1} + T_{k+2} t^{k+2}, where T_{k+i} is minus
    the recursion's right-hand side at order k + i with U_{k+1} = U_{k+2} = 0:

        T_k     = -Delta U_k + B U_k + Delta g U_{k-1}
                  + 2 grad g . grad U_{k-1} - (grad g)^2 U_{k-2}
        T_{k+1} = Delta g U_k + 2 grad g . grad U_k - (grad g)^2 U_{k-1}
        T_{k+2} = -(grad g)^2 U_k
    """
    k = bundle.k
    if k < 2:
        raise ValueError("residual groups need k >= 2")
    if bundle.residual_groups is None:
        U = bundle.U + [OperatorPolynomial.zero(bundle.f.n)] * 2
        bundle.residual_groups = tuple(-_recursion_rhs(bundle, U, k + i) for i in range(3))
    return bundle.residual_groups


def _remainder(mats: Sequence[np.ndarray], k: int, t: float) -> np.ndarray:
    """sum_i t^{k+i} T_{k+i} from the groups evaluated at one point pair."""
    return sum(t ** (k + i) * m for i, m in enumerate(mats))


def evaluate_residual(
    bundle: ParametrixBundle,
    z: Sequence[complex],
    w: Sequence[complex],
    t: float,
    include_gaussian: bool = False,
) -> np.ndarray:
    """R~(z, w, t) (or the full R when include_gaussian is set)."""
    z, w = _as_point(z), _as_point(w)
    mats = [grp.evaluate([z], [w])[0] for grp in residual_polynomials(bundle)]
    acc = _remainder(mats, bundle.k, t)
    if include_gaussian:
        acc = acc * _gaussian(bundle, z, w, t)
    return acc


@dataclass(frozen=True)
class ResidualReport:
    fitted_exponents: Tuple[float, ...]
    min_exponent: float


_RESIDUAL_T_GRID = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05)  # of the log-log fit


def residual_order_check(
    bundle: ParametrixBundle, samples: int = 8, seed: int = 0
) -> ResidualReport:
    """Fit the leading t-exponent of |R~| at random points.

    The exponent is the log-log slope over the grid t = 0.001 .. 0.05; it
    should match the residual's leading group t^k (coefficients of the lower
    groups vanish by the recursion identity).
    """
    if bundle.k < 2:
        raise ValueError("residual check needs k >= 2")
    # per sample: Re z, Im z, Re w, Im w; every group is evaluated at all pairs at once
    x = np.random.default_rng(seed).normal(scale=0.7, size=(samples, 4, bundle.f.n))
    z, w = x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3]
    mats = [grp.evaluate(z, w) for grp in residual_polynomials(bundle)]
    exps = []
    for i in range(samples):
        norms = np.array([
            np.linalg.norm(_remainder([m[i] for m in mats], bundle.k, t))
            for t in _RESIDUAL_T_GRID
        ])
        if np.any(norms == 0):
            continue
        lt = np.log(_RESIDUAL_T_GRID)
        slope = np.polyfit(lt, np.log(norms), 1)[0]
        exps.append(float(slope))
    return ResidualReport(
        fitted_exponents=tuple(exps),
        min_exponent=min(exps) if exps else float("nan"),
    )


def dump_bundle(bundle: ParametrixBundle) -> str:
    """Canonical text snapshot of g and each U_j for regression diffs."""
    lines = [f"# parametrix bundle k={bundle.k} f={bundle.f}"]
    lines.append(f"V = {bundle.V}")
    lines.append(f"g = {bundle.g}")
    for j, Uj in enumerate(bundle.U):
        lines.append(f"-- U_{j} --")
        lines.append(Uj.dump())
    return "\n".join(lines)
