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

Each right-hand side is one product kernel call per canonical symbol: its
five terms become (c, p, q) triples under their symbols, in the order
written above, and poly's kernel sums each symbol's triples at once.  The
left-hand side is one pass over the terms of U_{j+1}, each times j + 1
plus its u-degree, the inverse of the tau average; build_U checks it
against the right-hand side it solved by exact equality.

An operator-valued polynomial is a SparseMap (gaussian_rational.py) from
canonical ExteriorOperator symbols to scalar two-point polynomial
coefficients (2n-slot MixedPolynomials in u = z - w and w, see poly.py), so
all polynomial calculus stays in the scalar factors.  A symbol becomes
canonical once: at construction (`_by_symbol`) or at the first product that
makes it, whose canonical form and factor the product cache keeps.  The
map's sums, negation and scaling are SparseMap's, and the scalar calculus
(`map_polys`) keeps the symbols as they are.  The product groups the symbol
pairs by their cached canonical product and makes each symbol's poly, the
sum of its pairs' scalar products, in one call of poly's exact product
kernel; the right-hand side takes the pairs of B U_j the same way.
Nothing else is memoized: the remainder groups are recomputed on each call.

Numeric evaluation takes the point pairs as two complex (m, n) arrays z and
w and returns an (m, 4^n, 4^n) stack, one dense matrix per pair; the
scalar factors of an operator polynomial go through one
poly.evaluate_two_point_joint call.  Only the evaluators import numpy:
building and checking the parametrix is numpy-free.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Tuple

from .clifford import ExteriorOperator, hessian_coupling
from .gaussian_rational import GaussianRational, SparseMap
from .poly import (
    MixedPolynomial,
    _sum_of_products,
    at_u_zero,
    evaluate_two_point,
    evaluate_two_point_joint,
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

_matmul_cache: Dict[tuple, Optional[Tuple[ExteriorOperator, GaussianRational]]] = {}


def _cached_matmul(a: ExteriorOperator, b: ExteriorOperator):
    """(symbol, c) with a @ b = c * symbol, symbol canonical; None when a @ b is zero.

    Each distinct product is computed, and made canonical, once.
    """
    key = (a.canon_key(), b.canon_key())
    if key not in _matmul_cache:
        op = a @ b
        _matmul_cache[key] = _canonical(op) if op else None
    return _matmul_cache[key]


def _canonical(op: ExteriorOperator) -> Tuple[ExteriorOperator, GaussianRational]:
    """(symbol, c) with op = c * symbol and the symbol's first (sorted) entry 1."""
    c0 = op.terms[min(op.terms)]
    return (op, c0) if c0 == 1 else (op.scale(GaussianRational(1) / c0), c0)


def _symbol_products(P: "OperatorPolynomial", Q: "OperatorPolynomial"):
    """(symbol, c, p, q) for each symbol pair of P @ Q whose product c * symbol is nonzero."""
    for op1, p1 in P.terms.items():
        for op2, p2 in Q.terms.items():
            product = _cached_matmul(op1, op2)
            if product is not None:
                yield product[0], product[1], p1, p2


def _summed_by_symbol(n: int, groups) -> Dict[ExteriorOperator, MixedPolynomial]:
    """Each symbol's (c, p, q) triples summed by one product kernel call, zero sums dropped."""
    return SparseMap._nonzero({op: _sum_of_products(2 * n, triples)
                               for op, triples in groups.items()})


def _by_symbol(pairs) -> Dict[ExteriorOperator, MixedPolynomial]:
    """The (symbol, poly) pairs summed by canonical symbol, zero sums dropped.

    A zero symbol contributes nothing; another is made canonical and its
    factor folded into its poly.
    """
    out: Dict[ExteriorOperator, MixedPolynomial] = {}
    for op, poly in pairs:
        if op:
            op, c0 = _canonical(op)
            if c0 != 1:
                poly = poly * c0
            out[op] = out[op] + poly if op in out else poly
    return SparseMap._nonzero(out)


class OperatorPolynomial(SparseMap):
    """Two-point polynomial with ExteriorOperator coefficients.

    terms maps a symbol whose first (sorted) entry is 1 to its two-point
    polynomial; `scale` multiplies every polynomial by an exact number or by
    a two-point polynomial.
    """

    __slots__ = ()

    def __init__(self, n: int, terms: Dict[ExteriorOperator, MixedPolynomial] | None = None):
        self.n = n
        self.terms = _by_symbol((terms or {}).items())

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
        """The symbol products grouped by canonical symbol, then one product kernel per symbol."""
        groups: Dict[ExteriorOperator, list] = {}
        for op, c0, p1, p2 in _symbol_products(self, other):
            groups.setdefault(op, []).append((c0, p1, p2))
        return self._raw(self.n, _summed_by_symbol(self.n, groups))

    # -- z-direction calculus, applied to the scalar factors -----------------

    def map_polys(self, fn) -> "OperatorPolynomial":
        """fn applied to every poly; the symbols, already canonical, are kept."""
        return self._raw(self.n, self._nonzero({op: fn(poly) for op, poly in self.terms.items()}))

    def tau_weighted(self, j: int) -> "OperatorPolynomial":
        return self.map_polys(lambda p: tau_weighted(p, j))

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
        """The (m, 4^n, 4^n) stack of dense matrices at the point pairs of two (m, n) arrays."""
        import numpy as np

        dim = 4 ** self.n
        out = np.zeros((len(z), dim, dim), dtype=complex)
        if self.terms:
            values = evaluate_two_point_joint(list(self.terms.values()), z, w)
            for op, v in zip(self.terms, values):
                out += v[:, None, None] * op.to_numpy()
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


class ParametrixBundle(NamedTuple):
    f: MixedPolynomial
    k: int
    V: MixedPolynomial
    g: MixedPolynomial
    B: OperatorPolynomial
    U: List[OperatorPolynomial]
    # derived from g once by build_U: Delta g, (grad g)^2 and the Wirtinger
    # derivatives (d_i g, dbar_i g) for i = 1..n
    lap_g: MixedPolynomial
    grad_sq_g: MixedPolynomial
    grad_g: Tuple[Tuple[MixedPolynomial, MixedPolynomial], ...]


def build_g(V: MixedPolynomial) -> MixedPolynomial:
    """Mean value of V along the segment, with both invariants verified."""
    if not V.is_real():
        raise ValueError("potential must be a real polynomial")
    g = segment_average(V, 0)
    if not (swap_points(g) - g).is_zero():
        raise AssertionError("mean-value function is not point-symmetric")
    if u_euler(g, 1) != from_single_point(V):
        raise AssertionError("Euler identity (z-w).grad g + g = V failed")
    return g


def build_B(f: MixedPolynomial) -> OperatorPolynomial:
    """The Hessian coupling operator as a polynomial in z = u + w."""
    pairs = ((atom, from_single_point(coeff)) for atom, coeff in hessian_coupling(hessian(f)))
    return OperatorPolynomial._raw(f.n, _by_symbol(pairs))


def _z_derivatives(P: OperatorPolynomial) -> Dict[ExteriorOperator, List[MixedPolynomial]]:
    """[d_1 p, ..., d_n p] of each poly p of P, under its symbol."""
    return {op: [p.wirtinger(i) for i in range(1, P.n + 1)] for op, p in P.terms.items()}


def _recursion_rhs(bundle: ParametrixBundle, U, j,
                   d_cur=None, d_prev=None) -> OperatorPolynomial:
    """Delta U_j - B U_j - Delta g U_{j-1} - 2 grad g . grad U_{j-1} + (grad g)^2 U_{j-2}.

    Terms with a negative index vanish, so j = 0 gives -B.  Each term adds
    (c, p, q) triples under canonical symbols, in Wirtinger form and in
    this order: 4 d_i dbar_i p against the constant 1; the symbol pairs of
    B U_j, taken as the operator product takes them; p against Delta g;
    the 2n products -4 d_i g dbar_i p and -4 dbar_i g d_i p; and p against
    (grad g)^2.  Each symbol's poly is one product kernel call over its
    triples.  `d_cur` and `d_prev` are `_z_derivatives` of U_j and U_{j-1},
    taken here when not given: build_U passes each order's d_cur on as the
    next order's d_prev, so every d_i p is taken once.
    """
    n = bundle.f.n
    one = MixedPolynomial.constant(2 * n, 1)
    groups: Dict[ExteriorOperator, list] = {}

    def add(op, c, p, q):
        if p and q:
            groups.setdefault(op, []).append((c, p, q))

    if d_cur is None:
        d_cur = _z_derivatives(U[j])
    for op, dp in d_cur.items():
        for i, dp_i in enumerate(dp, 1):
            add(op, 4, dp_i.wirtinger(i, conjugated=True), one)
    for op, c0, p1, p2 in _symbol_products(bundle.B, U[j]):
        add(op, -c0, p1, p2)
    if j >= 1:
        if d_prev is None:
            d_prev = _z_derivatives(U[j - 1])
        for op, p in U[j - 1].terms.items():
            add(op, -1, p, bundle.lap_g)
            for i, (dg, dbar_g) in enumerate(bundle.grad_g, 1):
                add(op, -4, dg, p.wirtinger(i, conjugated=True))
                add(op, -4, dbar_g, d_prev[op][i - 1])
    if j >= 2:
        for op, p in U[j - 2].terms.items():
            add(op, 1, p, bundle.grad_sq_g)
    return OperatorPolynomial._raw(n, _summed_by_symbol(n, groups))


def _recursion_lhs(U, j) -> OperatorPolynomial:
    """(j+1) U_{j+1} + (z-w).grad_z U_{j+1}: each term times j + 1 plus its u-degree."""
    return U[j + 1].map_polys(lambda p: u_euler(p, j + 1))


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
        grad_g=tuple((g.wirtinger(i), g.wirtinger(i, conjugated=True))
                     for i in range(1, f.n + 1)),
    )
    U = bundle.U
    rhs, d_prev = [], None
    for j in range(k):
        d_cur = _z_derivatives(U[j])
        rhs.append(_recursion_rhs(bundle, U, j, d_cur, d_prev))
        U.append(rhs[j].tau_weighted(j))
        d_prev = d_cur

    for j in range(k):  # normal forms are unique, so the identity is an equality
        if _recursion_lhs(U, j) != rhs[j]:
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


def _gaussian(bundle: ParametrixBundle, z, w, t: float) -> np.ndarray:
    """The prefactor E0 E1 = (4 pi t)^{-n} exp(-|z-w|^2 / 4t) exp(-t g(z, w)) of each pair."""
    import numpy as np

    d2 = (np.abs(np.asarray(z) - np.asarray(w)) ** 2).sum(axis=1)
    e0 = (4 * math.pi * t) ** (-bundle.f.n) * np.exp(-d2 / (4 * t))
    return e0 * np.exp(-t * evaluate_two_point(bundle.g, z, w).real)


def evaluate_Pk(bundle: ParametrixBundle, z, w, t: float) -> np.ndarray:
    """P_k(z, w, t) = E0 E1 sum t^j U_j as an (m, 4^n, 4^n) stack of dense matrices."""
    if not t > 0:
        raise ValueError("t must be positive")
    acc = sum(t ** j * Uj.evaluate(z, w) for j, Uj in enumerate(bundle.U))
    return _gaussian(bundle, z, w, t)[:, None, None] * acc


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
    U = bundle.U + [OperatorPolynomial.zero(bundle.f.n)] * 2
    return tuple(-_recursion_rhs(bundle, U, k + i) for i in range(3))


def evaluate_residual(bundle: ParametrixBundle, z, w, t) -> np.ndarray:
    """R~(z, w, t) as an (m, 4^n, 4^n) stack of dense matrices.

    t may also be an array of times, whose shape then leads the result's;
    the remainder groups are evaluated once for all of them.
    """
    import numpy as np

    t = np.asarray(t, dtype=float)[..., None, None, None]
    return sum(t ** (bundle.k + i) * grp.evaluate(z, w)
               for i, grp in enumerate(residual_polynomials(bundle)))


class ResidualReport(NamedTuple):
    fitted_exponents: Tuple[float, ...]
    min_exponent: float


_RESIDUAL_T_GRID = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05)  # of the log-log fit


def residual_order_check(bundle: ParametrixBundle, z, w) -> ResidualReport:
    """Fit the leading t-exponent of |R~| at each point pair of two (m, n) arrays.

    The exponent is the log-log slope over the grid t = 0.001 .. 0.05; it
    should match the residual's leading group t^k (coefficients of the lower
    groups vanish by the recursion identity).  A pair where |R~| vanishes
    at some t of the grid has no exponent.
    """
    import numpy as np

    # (t, pair) matrix of Frobenius norms; residual_polynomials rejects k < 2
    norms = np.linalg.norm(evaluate_residual(bundle, z, w, _RESIDUAL_T_GRID), axis=(2, 3))
    norms = norms[:, np.all(norms > 0, axis=0)]
    exps = np.polyfit(np.log(_RESIDUAL_T_GRID), np.log(norms), 1)[0]
    return ResidualReport(
        fitted_exponents=tuple(float(e) for e in exps),
        min_exponent=float(exps.min()) if exps.size else float("nan"),
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
