"""Endomorphisms of the exterior algebra of C^n and Clifford supertraces.

The 4^n-dimensional space Lambda*(C^n) is spanned by wedge products of the
2n generators dz^1..dz^n, dzbar^1..dzbar^n.  A basis state is a 2n-bit mask
(bit i < n for dz^{i+1}, bit n+i for dzbar^{i+1}); its degree is the
popcount.  Wedging a generator into a mask contributes the sign
(-1)^{number of set generators preceding it} under the fixed generator
order dz^1 < ... < dz^n < dzbar^1 < ... < dzbar^n, and contraction is the
(signed) adjoint.

Operators are sparse matrices over this basis with exact Gaussian-rational
entries; numeric work converts them with `to_numpy`, which with
`supertrace_matrix` is all that imports numpy.  The Clifford
generators are

    c_i    = dz^i ^ - contract(d/dz_i)        c_i^2 = -1
    chat_i = dz^i ^ + contract(d/dz_i)        chat_i^2 = +1

and their conjugates cbar_i, cbarhat_i; distinct generators anticommute.
The supertrace is str A = sum over basis states of (-1)^degree A[s, s].

The Hessian-coupling operator, whose one home is `hessian_coupling`, uses the
standard-metric normalization

    L_f = -2 sum_{m,l} (H_{ml} contract(dbar_m) wedge(dz^l) + conjugate)

anchored by the exact identity str L_f^{2n} = (2n)! (-1)^n 4^n |det H|^2,
which the test suite enforces rather than trusting any transcription.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Sequence, Tuple

from .gaussian_rational import GaussianRational, SparseMap

Entry = Tuple[int, int]


class ExteriorOperator(SparseMap):
    """Sparse endomorphism of Lambda*(C^n): terms maps (row, col) to an entry."""

    __slots__ = ("_key",)  # canon_key's cache, set on first use

    def __init__(self, n: int, terms: Dict[Entry, object] | None = None):
        self.n = n
        dim = 4 ** n
        out: Dict[Entry, object] = {}
        for (r, c), v in (terms or {}).items():
            if not (0 <= r < dim and 0 <= c < dim):
                raise ValueError("entry index out of range")
            out[(r, c)] = GaussianRational.from_value(v)
        self.terms = self._nonzero(out)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "ExteriorOperator":
        one = GaussianRational(1)
        return cls(n, {(i, i): one for i in range(4 ** n)})

    # -- algebra (sums and negation are SparseMap's) ----------------------------

    def scale(self, c) -> "ExteriorOperator":
        return super().scale(GaussianRational.from_value(c))

    def matmul(self, other: "ExteriorOperator") -> "ExteriorOperator":
        """Matrix product self @ other (apply other first)."""
        self._check_size(other)
        cols: Dict[int, List[Tuple[int, object]]] = {}
        for (r, c), v in self.terms.items():
            cols.setdefault(c, []).append((r, v))
        out: Dict[Entry, object] = {}
        for (r2, c2), v2 in other.terms.items():
            hits = cols.get(r2)
            if not hits:
                continue
            for r1, v1 in hits:
                k = (r1, c2)
                out[k] = out[k] + v1 * v2 if k in out else v1 * v2
        return ExteriorOperator._raw(self.n, self._nonzero(out))

    __matmul__ = matmul

    def power(self, m: int) -> "ExteriorOperator":
        return self._power(m, ExteriorOperator.identity(self.n), operator.matmul)

    def canon_key(self):
        try:
            return self._key
        except AttributeError:
            self._key = (self.n, tuple(self.sorted_terms()))
            return self._key

    def __hash__(self):
        return hash(self.canon_key())

    # -- traces -----------------------------------------------------------------

    def supertrace(self):
        """sum over basis states of (-1)^degree times the diagonal entry."""
        total = GaussianRational(0)
        for (r, c), v in self.terms.items():
            if r == c:
                if bin(r).count("1") % 2:
                    total = total - v
                else:
                    total = total + v
        return total

    def trace(self):
        total = GaussianRational(0)
        for (r, c), v in self.terms.items():
            if r == c:
                total = total + v
        return total

    # -- conversion ----------------------------------------------------------------

    def to_numpy(self) -> np.ndarray:
        import numpy as np

        m = np.zeros((4 ** self.n,) * 2, dtype=complex)
        for (r, c), v in self.terms.items():
            m[r, c] = complex(v)
        return m

    def __repr__(self):
        return f"ExteriorOperator(n={self.n}, nnz={len(self.terms)})"


# -- wedge / contraction and the Clifford generators --------------------------


def _insertion_sign(mask: int, bit: int) -> int:
    """(-1)^{number of set generators preceding `bit` in `mask`}."""
    below = mask & ((1 << bit) - 1)
    return -1 if bin(below).count("1") % 2 else 1


_MAX_EXACT_N = 6  # 4^6 = 4096 basis states; beyond this use numeric matrices


def wedge(n: int, gen: int) -> ExteriorOperator:
    """Wedge with generator index gen in [0, 2n)."""
    if n > _MAX_EXACT_N:
        raise ValueError(f"exact operators are capped at n = {_MAX_EXACT_N}")
    if not 0 <= gen < 2 * n:
        raise ValueError("generator index out of range")
    one = GaussianRational(1)
    terms: Dict[Entry, object] = {}
    bit = 1 << gen
    for mask in range(4 ** n):
        if mask & bit:
            continue
        terms[(mask | bit, mask)] = one * _insertion_sign(mask, gen)
    return ExteriorOperator._raw(n, terms)


def contraction(n: int, gen: int) -> ExteriorOperator:
    """Contraction against generator index gen: the transpose of wedge."""
    w = wedge(n, gen)
    return ExteriorOperator._raw(n, {(c, r): v for (r, c), v in w.terms.items()})


def _gen_index(i: int, n: int, conjugated: bool) -> int:
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    return (i - 1) + (n if conjugated else 0)


def c(i: int, n: int) -> ExteriorOperator:
    g = _gen_index(i, n, False)
    return wedge(n, g) - contraction(n, g)


def c_hat(i: int, n: int) -> ExteriorOperator:
    g = _gen_index(i, n, False)
    return wedge(n, g) + contraction(n, g)


def c_bar(i: int, n: int) -> ExteriorOperator:
    g = _gen_index(i, n, True)
    return wedge(n, g) - contraction(n, g)


def c_bar_hat(i: int, n: int) -> ExteriorOperator:
    g = _gen_index(i, n, True)
    return wedge(n, g) + contraction(n, g)


def number_operator(n: int) -> ExteriorOperator:
    """Grading operator: N alpha = (degree alpha) alpha."""
    terms = {
        (m, m): GaussianRational(bin(m).count("1"))
        for m in range(4 ** n)
        if m
    }
    return ExteriorOperator._raw(n, terms)


def number_operator_clifford(n: int) -> ExteriorOperator:
    """n + (1/2) sum_i (c_i chat_i + cbar_i cbarhat_i); equals number_operator."""
    half = GaussianRational(1) / 2
    out = ExteriorOperator.identity(n).scale(n)
    for i in range(1, n + 1):
        out = out + (c(i, n) @ c_hat(i, n) + c_bar(i, n) @ c_bar_hat(i, n)).scale(half)
    return out


def supertrace_matrix(m: np.ndarray) -> np.ndarray:
    """Supertrace over the mask basis of the last two axes of a (..., 4^n, 4^n) array.

    A stack of dense matrices gives a stack of supertraces.
    """
    import numpy as np

    dim = m.shape[-1]
    signs = np.array([-1 if bin(i).count("1") % 2 else 1 for i in range(dim)])
    return (signs * np.diagonal(m, axis1=-2, axis2=-1)).sum(axis=-1)


def full_clifford_monomial(n: int) -> ExteriorOperator:
    """prod_i c_i chat_i cbar_i cbarhat_i, the unique monomial with str 4^n."""
    out = ExteriorOperator.identity(n)
    for i in range(1, n + 1):
        out = out @ c(i, n) @ c_hat(i, n) @ c_bar(i, n) @ c_bar_hat(i, n)
    return out


# -- the Hessian coupling operator --------------------------------------------


def _validate_symmetric(H: Sequence[Sequence[object]]) -> List[List[object]]:
    n = len(H)
    rows = [list(r) for r in H]
    for r in rows:
        if len(r) != n:
            raise ValueError("Hessian must be square")
    exact = GaussianRational.from_value
    for i in range(n):
        for j in range(i + 1, n):
            if exact(rows[i][j]) != exact(rows[j][i]):
                raise ValueError("Hessian must be symmetric")
    return rows


def hessian_atoms(n: int) -> Tuple[List[List[ExteriorOperator]], List[List[ExteriorOperator]]]:
    """The operator atoms contract(dbar_m) wedge(dz^l) and their conjugates."""
    holo = [[contraction(n, _gen_index(m, n, True)) @ wedge(n, _gen_index(l, n, False))
             for l in range(1, n + 1)] for m in range(1, n + 1)]
    anti = [[contraction(n, _gen_index(m, n, False)) @ wedge(n, _gen_index(l, n, True))
             for l in range(1, n + 1)] for m in range(1, n + 1)]
    return holo, anti


def hessian_coupling(H: Sequence[Sequence[object]]) -> List[Tuple[ExteriorOperator, object]]:
    """L_f as (atom, coefficient) pairs: -2 H_ml on holo_ml, -2 conj(H_ml) on anti_ml.

    The entries of H may be GaussianRationals or polynomials; zero entries
    give no pairs.
    """
    n = len(H)
    holo, anti = hessian_atoms(n)
    minus_two = GaussianRational(-2)
    pairs = []
    for m in range(n):
        for l in range(n):
            h = H[m][l]
            if not h.is_zero():
                pairs.append((holo[m][l], h * minus_two))
                pairs.append((anti[m][l], h.conjugate() * minus_two))
    return pairs


def build_Lf(H: Sequence[Sequence[object]]) -> ExteriorOperator:
    """L_f for a symmetric Hessian H = d^2 f at a point, standard metric."""
    rows = [[GaussianRational.from_value(h) for h in row] for row in _validate_symmetric(H)]
    out = ExteriorOperator.zero(len(rows))
    for atom, coeff in hessian_coupling(rows):
        out = out + atom.scale(coeff)
    return out
