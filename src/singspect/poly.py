"""Exact sparse polynomial algebra in z_1..z_n and their conjugates.

A mixed polynomial is a finite map from exponent pairs (a, b) to Gaussian
rational coefficients, where a gives the powers of z_1..z_n and b the powers
of conj(z_1)..conj(z_n):

    terms : {(a, b): coeff}   a, b tuples of non-negative ints, coeff != 0

The zero polynomial has an empty term map.  A polynomial is holomorphic when
every b is zero, and real when the coefficient at (a, b) is the conjugate of
the coefficient at (b, a).

Text grammar (whitespace insignificant):

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' uint)?
    atom     := rational | 'i' | 'z' uint | 'conj(z' uint ')' | '(' expr ')'
    rational := int ('/' uint)?

The canonical printer emits terms in lexicographic exponent order and its
output parses back to the same polynomial.

Every exact product is one kernel, `_sum_of_products`, which sums
c * p * q over a list of triples: `p * q` is the kernel on one pair,
`grad_dot_z` and `hermitian_gradient_square` call it once over all their
pairs, and operator polynomials (parametrix.py) once per product symbol.
It packs each exponent pair into one int and sums integer products of the
coefficients' numerators over a common denominator, so no GaussianRational
is made until each output term's one; its terms come in the order of the
naive double loops, added in turn (see its docstring).

Real-gradient contractions used downstream are defined through Wirtinger
calculus with the conventions

    lap p        = 4 sum_i d_i dbar_i p
    grad_dot p q = 2 sum_i (d_i p dbar_i q + dbar_i p d_i q)

which agree with the real 2n-dimensional gradient and Laplacian; the
square (grad p)^2 is grad_dot p p = 4 sum_i d_i p dbar_i p.

Numeric evaluation takes an (m, n) array of points and returns one value per
row (`MixedPolynomial.evaluate_many`); `evaluate_joint` evaluates several
polynomials at the same points from one table of column powers and returns
their values as one list, and `evaluate_many` is that evaluator on one
polynomial.  A float64 array holds real points: there a polynomial with real
coefficients is computed in float64 and one with a non-real coefficient in
complex128.  Any other input is read as complex points and computed in
complex128.  `abs_square` gives |v|^2 of either kind of values.  A
polynomial in two points is evaluated at the pairs of two (m, n) arrays z
and w by `evaluate_two_point`, the one place that builds the rows
[z - w, w].  The algebra is exact and numpy-free; only these float
evaluators import numpy.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from .gaussian_rational import GaussianRational, SparseMap, from_integers, over_common_denominator

ExponentPair = Tuple[Tuple[int, ...], Tuple[int, ...]]
Terms = Dict[ExponentPair, GaussianRational]


class ParseError(ValueError):
    """Syntax error in polynomial text; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class MixedPolynomial(SparseMap):
    """Sparse polynomial in z_1..z_n and conj(z_1)..conj(z_n)."""

    __slots__ = ()

    def __init__(self, n: int, terms: Terms | None = None):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n
        out: Terms = {}
        for (a, b), c in (terms or {}).items():
            a = tuple(a)
            b = tuple(b)
            if len(a) != n or len(b) != n:
                raise ValueError("exponent tuple length mismatch")
            if any(e < 0 or not isinstance(e, int) for e in a + b):
                raise ValueError("exponents must be non-negative integers")
            out[(a, b)] = GaussianRational.from_value(c)
        self.terms = self._nonzero(out)

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, n: int, c) -> "MixedPolynomial":
        z = (0,) * n
        return cls(n, {(z, z): GaussianRational.from_value(c)})

    @classmethod
    def variable(cls, n: int, i: int, conjugated: bool = False) -> "MixedPolynomial":
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        e = [0] * n
        e[i - 1] = 1
        a, b = ((0,) * n, tuple(e)) if conjugated else (tuple(e), (0,) * n)
        return cls(n, {(a, b): GaussianRational(1)})

    # -- ring operations (sums, negation and scaling are SparseMap's) ------

    def __mul__(self, other):
        if isinstance(other, MixedPolynomial):
            self._check_size(other)
            return _sum_of_products(self.n, [(1, self, other)])
        return self.scale(GaussianRational.from_value(other))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MixedPolynomial":
        return self._power(k, MixedPolynomial.constant(self.n, 1), operator.mul)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- structure --------------------------------------------------------

    def is_holomorphic(self) -> bool:
        return all(not any(b) for (_, b) in self.terms)

    def is_real(self) -> bool:
        for (a, b), c in self.terms.items():
            if self.terms.get((b, a)) != c.conjugate():
                return False
        return True

    def conjugate(self) -> "MixedPolynomial":
        return MixedPolynomial._raw(
            self.n, {(b, a): c.conjugate() for (a, b), c in self.terms.items()}
        )

    # -- calculus ----------------------------------------------------------

    def wirtinger(self, i: int, conjugated: bool = False) -> "MixedPolynomial":
        """Formal d/dz_i (or d/dconj(z_i)) derivative.

        Lowering one exponent maps distinct keys to distinct keys, and c * e
        is nonzero, so nothing accumulates and no value is zero.
        """
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")
        j = i - 1
        out: Terms = {}
        for (a, b), c in self.terms.items():
            e = b[j] if conjugated else a[j]
            if e:
                if conjugated:
                    out[(a, b[:j] + (e - 1,) + b[j + 1:])] = c * e
                else:
                    out[(a[:j] + (e - 1,) + a[j + 1:], b)] = c * e
        return MixedPolynomial._raw(self.n, out)

    # -- evaluation ----------------------------------------------------------

    def evaluate_many(self, Z: np.ndarray) -> np.ndarray:
        """Values at the rows of a real or complex (m, n) array: `evaluate_joint` on this one polynomial."""
        (values,) = evaluate_joint([self], Z)
        return values

    # -- printing and parsing ---------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: List[str] = []
        for (a, b), c in self.sorted_terms():
            mono = _monomial_str(a, b)
            sign, body = _coeff_str(c, bool(mono))
            text = body + ("*" + mono if body and mono else mono)
            if not pieces:
                pieces.append(("-" if sign < 0 else "") + text)
            else:
                pieces.append(("- " if sign < 0 else "+ ") + text)
        return " ".join(pieces)

    __repr__ = __str__

    @staticmethod
    def parse(text: str, n: int) -> "MixedPolynomial":
        return _Parser(text, n).parse()


def _pack(exponents: Tuple[int, ...], width: int) -> int:
    """The exponents as fields of `width` bits of one int, the first field highest."""
    key = 0
    for e in exponents:
        key = key << width | e
    return key


def _numerators(p: MixedPolynomial, width: int):
    """(d, [(key, x, y), ...]): p's common denominator d, and each term's packed key and numerator x + y*i."""
    d, nums = over_common_denominator(p.terms.values())
    return d, [(_pack(a + b, width), x, y) for (a, b), (x, y) in zip(p.terms, nums)]


def _sum_of_products(n: int, triples) -> MixedPolynomial:
    """sum c * p * q over (c, p, q) triples of an exact number and two polynomials in n variables.

    The one exact product kernel.  Each exponent pair (a, b) packs into one
    int, every field as wide as the bit length of the largest exponent of
    any left operand plus the largest of any right one, so adding two keys
    adds their exponents and no field carries into the next.  Each operand's
    coefficients go over one common denominator as Gaussian integer
    numerators; a triple's c, and the factor from its denominator to the
    common denominator of all triples, are folded into its left numerators.
    The integer products are summed under the packed keys, in plain ints
    when no coefficient has an imaginary part, and each sum becomes one
    GaussianRational with one gcd.  The terms come in the order of the sum
    of the triples' products, each computed by a naive double loop over its
    left and right terms, added in turn: a term comes where its first
    product falls, and a sum that is zero after a triple leaves and comes
    back at the end if a later product makes it again.  Zero sums are
    dropped.
    """
    triples = [(GaussianRational.from_value(c), p, q) for c, p, q in triples]
    triples = [(c, p, q) for c, p, q in triples if c and p.terms and q.terms]
    if not triples:
        return MixedPolynomial.zero(n)
    width = (max(max(a + b) for _, p, _ in triples for a, b in p.terms) +
             max(max(a + b) for _, _, q in triples for a, b in q.terms)).bit_length()
    packed = []  # (denominator, left terms times c, right terms) of each triple
    for c, p, q in triples:
        dc, ((cx, cy),) = over_common_denominator([c])
        dp, left = _numerators(p, width)
        dq, right = _numerators(q, width)
        left = [(k, x * cx - y * cy, x * cy + y * cx) for k, x, y in left]
        packed.append((dc * dp * dq, left, right))
    d = math.lcm(*(den for den, _, _ in packed))
    real = not any(y for _, left, right in packed for _, _, y in left + right)
    re: Dict[int, int] = {}
    im: Dict[int, int] = {}
    re_get, im_get = re.get, im.get
    for i, (den, left, right) in enumerate(packed):
        if i:  # a sum that is zero after a triple leaves, and a later product appends it anew
            for k in [k for k, x in re.items() if not x and not im_get(k, 0)]:
                del re[k]
                im.pop(k, None)
        s = d // den
        if real:
            right = [(k, x) for k, x, _ in right]
            for k1, x1, _ in left:
                x1 *= s
                for k2, x2 in right:
                    k = k1 + k2
                    re[k] = re_get(k, 0) + x1 * x2
        else:
            for k1, x1, y1 in left:
                x1, y1 = x1 * s, y1 * s
                for k2, x2, y2 in right:
                    k = k1 + k2
                    re[k] = re_get(k, 0) + x1 * x2 - y1 * y2
                    im[k] = im_get(k, 0) + x1 * y2 + y1 * x2
    mask = (1 << width) - 1
    shifts = [width * i for i in reversed(range(2 * n))]
    out: Terms = {}
    for k, x in re.items():
        y = im_get(k, 0)
        if x or y:
            e = [k >> sh & mask for sh in shifts]
            out[tuple(e[:n]), tuple(e[n:])] = from_integers(x, y, d)
    return MixedPolynomial._raw(n, out)


def _monomial_str(a: Tuple[int, ...], b: Tuple[int, ...]) -> str:
    factors = []
    for j, e in enumerate(a):
        if e == 1:
            factors.append(f"z{j + 1}")
        elif e > 1:
            factors.append(f"z{j + 1}^{e}")
    for j, e in enumerate(b):
        if e == 1:
            factors.append(f"conj(z{j + 1})")
        elif e > 1:
            factors.append(f"conj(z{j + 1})^{e}")
    return "*".join(factors)


def _coeff_str(c: GaussianRational, has_mono: bool) -> Tuple[int, str]:
    """Return (sign, text); text may be empty for a unit coefficient."""
    if c.im == 0:
        sign = 1 if c.re > 0 else -1
        mag = abs(c.re)
        if mag == 1 and has_mono:
            return sign, ""
        return sign, str(mag)
    if c.re == 0:
        sign = 1 if c.im > 0 else -1
        mag = abs(c.im)
        return sign, ("i" if mag == 1 else f"{mag}*i")
    im_sign = "+" if c.im > 0 else "-"
    return 1, f"({c.re} {im_sign} {abs(c.im)}*i)"


class _Parser:
    """Recursive-descent parser for the grammar in the module docstring."""

    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.pos = 0

    def parse(self) -> MixedPolynomial:
        p = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError("unexpected trailing input", self.pos)
        return p

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expr(self) -> MixedPolynomial:
        sign = 1
        if self._peek() in ("+", "-"):  # unary sign; "" at the end of input is neither
            if self.text[self.pos] == "-":
                sign = -1
            self.pos += 1
        p = self._term() * sign
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                p = p + self._term()
            elif ch == "-":
                self.pos += 1
                p = p - self._term()
            else:
                return p

    def _term(self) -> MixedPolynomial:
        p = self._factor()
        while self._peek() == "*":
            self.pos += 1
            p = p * self._factor()
        return p

    def _factor(self) -> MixedPolynomial:
        p = self._atom()
        if self._peek() == "^":
            self.pos += 1
            e = self._uint()
            p = p ** e
        return p

    def _atom(self) -> MixedPolynomial:
        ch = self._peek()
        start = self.pos
        if ch == "(":
            self.pos += 1
            p = self._expr()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return p
        if ch == "i":
            self.pos += 1
            return MixedPolynomial.constant(self.n, GaussianRational(0, 1))
        if ch == "c":
            if not self.text.startswith("conj(z", self.pos):
                raise ParseError("expected conj(zK)", start)
            self.pos += len("conj(z")
            k = self._uint()
            if k < 1 or k > self.n:
                raise ParseError(f"variable index {k} out of range 1..{self.n}", start)
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return MixedPolynomial.variable(self.n, k, conjugated=True)
        if ch == "z":
            self.pos += 1
            k = self._uint()
            if k < 1 or k > self.n:
                raise ParseError(f"variable index {k} out of range 1..{self.n}", start)
            return MixedPolynomial.variable(self.n, k)
        if ch.isdigit() or ch == "-":
            return MixedPolynomial.constant(self.n, self._rational())
        raise ParseError("expected atom", self.pos)

    def _uint(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected unsigned integer", start)
        return int(self.text[start:self.pos])

    def _rational(self) -> Fraction:
        self._skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise ParseError("expected integer", start)
        num = int(self.text[start:self.pos])
        if self._peek() == "/":
            self.pos += 1
            den = self._uint()
            if den == 0:
                raise ParseError("zero denominator", self.pos)
            return Fraction(num, den)
        return Fraction(num)


parse = MixedPolynomial.parse


def evaluate_joint(polys: Sequence[MixedPolynomial], Z) -> List[np.ndarray]:
    """Each polynomial's values at the rows of an (m, n) array of points: the float evaluator.

    A float64 numpy array is read as it is, as real points; any other input
    becomes a complex128 array.  All the polynomials share one table of
    column powers: each z_j^e and conj(z_j)^e that any term needs is built
    once per call, on a contiguous column, as one product with the power
    below it; at real points conj(z_j) is z_j, so its powers are z_j's.  A
    term is its coefficient times a product of those powers, and each
    polynomial sums its own terms in its own order, starting from its first
    term, so its values do not depend on the polynomials evaluated beside
    it.  At real points a polynomial whose coefficients are all real is
    summed in float64, and one with a non-real coefficient in complex128;
    at complex points every polynomial is summed in complex128.  Each real
    product rounds as the real part of the complex product of the same
    points, whose imaginary parts are zero, so the real values equal the
    real parts of the complex path's to the bit.  A column that is already
    contiguous, as in an (m, n) array in Fortran order, is read without a
    copy.  The values come back as one list, in the order of `polys`.
    """
    import numpy as np

    real = isinstance(Z, np.ndarray) and Z.dtype == np.float64
    if not real:
        Z = np.asarray(Z, dtype=complex)
    n = polys[0].n
    if any(p.n != n for p in polys):
        raise ValueError("polynomials evaluated together must share their variable count")
    if Z.ndim != 2 or Z.shape[1] != n:
        raise ValueError(f"points must be an (m, {n}) array, not {Z.shape}")
    # the power table's column for exponent slot k: z_1..z_n then
    # conj(z_1)..conj(z_n), where a real conj(z_j) is z_j
    column = [k % n if real else k for k in range(2 * n)]
    # (column, e) -> that column to the power e; every product is a new
    # array: numpy can round an in-place product of one row apart from the
    # same row in a longer array
    powers: Dict[Tuple[int, int], np.ndarray] = {}
    values = []
    for p in polys:
        summed_real = real and all(c.is_real() for c in p.terms.values())
        total = None
        for (a, b), c in p.terms.items():
            term = complex(c).real if summed_real else complex(c)
            for k, e in enumerate(a + b):
                if not e:
                    continue
                k = column[k]
                if (k, e) not in powers:
                    for j in range(1, e + 1):
                        if (k, j) in powers:
                            continue
                        if j > 1:
                            powers[k, j] = powers[k, j - 1] * powers[k, 1]
                        else:
                            col = Z[:, k] if k < n else np.conj(Z[:, k - n])
                            powers[k, 1] = np.ascontiguousarray(col)
                term = powers[k, e] * term
            if total is None:
                total = np.full(Z.shape[0], term) if np.ndim(term) == 0 else term
            else:
                total += term
        if total is None:  # the zero polynomial
            total = np.zeros(Z.shape[0], dtype=float if real else complex)
        values.append(total)
    return values


def infer_variable_count(text: str) -> int:
    """Largest variable index mentioned in the text (at least 1)."""
    best = 1
    i = 0
    while i < len(text):
        if text[i] == "z" and i + 1 < len(text) and text[i + 1].isdigit():
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            best = max(best, int(text[i + 1:j]))
            i = j
        else:
            i += 1
    return best


# -- derived objects -------------------------------------------------------


def gradient(f: MixedPolynomial) -> List[MixedPolynomial]:
    return [f.wirtinger(i) for i in range(1, f.n + 1)]


def abs_square(v: np.ndarray) -> np.ndarray:
    """|v|^2 of a real or complex array, as a new float64 array."""
    if v.dtype.kind != "c":
        return v * v
    out = v.real * v.real
    out += v.imag * v.imag
    return out


def square_sum(values: Iterable[np.ndarray]) -> np.ndarray:
    """sum_i |v_i|^2 of real or complex arrays, added in order."""
    squares = map(abs_square, values)
    total = next(squares, 0.0)
    for sq in squares:
        total += sq
    return total


def hessian(f: MixedPolynomial) -> List[List[MixedPolynomial]]:
    g = gradient(f)
    return [[gi.wirtinger(j) for j in range(1, f.n + 1)] for gi in g]


def hessian_determinant(f: MixedPolynomial) -> MixedPolynomial:
    """det d^2 f exactly, by cofactor expansion along the first row."""

    def det(rows: List[List[MixedPolynomial]]) -> MixedPolynomial:
        if len(rows) == 1:
            return rows[0][0]
        out = MixedPolynomial.zero(f.n)
        for j, entry in enumerate(rows[0]):
            if entry.is_zero():
                continue
            term = entry * det([row[:j] + row[j + 1:] for row in rows[1:]])
            out = out - term if j % 2 else out + term
        return out

    return det(hessian(f))


def hermitian_gradient_square(f: MixedPolynomial) -> MixedPolynomial:
    """The potential sum_i d_i f * conj(d_i f); rejects non-holomorphic input."""
    if not f.is_holomorphic():
        raise ValueError("hermitian_gradient_square requires a holomorphic polynomial")
    return _sum_of_products(f.n, [(1, gi, gi.conjugate()) for gi in gradient(f)])


# -- two-point polynomials --------------------------------------------------
#
# A polynomial in two points (z, w) of C^n is a MixedPolynomial on 2n slots:
# u = z - w in slots 1..n and w in slots n+1..2n.  Derivatives in z act on
# the u slots only, so d/dz_i is wirtinger(i).  The functions below are the
# only code that knows this layout; each reads n as p.n // 2.  Point pairs
# come in as two (m, n) arrays, and evaluate_two_point is the one place that
# builds their rows [z - w, w].


def _u(n: int, j: int) -> MixedPolynomial:
    """The two-point variable u_{j+1} (slot j + 1 of 2n)."""
    return MixedPolynomial.variable(2 * n, j + 1)


def _w(n: int, j: int) -> MixedPolynomial:
    """The two-point variable w_{j+1} (slot n + j + 1 of 2n)."""
    return MixedPolynomial.variable(2 * n, n + j + 1)


def _substitute(p: MixedPolynomial, images: Sequence[MixedPolynomial]) -> MixedPolynomial:
    """p with variable i replaced by images[i] and conj(variable i) by its conjugate."""
    m = images[0].n
    conj_images = [x.conjugate() for x in images]
    out = MixedPolynomial.zero(m)
    for (a, b), c in p.terms.items():
        term = MixedPolynomial.constant(m, c)
        for x, e in zip(images, a):
            if e:
                term = term * x ** e
        for x, e in zip(conj_images, b):
            if e:
                term = term * x ** e
        out = out + term
    return out


def _u_degree(key: ExponentPair, n: int) -> int:
    a, b = key
    return sum(a[:n]) + sum(b[:n])


def from_single_point(p: MixedPolynomial) -> MixedPolynomial:
    """Substitute z_i = u_i + w_i (conjugates along the conjugate path)."""
    n = p.n
    return _substitute(p, [_u(n, j) + _w(n, j) for j in range(n)])


def tau_weighted(p: MixedPolynomial, j: int) -> MixedPolynomial:
    """Apply int_0^1 p(tau*u, w) tau^j dtau: weight 1/(d_u + j + 1)."""
    if j < 0:
        raise ValueError("tau weight must be non-negative")
    n = p.n // 2
    out: Terms = {}
    for k, c in p.terms.items():
        out[k] = c * Fraction(1, _u_degree(k, n) + j + 1)
    return MixedPolynomial._raw(p.n, out)


def u_euler(p: MixedPolynomial) -> MixedPolynomial:
    """(z - w) . grad_z, the Euler operator in u: multiply by u-degree."""
    n = p.n // 2
    out: Terms = {}
    for k, c in p.terms.items():
        d = _u_degree(k, n)
        if d:
            out[k] = c * d
    return MixedPolynomial._raw(p.n, out)


def at_u_zero(p: MixedPolynomial) -> MixedPolynomial:
    """Set u = 0, returning a single-point polynomial in w."""
    n = p.n // 2
    out: Terms = {}
    for (a, b), c in p.terms.items():
        if any(a[:n]) or any(b[:n]):
            continue
        out[(a[n:], b[n:])] = c
    return MixedPolynomial._raw(n, out)


def swap_points(p: MixedPolynomial) -> MixedPolynomial:
    """The z <-> w substitution: u -> -u, w -> u + w."""
    n = p.n // 2
    images = [-_u(n, j) for j in range(n)] + [_u(n, j) + _w(n, j) for j in range(n)]
    return _substitute(p, images)


def laplacian_z(p: MixedPolynomial) -> MixedPolynomial:
    """Delta_z p = 4 sum_i d_i dbar_i p."""
    out = MixedPolynomial.zero(p.n)
    for i in range(1, p.n // 2 + 1):
        out = out + p.wirtinger(i).wirtinger(i, conjugated=True)
    return out * 4


def grad_dot_z(p: MixedPolynomial, q: MixedPolynomial) -> MixedPolynomial:
    """grad_z p . grad_z q = 2 sum_i (d_i p dbar_i q + dbar_i p d_i q)."""
    triples = []
    for i in range(1, p.n // 2 + 1):
        triples.append((2, p.wirtinger(i), q.wirtinger(i, conjugated=True)))
        triples.append((2, p.wirtinger(i, conjugated=True), q.wirtinger(i)))
    return _sum_of_products(p.n, triples)


def evaluate_two_point(p: MixedPolynomial, z, w) -> np.ndarray:
    """p at the point pairs (z[i], w[i]) of two (m, n) arrays: one value per pair."""
    import numpy as np

    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    return p.evaluate_many(np.concatenate([z - w, w], axis=1))


def segment_average(p: MixedPolynomial, j: int) -> MixedPolynomial:
    """int_0^1 p(tau*(z-w) + w) tau^j dtau, exactly."""
    return tau_weighted(from_single_point(p), j)
