"""Exact complex numbers with rational real and imaginary parts.

All polynomial coefficients and exact operator entries in this package are
Gaussian rationals, so algebraic identities (ring axioms, supertrace
identities, the parametrix recursion) can be tested as exact equalities.
Conversion to floating complex happens only at evaluation boundaries, and
only through `complex()`, which refuses a value it cannot represent: one
whose modulus is above the float range or, being nonzero, below the
smallest normal float, where it would become a subnormal or 0 (both raise
OverflowError).

A value is stored as three integers (p, q, d) meaning (p + q*i)/d, in the
normal form d > 0 and gcd(p, q, d) = 1, so equal values have equal triples.
Every operation normalizes its result once, with a single three-argument
gcd; a sum with an int or with a coprime denominator needs none.

`over_common_denominator` and `from_integers` are the way out of and back
into this form for integer kernels: values over one common denominator as
Gaussian integer numerators, and a numerator over a denominator normalized
with one gcd.  Polynomial products (poly.py) sum their integer products
this way.

`SparseMap` is the one sparse exact container: a size `n` and a dict of
nonzero exact values.  Every constructor and operation accumulates into a
plain dict and then drops its zero values in one place, `SparseMap._nonzero`;
a sum and a difference each copy the left map once and add or subtract the
right map's values into it.  Polynomials (poly.py), exterior-algebra
operators (clifford.py) and operator polynomials (parametrix.py) subclass it
and keep only their own products and keys.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm


class GaussianRational:
    """(p + q*i)/d with p, q, d integers, d > 0 and gcd(p, q, d) = 1."""

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            p, q, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            b, e = re.denominator, im.denominator
            d = lcm(b, e)
            # already in lowest terms: a prime dividing d and both numerators
            # would divide a reduced numerator and its own denominator
            p, q = re.numerator * (d // b), im.numerator * (d // e)
        self._p, self._q, self._d = p, q, d

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_value(value) -> "GaussianRational":
        """The one coercion into the exact layer: exact inputs only, never a float."""
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"refusing implicit conversion of {type(value).__name__} to exact")

    # -- parts -----------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._p, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._q, self._d)

    # -- arithmetic ----------------------------------------------------

    def _triple(self, other):
        """(p, q, d) of an operand, or None for an unsupported type."""
        if isinstance(other, GaussianRational):
            return other._p, other._q, other._d
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other):
        if isinstance(other, int):
            # p + other*d keeps gcd(., q, d) = 1
            return _make(self._p + other * self._d, self._q, self._d)
        t = self._triple(other)
        if t is None:
            return NotImplemented
        return _sum(self._p, self._q, self._d, *t)

    __radd__ = __add__

    def __sub__(self, other):
        t = self._triple(other)
        if t is None:
            return NotImplemented
        return _sum(self._p, self._q, self._d, -t[0], -t[1], t[2])

    def __rsub__(self, other):
        t = self._triple(other)
        if t is None:
            return NotImplemented
        return _sum(-self._p, -self._q, self._d, *t)

    def __mul__(self, other):
        p, q, d = self._p, self._q, self._d
        if isinstance(other, int):
            return _reduced(p * other, q * other, d)
        t = self._triple(other)
        if t is None:
            return NotImplemented
        op, oq, od = t
        return _reduced(p * op - q * oq, p * oq + q * op, d * od)

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = self._triple(other)
        if t is None:
            return NotImplemented
        op, oq, od = t
        n2 = op * op + oq * oq
        if n2 == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        # (p + q i)/d * od (op - oq i) / (op^2 + oq^2)
        p, q = self._p * od, self._q * od
        return _reduced(p * op + q * oq, q * op - p * oq, self._d * n2)

    def __rtruediv__(self, other):
        t = self._triple(other)
        if t is None:
            return NotImplemented
        return _make(*t) / self

    def __neg__(self):
        return _make(-self._p, -self._q, self._d)

    def conjugate(self) -> "GaussianRational":
        return _make(self._p, -self._q, self._d)

    def abs2(self) -> Fraction:
        """|self|^2 as an exact rational."""
        return Fraction(self._p * self._p + self._q * self._q, self._d * self._d)

    # -- predicates / conversion ---------------------------------------

    def __bool__(self):
        return self._p != 0 or self._q != 0

    def is_zero(self) -> bool:
        return not self

    def __eq__(self, other):
        t = self._triple(other)
        if t is None:
            return NotImplemented
        return self._p == t[0] and self._q == t[1] and self._d == t[2]

    def __hash__(self):
        return hash((self._p, self._q, self._d))

    def __complex__(self):
        # int division already raises OverflowError above the float range
        z = complex(self._p / self._d, self._q / self._d)
        if abs(z) < sys.float_info.min and self:  # the modulus: 1 + 10^-320 i is a fine float
            raise OverflowError(f"a nonzero value of modulus below {sys.float_info.min:.3g}, "
                                f"the smallest normal float, has no normal float value")
        return z

    def is_real(self) -> bool:
        return self._q == 0

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__


def _make(p: int, q: int, d: int) -> GaussianRational:
    """A GaussianRational from a triple already in normal form."""
    x = _new(GaussianRational)
    x._p, x._q, x._d = p, q, d
    return x


def _sum(p: int, q: int, d: int, op: int, oq: int, od: int) -> GaussianRational:
    """(p + q i)/d + (op + oq i)/od, both operands in normal form."""
    if d == od:
        return _reduced(p + op, q + oq, d)
    g = gcd(d, od)
    if g == 1:
        # a prime of d (or od) dividing both numerators would divide p and q
        return _make(p * od + op * d, q * od + oq * d, d * od)
    d //= g
    return _reduced(p * (od // g) + op * d, q * (od // g) + oq * d, d * od)


def _reduced(p: int, q: int, d: int) -> GaussianRational:
    """A GaussianRational from any triple with d > 0."""
    g = gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    return _make(p, q, d)


from_integers = _reduced


def over_common_denominator(values) -> tuple:
    """(d, [(p, q), ...]): the values' least common denominator d and each value times d.

    Each value v becomes the Gaussian integer p + q*i = v * d, so integer
    arithmetic on the numerators stays exact and `from_integers(p, q, d)`
    turns a result back into a value with one gcd.
    """
    d = lcm(*(x._d for x in values))
    return d, [(x._p * (d // x._d), x._q * (d // x._d)) for x in values]


class SparseMap:
    """A size n and a map of keys to nonzero values.

    The values are GaussianRationals or other SparseMaps, so `bool(value)`
    tells a zero value; `_nonzero` is the one place that tests it.
    Subclasses set the meaning of n and the keys.
    """

    __slots__ = ("n", "terms")

    @classmethod
    def _raw(cls, n: int, terms: dict):
        """A map that takes `terms` as given: no copy, no zero check."""
        m = _new(cls)
        m.n = n
        m.terms = terms
        return m

    @staticmethod
    def _nonzero(terms: dict) -> dict:
        """`terms`, a dict the caller owns, with its zero values deleted in place."""
        for k in [k for k, v in terms.items() if not v]:
            del terms[k]
        return terms

    @classmethod
    def zero(cls, n: int):
        return cls._raw(n, {})

    def _check_size(self, other) -> None:
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        self._check_size(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return self._raw(self.n, self._nonzero(out))

    def __sub__(self, other):
        self._check_size(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] - v if k in out else -v
        return self._raw(self.n, self._nonzero(out))

    def __neg__(self):
        return self._raw(self.n, {k: -v for k, v in self.terms.items()})

    def scale(self, c):
        """Every value times c (a number, or a value of the map's own kind)."""
        return self._raw(self.n, self._nonzero({k: v * c for k, v in self.terms.items()}))

    def _power(self, m: int, one, product):
        """self^m by repeated squaring under `product`, starting from `one`."""
        if m < 0:
            raise ValueError("negative power")
        out, base = one, self
        while m:
            if m & 1:
                out = product(out, base)
            m >>= 1
            if m:
                base = product(base, base)
        return out

    def sorted_terms(self) -> list:
        """The (key, value) pairs in key order; the keys must compare."""
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms
