"""GaussianRational against a reference built from (Fraction, Fraction) pairs."""

import math
import operator
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from singspect.clifford import ExteriorOperator
from singspect.gaussian_rational import GaussianRational, SparseMap
from singspect.parametrix import OperatorPolynomial
from singspect.poly import MixedPolynomial, parse

fractions = st.fractions(max_denominator=50).filter(lambda x: abs(x.numerator) < 10 ** 6)
gaussians = st.tuples(fractions, fractions)
operands = st.one_of(
    st.tuples(st.just("gr"), gaussians),
    st.tuples(st.just("int"), st.integers(-50, 50)),
    st.tuples(st.just("fraction"), fractions),
)


def make(kind, value):
    """The operand as the code under test sees it, and as a reference pair."""
    if kind == "gr":
        return GaussianRational(*value), value
    return value, (Fraction(value), Fraction(0))


def ref_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def ref_div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


REFERENCE = {
    "+": lambda a, b: (a[0] + b[0], a[1] + b[1]),
    "-": lambda a, b: (a[0] - b[0], a[1] - b[1]),
    "*": ref_mul,
    "/": ref_div,
}
OPS = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": lambda x, y: x / y,
}


def assert_matches(got, ref):
    assert isinstance(got, GaussianRational)
    assert (got.re, got.im) == ref
    assert isinstance(got.re, Fraction) and isinstance(got.im, Fraction)
    p, q, d = got._p, got._q, got._d
    assert d > 0 and math.gcd(p, q, d) == 1
    assert got == GaussianRational(*ref)
    assert hash(got) == hash(GaussianRational(*ref))


@settings(max_examples=200, deadline=None)
@given(gaussians, operands, st.sampled_from(sorted(OPS)))
def test_binary_ops_match_fraction_pairs(a, operand, op):
    x = GaussianRational(*a)
    y, b = make(*operand)
    for left, right, lref, rref in ((x, y, a, b), (y, x, b, a)):
        if op == "/" and rref == (0, 0):
            with pytest.raises(ZeroDivisionError):
                OPS[op](left, right)
            continue
        assert_matches(OPS[op](left, right), REFERENCE[op](lref, rref))


@settings(max_examples=100, deadline=None)
@given(gaussians)
def test_unary_ops_and_normal_form(a):
    x = GaussianRational(*a)
    assert_matches(x, a)
    assert_matches(-x, (-a[0], -a[1]))
    assert_matches(x.conjugate(), (a[0], -a[1]))
    assert x.abs2() == a[0] * a[0] + a[1] * a[1]
    assert isinstance(x.abs2(), Fraction)
    assert x.is_real() == (a[1] == 0)
    assert bool(x) == (a != (0, 0))
    assert complex(x) == complex(float(a[0]), float(a[1]))


@settings(max_examples=100, deadline=None)
@given(gaussians, st.integers(1, 30))
def test_equal_values_have_equal_triples(a, k):
    # the same value reached through an unreduced route
    x = GaussianRational(*a)
    y = GaussianRational(a[0] * k, a[1] * k) / k
    assert x == y and hash(x) == hash(y)
    assert (x._p, x._q, x._d) == (y._p, y._q, y._d)


def test_mixed_type_equality_and_unsupported_operands():
    assert GaussianRational(3) == 3 and 3 == GaussianRational(3)
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert GaussianRational(1, 1) != 1
    assert GaussianRational(2) != 2.0
    with pytest.raises(TypeError):
        GaussianRational(1) + 1.5
    with pytest.raises(TypeError):
        GaussianRational.from_value(1j)
    # a float is never turned into its binary fraction, by any exact constructor
    with pytest.raises(TypeError):
        GaussianRational.from_value(0.1)
    with pytest.raises(TypeError):
        MixedPolynomial.constant(1, 0.1)
    with pytest.raises(TypeError):
        parse("z1", 1) * 0.1


def test_complex_refuses_values_outside_the_normal_float_range():
    # below the smallest normal float a value would become a subnormal or 0;
    # above the float range the int division itself overflows
    for value in (GaussianRational(Fraction(1, 10 ** 320)), GaussianRational(10 ** 400)):
        with pytest.raises(OverflowError):
            complex(value)
    # the modulus decides, not each part
    assert complex(GaussianRational(1, Fraction(1, 10 ** 320))) == complex(1, 1e-320)
    assert complex(GaussianRational(0)) == 0j


def test_division_by_zero_raises():
    for zero in (0, Fraction(0), GaussianRational(0)):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1, 2) / zero
    with pytest.raises(ZeroDivisionError):
        1 / GaussianRational(0)
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 3) / GaussianRational(0)


# -- SparseMap: the one sum, negation and scaling of the three sparse containers --

small = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3))  # zero included


def polys(n):
    exps = st.tuples(*[st.integers(0, 2)] * n)
    return st.dictionaries(st.tuples(exps, exps), small, max_size=4).map(
        lambda t: MixedPolynomial(n, t))


def operators(n):
    idx = st.integers(0, 4 ** n - 1)
    return st.dictionaries(st.tuples(idx, idx), small, max_size=5).map(
        lambda t: ExteriorOperator(n, t))


def operator_polys(n):
    # random symbols, so proportional ones merge when the constructor canonicalizes them
    return st.dictionaries(operators(n), polys(2 * n), max_size=3).map(
        lambda t: OperatorPolynomial(n, t))


SPARSE_MAPS = {"MixedPolynomial": polys, "ExteriorOperator": operators,
               "OperatorPolynomial": operator_polys}
PRODUCTS = {"MixedPolynomial": operator.mul, "ExteriorOperator": operator.matmul,
            "OperatorPolynomial": operator.matmul}


def assert_normal(x):
    """No stored value is zero, at any depth, and every symbol's first sorted entry is 1."""
    for k, v in x.terms.items():
        assert v
        if isinstance(v, SparseMap):
            assert_normal(v)
        if isinstance(x, OperatorPolynomial):
            assert k.terms[min(k.terms)] == 1
            assert_normal(k)


@pytest.mark.parametrize("kind", sorted(SPARSE_MAPS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sparse_map_ring_laws(kind, data):
    maps, mul = SPARSE_MAPS[kind], PRODUCTS[kind]
    a, b, c = data.draw(maps(1)), data.draw(maps(1)), data.draw(maps(1))
    assert type(a + b) is type(a)
    assert a + b - b == a
    assert (a - a).terms == {}
    assert -(-a) == a
    assert a.scale(0).is_zero()
    for x in (a, b, a - a, a + b):
        assert bool(x) == (not x.is_zero())
    # products cancel inside their sums: b - b, and b + c against a*b + a*c
    assert mul(a, b + c) == mul(a, b) + mul(a, c)
    assert mul(a, b - b).is_zero()
    assert mul(a, b - c) == mul(a, b) - mul(a, c)
    for x in (a, b, c, a + b, a - a, -a, a.scale(0), mul(a, b), mul(a, b + c),
              mul(a, b) + mul(a, c), mul(a, b - c)):
        assert_normal(x)
    with pytest.raises(ValueError):
        a + data.draw(maps(2))


@settings(max_examples=40, deadline=None)
@given(a=operators(1).filter(bool), p=polys(2).filter(bool))
def test_proportional_symbols_merge_to_zero(a, p):
    x = OperatorPolynomial(1, {a.scale(2): p, a: p * -2})
    assert x.is_zero() and x.terms == {}


@settings(max_examples=40, deadline=None)
@given(p=polys(2), i=st.integers(1, 2), conjugated=st.booleans())
def test_wirtinger_is_the_term_by_term_derivative(p, i, conjugated):
    ref = MixedPolynomial.zero(2)
    for (a, b), c in p.terms.items():
        e = list(b if conjugated else a)
        if e[i - 1]:
            e[i - 1] -= 1
            key = (a, tuple(e)) if conjugated else (tuple(e), b)
            ref = ref + MixedPolynomial(2, {key: c * (e[i - 1] + 1)})
    d = p.wirtinger(i, conjugated)
    assert d == ref
    assert_normal(d)
