import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings
import hypothesis.strategies as st

from singspect.gaussian_rational import GaussianRational
from singspect.poly import (
    MixedPolynomial,
    ParseError,
    at_u_zero,
    evaluate_joint,
    evaluate_two_point,
    from_single_point,
    grad_dot_z,
    gradient,
    hermitian_gradient_square,
    hessian,
    hessian_determinant,
    parse,
    segment_average,
    swap_points,
    tau_weighted,
    u_euler,
)


def test_parse_examples():
    p = parse("z1^2 + z1*z2^3", 2)
    assert p.terms == {
        ((2, 0), (0, 0)): GaussianRational(1),
        ((1, 3), (0, 0)): GaussianRational(1),
    }
    assert parse("0", 1).terms == {}
    q = parse("(1/2)*z1^2", 1)
    assert q.terms == {((2,), (0,)): GaussianRational(Fraction(1, 2))}


def test_parse_errors_carry_offset():
    with pytest.raises(ParseError) as err:
        parse("z1 + + z2", 2)
    assert err.value.offset > 0
    with pytest.raises(ParseError):
        parse("z3", 2)  # variable index out of range
    with pytest.raises(ParseError):
        parse("z1^", 1)
    with pytest.raises(ParseError):
        parse("conj(z1", 1)
    for text, offset in (("", 0), (" ", 1), ("(", 1)):  # input that ends where an atom is due
        with pytest.raises(ParseError) as err:
            parse(text, 1)
        assert err.value.offset == offset


def test_parse_complex_and_conj():
    p = parse("i*z1*conj(z2)^2 - 3/4", 2)
    assert p.terms[((1, 0), (0, 2))] == GaussianRational(0, 1)
    assert p.terms[((0, 0), (0, 0))] == GaussianRational(Fraction(-3, 4))


coeffs = st.tuples(st.integers(-4, 4), st.integers(1, 3), st.integers(-4, 4)).map(
    lambda t: GaussianRational(Fraction(t[0], t[1]), Fraction(t[2], t[1]))
)


def polys(n, max_terms=4, max_deg=3):
    exps = st.tuples(
        st.tuples(*[st.integers(0, max_deg)] * n),
        st.tuples(*[st.integers(0, max_deg)] * n),
    )
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda terms: MixedPolynomial(n, terms)
    )


@settings(max_examples=60, deadline=None)
@given(polys(2), polys(2), polys(2))
def test_ring_axioms_exact(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p - p).is_zero()


@settings(max_examples=60, deadline=None)
@given(polys(2))
def test_print_parse_round_trip(p):
    assert parse(str(p), 2) == p


@settings(max_examples=30, deadline=None)
@given(polys(1))
def test_print_is_idempotent(p):
    assert str(parse(str(p), 1)) == str(p)


# -- products against a naive double loop ----------------------------------------


def naive_product(p, q):
    """The terms of p * q by a double loop over tuple keys, in first-product order: the reference."""
    out = {}
    for (a1, b1), c1 in p.terms.items():
        for (a2, b2), c2 in q.terms.items():
            k = (tuple(x + y for x, y in zip(a1, a2)), tuple(x + y for x, y in zip(b1, b2)))
            out[k] = out[k] + c1 * c2 if k in out else c1 * c2
    return {k: v for k, v in out.items() if v}


def merged(term_maps):
    """The term maps added in turn, a sum that reaches zero dropped at once: the reference sum."""
    out = {}
    for terms in term_maps:
        for k, v in terms.items():
            out[k] = out[k] + v if k in out else v
        out = {k: v for k, v in out.items() if v}
    return out


def assert_same_terms(p, terms):
    assert p.terms == terms
    assert list(p.terms) == list(terms)


# complex coefficients over pairwise coprime denominators
wide_coeffs = st.tuples(st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7, 11, 13]),
                        st.integers(-6, 6)).map(
    lambda t: GaussianRational(Fraction(t[0], t[1]), Fraction(t[2], t[1])))


def wide_polys(n, max_deg, max_terms=6):
    """Polynomials with conjugate exponents up to max_deg, so packed fields pass 8 bits."""
    exps = st.tuples(st.tuples(*[st.integers(0, max_deg)] * n),
                     st.tuples(*[st.integers(0, max_deg)] * n))
    return st.dictionaries(exps, wide_coeffs, max_size=max_terms).map(
        lambda terms: MixedPolynomial(n, terms))


def near_polys(n):
    """Polynomials whose terms share monomials, so products collide and cancel."""
    exps = st.tuples(st.tuples(*[st.integers(0, 2)] * n), st.tuples(*[st.integers(0, 1)] * n))
    small = st.sampled_from([-1, 1, 2]).map(GaussianRational)
    return st.dictionaries(exps, small, max_size=5).map(lambda terms: MixedPolynomial(n, terms))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(wide_polys(n, 300), wide_polys(n, 40), near_polys(n), near_polys(n))))
def test_product_matches_naive_double_loop(operands):
    p, q, r, s = operands
    for x, y in ((p, q), (q, p), (r, s), (p, r), (p, p)):
        assert_same_terms(x * y, naive_product(x, y))


@pytest.mark.parametrize("left,right,n", [
    ("(z1 - z2)", "(z1 + z2)", 2),  # the z1*z2 products cancel
    ("z1^2 - z1*z2 + z2^2", "z1 + z2", 2),
    ("z1^300*conj(z1)^7 + (1/3 + (2/5)*i)*conj(z2)^255", "(3/7)*i*z1^256 - (1/11)*z2*conj(z2)", 2),
    ("i*z1*conj(z1)^2 + (1/2)*conj(z1)", "conj(z1)^2 - (1/3)*i*z1", 1),
    ("(1/4)*z1*z2*z3 - i*conj(z3)^9", "z3^200 + (5/13)*conj(z1)", 3),
    ("0", "z1^3 + conj(z1)", 1),
    ("z1^3 + conj(z1)", "0", 1),
    ("3/4", "(1/2)*i", 1),  # every exponent zero
], ids=["cancellation", "sum-of-cubes", "wide-fields", "conjugates-n1", "n3", "zero-left",
        "zero-right", "constants"])
def test_product_examples_match_naive_double_loop(left, right, n):
    p, q = parse(left, n), parse(right, n)
    assert_same_terms(p * q, naive_product(p, q))


def test_cancelling_product_is_exact():
    assert parse("(z1 - z2)*(z1 + z2)", 2) == parse("z1^2 - z2^2", 2)
    assert list(parse("(z1 - z2)*(z1 + z2)", 2).terms) == [((2, 0), (0, 0)), ((0, 2), (0, 0))]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2).flatmap(
    lambda n: st.tuples(near_polys(2 * n), wide_polys(2 * n, 40, max_terms=4))))
def test_gradient_sums_match_the_merged_naive_products(operands):
    p, q = operands
    n = p.n // 2
    products = []
    for i in range(1, n + 1):
        products.append(naive_product(p.wirtinger(i) * 2, q.wirtinger(i, conjugated=True)))
        products.append(naive_product(p.wirtinger(i, conjugated=True) * 2, q.wirtinger(i)))
    assert_same_terms(grad_dot_z(p, q), merged(products))
    f = MixedPolynomial(p.n, {(a, (0,) * p.n): c for (a, _), c in p.terms.items()})
    assert_same_terms(hermitian_gradient_square(f),
                      merged(naive_product(g, g.conjugate()) for g in gradient(f)))


def test_wirtinger_examples():
    p = parse("z1^2 + z1*z2^3", 2)
    assert p.wirtinger(1) == parse("2*z1 + z2^3", 2)
    assert parse("z1^2", 1).wirtinger(1, conjugated=True).is_zero()
    assert parse("z1*conj(z1)", 1).wirtinger(1) == parse("conj(z1)", 1)


def test_hermitian_gradient_square_examples():
    assert hermitian_gradient_square(parse("(1/2)*z1^2", 1)) == parse("z1*conj(z1)", 1)
    assert hermitian_gradient_square(parse("z1^3", 1)) == parse("9*z1^2*conj(z1)^2", 1)
    two = hermitian_gradient_square(parse("(1/2)*z1^2 + (1/2)*z2^2", 2))
    assert two == parse("z1*conj(z1) + z2*conj(z2)", 2)
    with pytest.raises(ValueError):
        hermitian_gradient_square(parse("z1*conj(z1)", 1))


def test_gradient_square_matches_numeric_evaluation():
    rng = np.random.default_rng(0)
    for text, n in (("z1^3 + z2^3", 2), ("z1^2 + z1*z2^3", 2), ("2*z1^4", 1)):
        f = parse(text, n)
        V = hermitian_gradient_square(f)
        assert V.is_real()
        Z = rng.normal(size=(100, n)) + 1j * rng.normal(size=(100, n))
        direct = np.zeros(100)
        for i in range(1, n + 1):
            direct += np.abs(f.wirtinger(i).evaluate_many(Z)) ** 2
        got = V.evaluate_many(Z)
        assert np.max(np.abs(got.imag)) < 1e-12 * max(1.0, np.max(np.abs(got)))
        assert np.max(np.abs(got.real - direct)) <= 1e-12 * np.max(1.0 + direct)


@settings(max_examples=40, deadline=None)
@given(polys(2))
def test_conj_symmetry_of_gradient_square(p):
    # hermitian_gradient_square output is invariant under (a,b) <-> (b,a)
    # with conjugated coefficients
    f = MixedPolynomial(2, {(a, (0, 0)): c for (a, b), c in p.terms.items()})
    V = hermitian_gradient_square(f)
    assert V.conjugate() == V


def test_segment_average_examples():
    # p = z, j = 0: (u/2) + w
    sa = segment_average(parse("z1", 1), 0)
    u = MixedPolynomial.variable(2, 1)
    w = MixedPolynomial.variable(2, 2)
    assert sa == w + u * Fraction(1, 2)
    # p = z zbar: (1/3)|u|^2 + cross + |w|^2
    g = segment_average(parse("z1*conj(z1)", 1), 0)
    expected = parse(
        "1/3*z1*conj(z1) + 1/2*z1*conj(z2) + 1/2*z2*conj(z1) + z2*conj(z2)", 2
    )
    assert g == expected
    # constant with j = 2 integrates tau^2
    assert segment_average(parse("1", 1), 2) == parse("1/3", 2)


@settings(max_examples=40, deadline=None)
@given(polys(2, max_terms=3, max_deg=2))
def test_segment_average_degenerate_segment(p):
    # at u = 0 the j = 0 average returns p(w) exactly
    assert at_u_zero(segment_average(p, 0)) == p


@settings(max_examples=60, deadline=None)
@given(polys(2), st.integers(0, 2),
       st.lists(st.floats(-1.5, 1.5), min_size=8, max_size=8))
# the terms cancel at every node, so the result is 0 up to rounding
@example(parse("z2*conj(z1)*conj(z2)^2 + z1*z2^2*conj(z2)", 2), 0, [0, 0, 0, 0, 0, 1, 1, 0])
def test_segment_average_matches_gauss_legendre(p, j, xs):
    # tau^j p(tau (z - w) + w) has degree at most 14 in tau, so 8 nodes are exact;
    # rounding is bounded by the same sum over the sizes |c| |x|^(a+b) of p's terms
    z = np.array([xs[0] + 1j * xs[1], xs[2] + 1j * xs[3]])
    w = np.array([xs[4] + 1j * xs[5], xs[6] + 1j * xs[7]])
    nodes, weights = np.polynomial.legendre.leggauss(8)
    tau = (nodes + 1) / 2
    points = [s * (z - w) + w for s in tau]
    vals = np.array([s ** j * p.evaluate_many([x])[0] for s, x in zip(tau, points)])
    sizes = np.array([s ** j * sum(abs(complex(c)) * np.prod(np.abs(x) ** np.add(a, b))
                                   for (a, b), c in p.terms.items())
                      for s, x in zip(tau, points)])
    ref = np.sum(weights * vals) / 2
    scale = np.sum(weights * sizes) / 2
    got = evaluate_two_point(segment_average(p, j), z[None], w[None])[0]
    assert abs(got - ref) <= 1e-10 * max(scale, 1e-300)


@settings(max_examples=60, deadline=None)
@given(polys(4, max_terms=4, max_deg=3), st.integers(0, 4))
def test_shifted_u_euler_inverts_the_tau_average(p, j):
    # (j + 1) p + (z - w).grad_z p in one pass, and the tau average undoes it
    assert u_euler(p, j + 1) == p * (j + 1) + u_euler(p)
    assert tau_weighted(u_euler(p, j + 1), j) == p
    assert u_euler(tau_weighted(p, j), j + 1) == p


def test_evaluation_takes_arrays_of_points():
    p = parse("z1*conj(z2)", 2)
    assert p.evaluate_many([[1.0, 2j]]).shape == (1,)
    # one point is a (1, n) array, not an (n,) vector, and n must match
    for bad in ([1.0, 2j], [[1.0, 2j, 3.0]]):
        with pytest.raises(ValueError, match="points must be an"):
            p.evaluate_many(bad)
    with pytest.raises(ValueError):
        evaluate_two_point(from_single_point(p), [1.0, 2j], [0.0, 1.0])


def test_two_point_substitution_is_consistent():
    rng = np.random.default_rng(1)
    p = parse("z1^2*conj(z2) + i*z2^3", 2)
    tp = from_single_point(p)
    for _ in range(20):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert abs(evaluate_two_point(tp, z[None], w[None])[0] - p.evaluate_many([z])[0]) < 1e-10
        assert abs(evaluate_two_point(swap_points(tp), z[None], w[None])[0]
                   - p.evaluate_many([w])[0]) < 1e-10


def test_swap_points_involution():
    g = segment_average(parse("z1*conj(z1) + z1^2*conj(z1)^2", 1), 0)
    assert swap_points(swap_points(g)) == g
    assert swap_points(g) == g  # mean value is symmetric in its endpoints


@pytest.mark.parametrize("text,n", [
    ("z1^3", 1),
    ("z1^2*z2 + z2^3", 2),
    ("z1^3 + z1*z2^3", 2),
    ("z1^3 + z2^3 + z3^3 + z1*z2*z3", 3),
    ("z1^2*z2 + z2^3 + z3^3", 3),
])
def test_hessian_determinant_matches_numeric_det(text, n):
    # the exact cofactor expansion against LAPACK's det of the evaluated Hessian
    f = parse(text, n)
    rng = np.random.default_rng(5)
    Z = rng.normal(size=(50, n)) + 1j * rng.normal(size=(50, n))
    H = np.stack([np.stack([h.evaluate_many(Z) for h in row], axis=-1)
                  for row in hessian(f)], axis=-2)
    ref = np.linalg.det(H)
    got = hessian_determinant(f).evaluate_many(Z)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


def _random_mixed_polynomial(rng, n, terms=6, max_exp=13):
    """A constant term, one z_1^max_exp conj(z_n)^max_exp term and random mixed terms."""
    zero = (0,) * n
    top = (max_exp,) + (0,) * (n - 1), (0,) * (n - 1) + (max_exp,)
    poly = {(zero, zero): GaussianRational(Fraction(3, 7), Fraction(-1, 2)), top: 2}
    for _ in range(terms):
        a = tuple(int(e) for e in rng.integers(0, max_exp + 1, size=n) * (rng.random(n) < 0.6))
        b = tuple(int(e) for e in rng.integers(0, max_exp + 1, size=n) * (rng.random(n) < 0.4))
        poly[(a, b)] = GaussianRational(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))),
                                        Fraction(int(rng.integers(-9, 10)), 3))
    return MixedPolynomial(n, poly)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 5000])
def test_evaluate_many_matches_the_per_term_formula(n, rows):
    # each term c prod_j z_j^a_j conj(z_j)^b_j evaluated on its own, with
    # numpy's own powers, against the shared column powers of evaluate_many
    rng = np.random.default_rng(10 * n + rows)
    p = _random_mixed_polynomial(rng, n)
    assert not p.is_holomorphic() and max(max(a + b) for a, b in p.terms) == 13
    Z = 0.6 * (rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n)))
    terms = []
    for (a, b), c in p.terms.items():
        v = np.full(rows, complex(c))
        for j in range(n):
            v = v * Z[:, j] ** a[j] * np.conj(Z[:, j]) ** b[j]
        terms.append(v)
    ref = np.sum(terms, axis=0)
    scale = np.sum(np.abs(terms), axis=0)  # the size of the largest cancellation
    got = p.evaluate_many(Z)
    assert got.shape == (rows,)
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)
    # a row is evaluated the same on its own as inside a longer array
    assert np.array_equal(p.evaluate_many(Z[:1]), got[:1])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 5000])
def test_evaluate_joint_matches_one_polynomial_at_a_time(n, rows):
    # one table of column powers for all the polynomials gives each of them,
    # to the bit, the values of its own evaluate_many
    rng = np.random.default_rng(100 * n + rows)
    f = parse(" + ".join(f"z{j}^{j + 2}" for j in range(1, n + 1)) + " + z1*conj(z1)^2", n)
    unit = hessian_determinant(parse("(1/2)*(" + " + ".join(f"z{j}^2" for j in range(1, n + 1))
                                     + ")", n))
    assert unit == MixedPolynomial.constant(n, 1)
    # z1 alone and conj(zn) alone share no column; the rest share z1 or more
    apart = [parse("z1^5 - 2*z1^2", n), parse(f"conj(z{n})^4 + i*conj(z{n})", n)]
    polys = (gradient(f) + [hessian_determinant(f), unit] + apart
             + [_random_mixed_polynomial(rng, n) for _ in range(2)] + [MixedPolynomial.zero(n)])
    assert any(any(b) for p in polys for (_, b) in p.terms)  # conjugate exponents
    Z = 0.6 * (rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n)))
    one_at_a_time = [p.evaluate_many(Z) for p in polys]
    # in any order, and from an (m, n) array whose columns are contiguous
    for order in (polys, polys[::-1]):
        for points in (Z, np.asfortranarray(Z)):
            got = list(evaluate_joint(order, points))
            assert len(got) == len(order)
            for p, v in zip(order, got):
                assert v.shape == (rows,)
                assert np.array_equal(v, one_at_a_time[polys.index(p)])
    assert np.all(evaluate_joint([unit], Z)[0] == 1)
    with pytest.raises(ValueError, match="share their variable count"):
        list(evaluate_joint([f, parse("z1", n + 1)], Z))


@pytest.mark.parametrize("rows", [1, 5000])
def test_evaluate_joint_at_real_points(rows):
    # a float64 array holds real points: real coefficients are summed in
    # float64, to the bit the real parts of the complex path at the same
    # points, and a non-real coefficient gives the complex path's values
    rng = np.random.default_rng(rows)
    X = rng.normal(size=(rows, 2))
    real = [parse("z1^2*conj(z1) - 3*z2", 2), parse("z1^3 + z2^4", 2),
            parse("(1/3)*z1^2*conj(z1)*conj(z2)^2 + 7 - conj(z1)^5", 2)]
    nonreal = [parse("i*z1^2", 2), parse("(3/5 + (4/5)*i)*z1^3 + z2^4", 2),
               parse("z1*conj(z1) + i", 2)]
    complex_path = list(evaluate_joint(real + nonreal, X.astype(complex)))
    for p, v, ref in zip(real + nonreal, evaluate_joint(real + nonreal, X), complex_path):
        assert v.shape == (rows,)
        if p in real:
            assert v.dtype == np.float64
            assert np.array_equal(v, ref.real) and not np.any(ref.imag)
        else:
            assert v.dtype == np.complex128
            assert np.array_equal(v, ref)
    for points in (X, X.astype(complex)):
        const, zero = evaluate_joint([MixedPolynomial.constant(2, Fraction(5, 2)),
                                      MixedPolynomial.zero(2)], points)
        assert const.dtype == zero.dtype == points.dtype
        assert np.array_equal(const, np.full(rows, 2.5))
        assert np.array_equal(zero, np.zeros(rows))
    # any other input, such as a list of floats, is read as complex points
    assert parse("z1", 1).evaluate_many([[0.5]]).dtype == np.complex128
