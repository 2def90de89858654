import hashlib
import math

import numpy as np
import pytest

from singspect import parametrix
from singspect.clifford import supertrace_matrix
from singspect.gaussian_rational import GaussianRational
from singspect.oscillator import a1_diagonal_supertrace_flat
from singspect.parametrix import (
    OperatorPolynomial,
    build_g,
    build_U,
    dump_bundle,
    evaluate_Pk,
    evaluate_residual,
    recursion_residual,
    residual_order_check,
    residual_polynomials,
)
from singspect.poly import (
    MixedPolynomial,
    at_u_zero,
    evaluate_two_point,
    grad_dot_z,
    hermitian_gradient_square,
    laplacian_z,
    parse,
)

A1 = parse("(1/2)*z1^2", 1)
A2 = parse("z1^3", 1)
PROD = parse("z1^3 + z2^3", 2)
TRIPLE = parse("z1^3 + z2^3 + z3^3", 3)


def random_pairs(samples, n, seed):
    """Point pairs whose real and imaginary parts are normal with scale 0.7."""
    x = np.random.default_rng(seed).normal(scale=0.7, size=(samples, 4, n))
    return x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3]


def test_build_g_examples():
    g = build_g(hermitian_gradient_square(A1))
    assert g == parse(
        "1/3*z1*conj(z1) + 1/2*z1*conj(z2) + 1/2*z2*conj(z1) + z2*conj(z2)", 2
    )
    const = build_g(parse("5/7", 1))
    assert const == parse("5/7", 2)
    # diagonal reproduces the potential
    V = hermitian_gradient_square(A2)
    assert at_u_zero(build_g(V)) == V


def test_build_g_rejects_non_real():
    with pytest.raises(ValueError):
        build_g(parse("z1", 1))


def test_U0_is_identity_and_U1_for_constant_hessian():
    b = build_U(A1, 2)
    assert b.U[0] == OperatorPolynomial.identity(1)
    # B is z-independent for the quadratic singularity, so U1 = -B
    assert (b.U[1] + b.B).is_zero()


def test_U1_symmetry_and_defining_equation():
    for f in (A2, PROD):
        b = build_U(f, 1)
        assert (b.U[1].swap_points() - b.U[1]).is_zero()
        assert (b.U[1] + b.U[1].u_euler() + b.B).is_zero()


def test_U2_satisfies_displayed_j1_identity():
    for f in (A1, A2):
        b = build_U(f, 2)
        lap_g = laplacian_z(b.g)
        lhs = b.U[2].scale(2) + b.U[2].u_euler()
        rhs = b.U[1].laplacian_z() - (b.B @ b.U[1]) \
            - OperatorPolynomial.identity(f.n).scale(lap_g)
        assert (lhs - rhs).is_zero()


@pytest.mark.parametrize("f,k", [(A1, 4), (A2, 4), (PROD, 6)])
def test_recursion_identities_exact(f, k):
    b = build_U(f, k)
    for j in range(0, k):
        assert recursion_residual(b, j).is_zero()


@pytest.mark.parametrize("bad_j", [0, 2])
def test_in_build_recursion_check_catches_perturbed_order(monkeypatch, bad_j):
    # build_U checks each order against the right-hand side it kept; a wrong
    # U_{j+1} (from the order-j tau average) must fail that check at j; at
    # j = 0 this is the U_1 equation
    tau_weighted = OperatorPolynomial.tau_weighted

    def perturbed(self, j):
        out = tau_weighted(self, j)
        if j == bad_j:
            out = out + OperatorPolynomial.identity(self.n)
        return out

    monkeypatch.setattr(OperatorPolynomial, "tau_weighted", perturbed)
    with pytest.raises(AssertionError, match=rf"^recursion identity failed at j={bad_j}$"):
        build_U(A2, 4)


@pytest.mark.parametrize("f,k", [(A1, 2), (A2, 3), (PROD, 2)])
def test_remainder_groups_match_hand_expanded_formulas(f, k):
    # the two groups past the truncation, written out term by term
    b = build_U(f, k)
    g, U = b.g, b.U
    grad_sq_g = MixedPolynomial.zero(2 * f.n)
    for i in range(1, f.n + 1):
        grad_sq_g = grad_sq_g + 4 * (g.wirtinger(i) * g.wirtinger(i, conjugated=True))
    assert grad_dot_z(g, g) == grad_sq_g
    t_k1 = U[k].scale(laplacian_z(g)) + U[k].grad_dot_with(g).scale(2) \
        - U[k - 1].scale(grad_sq_g)
    t_k2 = U[k].scale(grad_sq_g).scale(-1)
    _, got_k1, got_k2 = residual_polynomials(b)
    assert not t_k1.is_zero() and not t_k2.is_zero()
    assert (got_k1 - t_k1).is_zero()
    assert (got_k2 - t_k2).is_zero()


def test_supertrace_polynomials_a1():
    b = build_U(A1, 4)
    assert b.U[1].diagonal_supertrace().is_zero()
    # str U_2 * 2! = str L^2 = -8 (Hessian 1)
    assert b.U[2].diagonal_supertrace() * 2 == MixedPolynomial.constant(1, -8)


def test_supertrace_polynomials_n2():
    b = build_U(PROD, 6)
    for j in (1, 2, 3):
        assert b.U[j].diagonal_supertrace().is_zero()
    str_L4 = (b.B @ b.B @ b.B @ b.B).diagonal_supertrace()
    assert (b.U[4].diagonal_supertrace() * 24 - str_L4).is_zero()
    # and the closed form: (2n)! (-1)^n 4^n |det H|^2 with H = diag(6 z1, 6 z2)
    expected = parse("497664*z1*z2*conj(z1)*conj(z2)", 2)
    assert str_L4 == expected


def test_supertrace_polynomials_n3():
    b = build_U(TRIPLE, 6)
    for j in range(1, 6):
        assert b.U[j].diagonal_supertrace().is_zero()
    str_L6 = (b.B @ b.B @ b.B @ b.B @ b.B @ b.B).diagonal_supertrace()
    assert (b.U[6].diagonal_supertrace() * 720 - str_L6).is_zero()
    # (2n)! (-1)^n 4^n |det H|^2 with H = diag(6 z1, 6 z2, 6 z3)
    expected = parse("-2149908480*z1*z2*z3*conj(z1)*conj(z2)*conj(z3)", 3)
    assert str_L6 == expected


def test_evaluate_Pk_examples():
    b0 = build_U(A1, 0)
    # k = 0 diagonal at the origin: (4 pi t)^{-1} * Identity
    P = evaluate_Pk(b0, [[0.0]], [[0.0]], 1.0)[0]
    assert np.allclose(P, np.eye(4) / (4 * math.pi))
    # off-diagonal k = 0: E0 E1 Identity
    z, w, t = [[0.5 + 0.1j]], [[-0.2j]], 0.7
    P = evaluate_Pk(b0, z, w, t)[0]
    d2 = abs(z[0][0] - w[0][0]) ** 2
    e0 = math.exp(-d2 / (4 * t)) / (4 * math.pi * t)
    e1 = math.exp(-t * evaluate_two_point(b0.g, z, w)[0].real)
    assert np.allclose(P, e0 * e1 * np.eye(4))
    with pytest.raises(ValueError):
        evaluate_Pk(b0, z, w, -1.0)
    with pytest.raises(ValueError):
        evaluate_Pk(b0, z, w, math.nan)


def test_diagonal_Pk_supertrace_matches_exact_kernel():
    # criterion-6 comparison in miniature: str P_2(z, z, t) vs the exact
    # diagonal supertrace of the flat-normalization oscillator
    b = build_U(A1, 2)
    Z = np.linspace(0, 2, 9)[:, None]
    for t in (0.005, 0.01, 0.02):
        got = supertrace_matrix(evaluate_Pk(b, Z, Z, t)).real
        ref = a1_diagonal_supertrace_flat(Z[:, 0], t)
        assert max(abs(got - ref) / abs(ref)) < 1e-3


def test_pk_supertrace_integral_is_minus_one():
    # for the quadratic singularity str P_2(z,z,t) = -(t/pi) e^{-t|z|^2},
    # whose integral is exactly -1 = (-1)^n mu
    b = build_U(A1, 2)
    t = 0.3
    val = supertrace_matrix(evaluate_Pk(b, [[0.0]], [[0.0]], t)[0]).real
    integral = val * math.pi / t  # Gaussian integral of e^{-t|z|^2}
    assert abs(integral + 1) < 1e-12


@pytest.mark.parametrize("f", [A1, A2, PROD], ids=["A1", "A2", "PROD"])
def test_batched_evaluation_matches_row_by_row(f):
    # one (m, n) array of point pairs gives, row for row, the same numbers as
    # each of its (1, n) rows on its own
    b = build_U(f, 3)
    z, w = random_pairs(7, f.n, seed=3)
    t = 0.05
    for evaluate in (
        lambda z, w: evaluate_two_point(b.g, z, w),
        lambda z, w: b.U[2].evaluate(z, w),
        lambda z, w: evaluate_Pk(b, z, w, t),
        lambda z, w: evaluate_residual(b, z, w, t),
    ):
        batch = evaluate(z, w)
        assert batch.shape[0] == len(z)
        rows = np.concatenate([evaluate(z[i:i + 1], w[i:i + 1]) for i in range(len(z))])
        assert np.array_equal(batch, rows)
    # a grid of times leads the shape, one time at a time
    on_grid = evaluate_residual(b, z, w, [0.01, t])
    assert np.array_equal(on_grid[1], evaluate_residual(b, z, w, t))


def test_residual_check_makes_each_remainder_group_once(monkeypatch):
    # one check over the whole t-grid solves each order past the truncation
    # once, and the groups, made anew on each call, do not change
    b = build_U(A2, 3)
    orders = []
    rhs = parametrix._recursion_rhs

    def counted(bundle, U, j):
        orders.append(j)
        return rhs(bundle, U, j)

    monkeypatch.setattr(parametrix, "_recursion_rhs", counted)
    residual_order_check(b, *random_pairs(1, 1, seed=0))
    assert orders == [3, 4, 5]
    assert residual_polynomials(b) == residual_polynomials(b)


def test_residual_leading_exponent_a1_k2():
    b = build_U(A1, 2)
    rep = residual_order_check(b, *random_pairs(6, 1, seed=1))
    assert all(abs(e - 2) < 0.15 for e in rep.fitted_exponents)
    t_k, t_k1, t_k2 = residual_polynomials(b)
    assert not t_k.is_zero()


def test_residual_exponent_increases_with_k():
    b2 = build_U(A1, 2)
    b3 = build_U(A1, 3)
    r2 = residual_order_check(b2, *random_pairs(5, 1, seed=2))
    r3 = residual_order_check(b3, *random_pairs(5, 1, seed=2))
    assert r3.min_exponent >= r2.min_exponent + 0.85


def test_residual_diagonal_scaled_limit():
    # R~(z, z, t) t^{-(k-1)} -> 0 along the grid (leading group is t^k)
    for f in (A1, A2):
        b = build_U(f, 2)
        z = [[0.4 + 0.3j] * f.n]
        vals = [
            np.linalg.norm(evaluate_residual(b, z, z, t)) * t ** (1 - b.k)
            for t in (0.1, 0.05, 0.01, 0.001)
        ]
        assert all(a > b_ for a, b_ in zip(vals, vals[1:]))
        assert vals[-1] < 2e-2 * vals[0]


def test_residual_off_diagonal_full_remainder_vanishes():
    b, b0 = build_U(A2, 2), build_U(A2, 0)
    z, w = [[1.1]], [[0.2 + 0.4j]]
    # the full remainder R = E0 E1 R~, with E0 E1 the k = 0 parametrix P_0 = E0 E1 I
    vals = [
        np.linalg.norm(evaluate_residual(b, z, w, t) * evaluate_Pk(b0, z, w, t)[0, 0, 0].real)
        * t ** (1 - b.k)
        for t in (0.1, 0.02, 0.005)
    ]
    assert vals[-1] < 1e-8 * max(vals[0], 1e-300)


def test_bundle_dump_stable():
    b = build_U(A1, 2)
    d1 = dump_bundle(b)
    d2 = dump_bundle(build_U(A1, 2))
    assert d1 == d2
    assert "U_2" in d1 and "g =" in d1


def test_operator_negation_makes_no_products(monkeypatch):
    U2 = build_U(A2, 2).U[2]
    calls = []
    mul = MixedPolynomial.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(MixedPolynomial, "__mul__", counting)
    difference, negated = U2 - U2, -U2
    assert calls == []
    assert difference.is_zero() and (negated + U2).is_zero()


def naive_operator_product(P, Q):
    """P @ Q as pairwise products p1 * p2 merged by canonical symbol in turn: the reference."""
    out = {}
    for op1, p1 in P.terms.items():
        for op2, p2 in Q.terms.items():
            op, poly = op1.matmul(op2), p1 * p2
            if not op:
                continue
            c0 = op.terms[min(op.terms)]
            if c0 != 1:
                op, poly = op.scale(GaussianRational(1) / c0), poly * c0
            out[op] = out[op] + poly if op in out else poly
    return {op: poly for op, poly in out.items() if poly}


@pytest.mark.parametrize("text,n", [
    ("z1^3", 1), ("z1^3 + z2^3", 2), ("z1^2*z2 + z2^3", 2), ("i*z1^3 + (1/3)*z2^2", 2),
])
def test_operator_product_matches_pairwise_products_merged_by_symbol(text, n):
    b = build_U(parse(text, n), 3)
    for P, Q in [(b.B, U) for U in b.U] + [(b.U[1], b.U[2]), (b.U[2], b.B), (b.U[3], b.U[1])]:
        got, ref = P @ Q, naive_operator_product(P, Q)
        assert got.terms == ref
        assert [(op.canon_key(), list(poly.terms)) for op, poly in got.terms.items()] == \
            [(op.canon_key(), list(poly.terms)) for op, poly in ref.items()]


@pytest.mark.parametrize("text,n,k", [
    ("z1^3 + z2^3", 2, 4), ("z1^2*z2 + z2^3", 2, 2), ("i*z1^3 + (1/3)*z2^2", 2, 3), ("z1^3", 1, 4),
])
def test_every_symbol_has_first_entry_one(text, n, k):
    # the canonical form of every symbol of B, of each U_j and of each remainder group
    b = build_U(parse(text, n), k)
    for P in [b.B] + b.U + list(residual_polynomials(b)):
        for op in P.terms:
            assert op.sorted_terms()[0][1] == 1


def test_canonical_form_is_made_once_per_symbol(monkeypatch):
    # a symbol is made canonical at construction or once per distinct
    # nonzero product, whose canonical form the product cache keeps
    monkeypatch.setattr(parametrix, "_matmul_cache", {})
    calls = []
    canonical = parametrix._canonical

    def counted(op):
        calls.append(op)
        return canonical(op)

    monkeypatch.setattr(parametrix, "_canonical", counted)
    build_U(PROD, 4)
    products = [v for v in parametrix._matmul_cache.values() if v is not None]
    assert products and len(products) < len(parametrix._matmul_cache)
    # the constructor inputs: the identity U_0 and the four Hessian-coupling atoms of B
    assert len(calls) == len(products) + 5


@pytest.mark.parametrize("text,n,k,digest", [
    ("(1/2)*z1^2", 1, 4, "f48ac4d6cf163f7803aa2017b5450e6962df145931a7cb937073ab14b7527ede"),
    ("z1^3", 1, 4, "dc2420a02454bb364212b9587232500f070bd7ad569a49b48fa0edc0fdec6960"),
    ("z1^3 + z2^4", 2, 3, "4a6f4f8f918d4f683514bc3332839a35a75b11bdc4e9d6a89c1d7ff8559a4dba"),
    ("i*z1^3 + (1/3)*z2^2", 2, 3, "eb1477d56a280f5944644c8148d33ae196ec99605d5c9dd5c6e7818bdff9b608"),
], ids=["A1", "A2", "E6", "non-real"])
def test_bundle_dump_is_pinned(text, n, k, digest):
    # g, every U_j and the three remainder groups, as exact text
    b = build_U(parse(text, n), k)
    dump = dump_bundle(b) + "\n".join(g.dump() for g in residual_polynomials(b))
    assert hashlib.sha256(dump.encode()).hexdigest() == digest
