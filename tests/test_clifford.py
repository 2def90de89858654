import itertools
import random

import numpy as np
import pytest
from fractions import Fraction

from singspect.clifford import (
    ExteriorOperator,
    build_Lf,
    c,
    c_bar,
    c_bar_hat,
    c_hat,
    contraction,
    full_clifford_monomial,
    number_operator,
    number_operator_clifford,
    supertrace_matrix,
    wedge,
)
from singspect.gaussian_rational import GaussianRational

GR = GaussianRational


def all_generators(n):
    out = []
    for i in range(1, n + 1):
        out += [(c(i, n), -1), (c_bar(i, n), -1), (c_hat(i, n), 1), (c_bar_hat(i, n), 1)]
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_squares_and_anticommutation(n):
    I = ExteriorOperator.identity(n)
    gens = all_generators(n)
    for g, sq in gens:
        assert (g @ g) == I.scale(sq)
    for (g1, _), (g2, _) in itertools.combinations(gens, 2):
        assert (g1 @ g2 + g2 @ g1).is_zero()


def test_n1_matrix_action_of_c():
    # basis masks: 0 = 1, 1 = dz, 2 = dzbar, 3 = dz^dzbar
    op = c(1, 1)
    assert op.terms[(1, 0)] == GR(1)      # 1 -> dz
    assert op.terms[(0, 1)] == GR(-1)     # dz -> -1
    assert op.terms[(3, 2)] == GR(1)      # dzbar -> dz^dzbar
    assert op.terms[(2, 3)] == GR(-1)     # dz^dzbar -> -dzbar
    assert (op @ op) == ExteriorOperator.identity(1).scale(-1)


def test_generator_lookup_and_range():
    with pytest.raises(ValueError):
        c(3, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_number_operator(n):
    N = number_operator(n)
    assert N == number_operator_clifford(n)
    eig = sorted(complex(v).real for (r, cc), v in N.terms.items() if r == cc)
    if n == 1:
        assert eig == [1.0, 1.0, 2.0]  # degree-0 entry is absent (zero)
    # trace N = sum_k k C(2n, k)
    from math import comb
    expected = sum(k * comb(2 * n, k) for k in range(2 * n + 1))
    assert N.trace() == GR(expected)
    # N commutes with the degree-preserving c_i chat_i
    for i in range(1, n + 1):
        a = c(i, n) @ c_hat(i, n)
        assert (N @ a - a @ N).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_supertrace_basics(n):
    assert ExteriorOperator.identity(n).supertrace() == GR(0)
    assert full_clifford_monomial(n).supertrace() == GR(4 ** n)
    assert c(1, n).supertrace() == GR(0)


def test_supertrace_of_random_non_full_monomials():
    rng = random.Random(7)
    kinds = [c, c_hat, c_bar, c_bar_hat]
    for n in (1, 2, 3):
        gens = [(k, i) for k in range(4) for i in range(1, n + 1)]
        checked = 0
        while checked < 70:
            word = [rng.choice(gens) for _ in range(rng.randint(1, 8))]
            odd = {g for g in word if word.count(g) % 2}
            if len(odd) == 4 * n:
                continue  # reduces to the full monomial; supertrace 4^n instead
            op = ExteriorOperator.identity(n)
            for k, i in word:
                op = op @ kinds[k](i, n)
            assert op.supertrace() == GR(0)
            checked += 1


def _rand_symmetric(rng, n):
    H = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            H[i][j] = H[j][i] = GR(
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            )
    return H


def _det(H):
    n = len(H)
    if n == 1:
        return H[0][0]
    return H[0][0] * H[1][1] - H[0][1] * H[1][0]


def test_Lf_examples():
    L = build_Lf([[GR(1)]])
    assert L.supertrace() == GR(0)
    assert (L @ L).supertrace() == GR(-8)
    L2 = build_Lf([[GR(1), GR(0)], [GR(0), GR(1)]])
    assert L2.power(4).supertrace() == GR(384)
    with pytest.raises(ValueError):
        build_Lf([[GR(1), GR(2)], [GR(3), GR(1)]])


@pytest.mark.parametrize("n", [1, 2])
def test_Lf_supertrace_identities_random(n):
    rng = random.Random(11 + n)
    sign = (-1) ** n
    for _ in range(15):
        H = _rand_symmetric(rng, n)
        L = build_Lf(H)
        for m in range(1, 2 * n):
            assert L.power(m).supertrace() == GR(0)
        factorial_2n = [2, 24][n - 1]
        expected = GR(_det(H).abs2() * sign * 4 ** n * factorial_2n)
        assert L.power(2 * n).supertrace() == expected


def test_supertrace_linearity_in_A():
    # str(N A) and str(N^2 A) are linear in A
    n = 2
    rng = random.Random(3)
    N = number_operator(n)
    A = build_Lf(_rand_symmetric(rng, n))
    B = build_Lf(_rand_symmetric(rng, n))
    lam = GR(Fraction(3, 7), Fraction(-1, 2))
    for P in (N, N @ N):
        lhs = (P @ (A.scale(lam) + B)).supertrace()
        rhs = lam * (P @ A).supertrace() + (P @ B).supertrace()
        assert lhs == rhs


def test_dense_supertrace_matches_exact():
    L = build_Lf([[GR(2), GR(1)], [GR(1), GR(-1)]])
    m = L.power(4).to_numpy()
    exact = L.power(4).supertrace()
    assert abs(supertrace_matrix(m) - complex(exact)) < 1e-9


def test_wedge_contraction_adjointness():
    for n in (1, 2):
        for g in range(2 * n):
            W = wedge(n, g).to_numpy()
            C = contraction(n, g).to_numpy()
            assert np.allclose(W.conj().T, C)


def test_contraction_respects_exact_cap():
    # above n = 6 neither builder allocates its 4^n-state table
    for builder in (wedge, contraction):
        with pytest.raises(ValueError, match="capped"):
            builder(7, 0)


def test_entries_are_exact():
    # numeric work goes through to_numpy and supertrace_matrix, not float entries
    with pytest.raises(TypeError):
        build_Lf([[1.5]])
    with pytest.raises(TypeError):
        ExteriorOperator.identity(1).scale(complex(1.5, 0.5))
