"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Tolerances and budgets are pinned here, not configurable.
"""

import itertools
import math
import random
import time

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
    full_clifford_monomial,
    supertrace_matrix,
)
from singspect.gaussian_rational import GaussianRational
from singspect.index_integral import compute_index, mckean_singer_check
from singspect.oscillator import a1_diagonal_supertrace_flat
from singspect.parametrix import build_U, evaluate_Pk, recursion_residual
from singspect.poly import (
    from_single_point,
    hermitian_gradient_square,
    parse,
    u_euler,
)
from singspect.spectral import (
    GalerkinConfig,
    ar_data,
    eigensolve,
    eigensolve_refined,
    fit_weyl_tail,
    leading_heat_exponent,
    renormalize_and_torsion,
    theta,
    torsion_exact_a1,
    torsion_sum_check,
)
from singspect.weights import milnor_oracle, nondegeneracy_check, solve_weights
from singspect.zeta import zeta_and_derivative

GR = GaussianRational


def _report(num: int, ok: bool, detail: str):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def _prepared(text, n):
    f = parse(text, n)
    wv = solve_weights(f)
    nondegeneracy_check(f, wv)
    return f, wv


def test_criterion_01_clifford_identities():
    start = time.perf_counter()
    ok = True
    kinds = (c, c_hat, c_bar, c_bar_hat)
    signs = (-1, 1, -1, 1)
    for n in (1, 2, 3):
        I = ExteriorOperator.identity(n)
        gens = [(k(i, n), s) for i in range(1, n + 1) for k, s in zip(kinds, signs)]
        ok &= all((g @ g) == I.scale(s) for g, s in gens)
        ok &= all(
            (g1 @ g2 + g2 @ g1).is_zero()
            for (g1, _), (g2, _) in itertools.combinations(gens, 2)
        )
        ok &= full_clifford_monomial(n).supertrace() == GR(4 ** n)
    rng = random.Random(13)
    checked = 0
    while checked < 200:
        n = rng.choice((1, 2, 3))
        gens = [(k, i) for k in range(4) for i in range(1, n + 1)]
        word = [rng.choice(gens) for _ in range(rng.randint(1, 8))]
        odd = {g for g in word if word.count(g) % 2}
        if len(odd) == 4 * n:
            continue
        op = ExteriorOperator.identity(n)
        for k, i in word:
            op = op @ kinds[k](i, n)
        ok &= op.supertrace() == GR(0)
        checked += 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _report(1, ok, f"exact Clifford relations and supertraces, {elapsed:.2f}s")


def test_criterion_02_Lf_supertrace_powers():
    start = time.perf_counter()
    rng = random.Random(29)
    ok = True
    for n in (1, 2):
        fact = math.factorial(2 * n)
        for _ in range(50):
            H = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    H[i][j] = H[j][i] = GR(
                        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                    )
            L = build_Lf(H)
            ok &= all(L.power(m).supertrace() == GR(0) for m in range(1, 2 * n))
            det = H[0][0] if n == 1 else H[0][0] * H[1][1] - H[0][1] * H[1][0]
            expected = GR(det.abs2() * (-1) ** n * 4 ** n * fact)
            ok &= L.power(2 * n).supertrace() == expected
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _report(2, ok, f"str L_f^m identities, 50 random Hessians/n, {elapsed:.2f}s")


def test_criterion_03_index_reproduces_milnor():
    cases = [("(1/2)*z1^2", 1, 1, 0.005), ("z1^3", 1, 2, 0.01),
             ("z1^3 + z2^3", 2, 4, 0.02)]
    ok = True
    details = []
    for text, n, mu, tol in cases:
        f, wv = _prepared(text, n)
        start = time.perf_counter()
        est = compute_index(f, 1.0, budget=10 ** 6, seed=101)
        elapsed = time.perf_counter() - start
        rel = abs(est.estimate - mu) / mu
        ok &= rel <= tol and round(est.estimate) == mu and elapsed < 60.0
        details.append(f"{text}: {est.estimate:.4f} (rel {rel:.2%}, {elapsed:.1f}s)")
    _report(3, ok, "; ".join(details))


def test_criterion_04_mckean_singer_constancy():
    ok = True
    details = []
    for text, n in (("(1/2)*z1^2", 1), ("z1^3", 1), ("z1^3 + z2^3", 2)):
        f, wv = _prepared(text, n)
        res = mckean_singer_check(f, (0.5, 1.0, 2.0), budget=10 ** 6, seed=31)
        ok &= res.mu_rounded == milnor_oracle(wv)
        details.append(f"{text}: pooled {res.mu_pooled:.4f}")
    # 3-sigma coverage of the exact cubic value over 100 reseeds
    f, wv = _prepared("z1^3", 1)
    hits = 0
    for s in range(100):
        est = compute_index(f, 1.0, budget=20000, seed=5000 + s)
        if abs(est.estimate - 2.0) <= 3 * est.std_error:
            hits += 1
    ok &= hits >= 95
    _report(4, ok, f"pairwise 3-sigma constancy; coverage {hits}/100; " + "; ".join(details))


def test_criterion_05_parametrix_exactness():
    start = time.perf_counter()
    ok = True
    for text, n in (("(1/2)*z1^2", 1), ("z1^3", 1), ("z1^3 + z2^3", 2)):
        f = parse(text, n)
        k = 2 * n + 2
        b = build_U(f, k)
        V2 = from_single_point(hermitian_gradient_square(f))
        ok &= (u_euler(b.g) + b.g - V2).is_zero()
        ok &= all(recursion_residual(b, j).is_zero() for j in range(k))
        for j in range(1, 2 * n):
            ok &= b.U[j].diagonal_supertrace().is_zero()
        Lpow = b.B
        for _ in range(2 * n - 1):
            Lpow = Lpow @ b.B
        str_L = Lpow.diagonal_supertrace()
        ok &= (b.U[2 * n].diagonal_supertrace() * math.factorial(2 * n) - str_L).is_zero()
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    _report(5, ok, f"exact g/recursion/supertrace polynomial identities, {elapsed:.1f}s")


def test_criterion_06_parametrix_vs_exact_kernel():
    b = build_U(parse("(1/2)*z1^2", 1), 2)

    Z = np.linspace(0.0, 2.0, 21)[:, None]

    def sup_deviation(t):
        got = supertrace_matrix(evaluate_Pk(b, Z, Z, t)).real
        ref = a1_diagonal_supertrace_flat(Z[:, 0], t)
        return float(max(abs(got - ref) / abs(ref)))

    d001 = sup_deviation(0.01)
    d002 = sup_deviation(0.02)
    d0005 = sup_deviation(0.005)
    ok = d001 <= 1e-3 and d0005 < d001 < d002
    _report(6, ok, f"sup rel deviation {d001:.2e} at t=0.01, decreasing with t")


def test_criterion_07_galerkin_a1():
    start = time.perf_counter()
    spec = eigensolve(GalerkinConfig(parse("(1/2)*z1^2", 1), basis_size=40))
    lam = spec.eigenvalues[:10]
    ref = np.array([1, 2, 2, 3, 3, 3, 4, 4, 4, 4], dtype=float)
    err = float(np.max(np.abs(lam - ref)))
    rep = eigensolve_refined(GalerkinConfig(parse("(1/2)*z1^2", 1), basis_size=20),
                             sizes=(20, 40, 60))
    elapsed = time.perf_counter() - start
    ok = err < 1e-6 and rep.max_increase <= 1e-8 and elapsed < 30.0
    _report(7, ok, f"A_1 eigenvalue error {err:.1e}, monotone refinement, {elapsed:.1f}s")


A1_HALF = parse("(1/2)*z1^2", 1)


@pytest.fixture(scope="module")
def a1_big_spectrum():
    return eigensolve(GalerkinConfig(A1_HALF, basis_size=60, sector_cutoff=70))


def test_criterion_08_heat_trace_exponent(a1_big_spectrum):
    tail = fit_weyl_tail(a1_big_spectrum, ar_data(A1_HALF))
    slope = leading_heat_exponent(a1_big_spectrum, tail)
    ok = abs(slope - (-2.0)) <= 0.04
    _report(8, ok, f"fitted small-t exponent {slope:.4f} vs -2")


def test_criterion_09_torsion_a1(a1_big_spectrum):
    _, zp = zeta_and_derivative(-1.0)
    zp_ref = -0.16542114370045092
    ok = abs(zp - zp_ref) <= 1e-12
    exact_half = torsion_exact_a1(0.5)
    ok &= abs(exact_half.torsion - math.exp(-zp)) < 1e-13
    exact_tau = torsion_exact_a1(1.7)
    ok &= abs(exact_tau.torsion - (2 * 1.7) ** (-1 / 12) * math.exp(-zp)) < 1e-13
    numeric = renormalize_and_torsion(a1_big_spectrum, ar_data(A1_HALF))
    diff = abs(numeric.log_torsion - exact_half.log_torsion)
    ok &= diff <= 1e-3
    _report(9, ok, f"T2 = e^(-zeta'(-1)) = {exact_half.torsion:.6f}; "
                   f"numeric |dlog| = {diff:.2e}")


def test_criterion_10_vanishing_and_sum(a1_big_spectrum):
    tail = fit_weyl_tail(a1_big_spectrum, ar_data(A1_HALF))
    ok = theta(a1_big_spectrum, 1, 3.0, tail) == (0.0, 0.0)
    a2 = eigensolve(GalerkinConfig(parse("z1^3", 1), basis_size=40))
    ok &= theta(a2, 1, 3.0, None) == (0.0, 0.0)
    rep = torsion_sum_check(0.5, 0.5)
    ok &= rep.passed
    _report(10, ok, f"Theta^1 = 0 on computed spectra; sum rule |d| = {rep.difference:.2e}")
