import math

import numpy as np
import pytest
from fractions import Fraction

from singspect.oscillator import OscillatorSpec, heat_trace_0forms
from singspect.poly import parse
from singspect.spectral import (
    GalerkinConfig,
    TailDominates,
    UnsupportedSingularity,
    _sector_matrix,
    ar_data,
    choose_oscillator_scale,
    eigensolve,
    eigensolve_refined,
    exponent_lattice,
    fit_weyl_tail,
    heat_trace,
    heat_trace_samples,
    leading_heat_exponent,
    renormalize_and_torsion,
    riemann_zeta_and_derivative,
    theta,
    torsion_exact_a1,
    torsion_sum_check,
    torsion_sum_rhs,
)

A1 = parse("(1/2)*z1^2", 1)
A2 = parse("z1^3", 1)


@pytest.fixture(scope="module")
def a1_spectrum():
    return eigensolve(GalerkinConfig(A1, basis_size=40))


@pytest.fixture(scope="module")
def a1_big():
    return eigensolve(GalerkinConfig(A1, basis_size=60, sector_cutoff=70))


def test_ar_extraction():
    d = ar_data(A1)
    assert d.r == 1 and abs(d.tau_effective - 0.5) < 1e-15
    assert ar_data(A2).r == 2
    assert ar_data(A2).weight == Fraction(1, 3)
    with pytest.raises(UnsupportedSingularity):
        ar_data(parse("z1^3 + z2^3", 2))
    with pytest.raises(UnsupportedSingularity):
        ar_data(parse("z1^2 + z1^3", 1))


def test_config_validation():
    with pytest.raises(ValueError):
        GalerkinConfig(A1, basis_size=4)
    with pytest.raises(ValueError):
        GalerkinConfig(A2, sector_cutoff=3)  # needs >= 2r + 2 = 6


def test_oscillator_scale_line_search():
    omega = choose_oscillator_scale(GalerkinConfig(A1, basis_size=24))
    assert abs(omega - 2.0) < 1e-3  # exact basis match for the quadratic case


def test_oscillator_scale_minimizes_trace():
    # the closed-form omega* is a minimum of the summed sector-matrix traces
    for f in (A2, parse("z1^4", 1)):
        config = GalerkinConfig(f, basis_size=40)
        v, r = config.data.potential_scale, config.data.r

        def trace_of(omega):
            return sum((1 if alpha == 0 else 2)
                       * np.trace(_sector_matrix(40, alpha, omega, v, r))
                       for alpha in range(config.sector_cutoff + 1))

        omega = choose_oscillator_scale(config)
        for step in (1e-3, -1e-3):
            assert trace_of(omega * math.exp(step)) >= trace_of(omega)


def test_a1_eigenvalues(a1_spectrum):
    lam = a1_spectrum.eigenvalues[:10]
    ref = np.array([1, 2, 2, 3, 3, 3, 4, 4, 4, 4], dtype=float)
    assert np.max(np.abs(lam - ref)) < 1e-6
    # multiplicity of eigenvalue m is m
    for lamval, mult in a1_spectrum.levels[:8]:
        assert mult == int(round(lamval))


def test_rayleigh_ritz_monotonicity():
    rep = eigensolve_refined(GalerkinConfig(A1, basis_size=20), sizes=(20, 40, 60))
    assert rep.max_increase <= 1e-8
    assert all(e < 1e-6 for e in rep.truncation_errors[:10])


def test_a2_spectrum_positive_and_stable():
    base = GalerkinConfig(A2, basis_size=40)
    omega = choose_oscillator_scale(base)
    grounds = []
    for size in (40, 60, 80):
        cfg = GalerkinConfig(A2, basis_size=size, oscillator_scale=omega)
        spec = eigensolve(cfg)
        assert np.all(spec.eigenvalues > 0)
        grounds.append(spec.eigenvalues[0])
    assert abs(grounds[-1] - grounds[0]) < 1e-4 * grounds[-1]


def test_heat_trace_matches_oscillator(a1_big):
    tail = fit_weyl_tail(a1_big)
    for t in (0.5, 1.0, 2.0):
        exact = heat_trace_0forms(OscillatorSpec(0.5, t))
        trunc_bound = a1_big.complete_below * math.exp(-t * a1_big.complete_below) * 10
        assert abs(heat_trace(a1_big, tail, t) - exact) <= trunc_bound + 1e-9


def test_weyl_tail_upper_mellin_closed_form():
    # small bases keep the modeled tail visible above the split point
    from scipy import integrate

    for f in (A1, A2):
        tail = fit_weyl_tail(eigensolve(GalerkinConfig(f, basis_size=8, sector_cutoff=8)))
        for split in (0.25, 0.5, 1.0):
            ref, _ = integrate.quad(lambda t: tail.heat_tail(t) / t, split, split + 60.0,
                                    epsrel=1e-12, epsabs=0.0, limit=200)
            assert abs(tail.mellin_upper(split) - ref) <= 1e-12 * ref


def test_heat_trace_samples_csv_columns(a1_big):
    rows = heat_trace_samples(a1_big, fit_weyl_tail(a1_big), (0.5, 1.0))
    assert len(rows) == 2 and len(rows[0]) == 3
    assert rows[0][1] > rows[1][1] > 0


def test_leading_heat_exponent(a1_big):
    tail = fit_weyl_tail(a1_big)
    slope = leading_heat_exponent(a1_big, tail)
    assert abs(slope - (-2.0)) < 0.04  # -(n + 2|q|) = -2 within 2%


def test_theta_values(a1_big):
    tail = fit_weyl_tail(a1_big)
    # Theta^1 vanishes identically via the (2^{i-1} - 1) prefactor
    assert theta(a1_big, 1, 2.5, tail) == (0.0, 0.0)
    v, err = theta(a1_big, 2, 3.0, tail)
    assert abs(v - math.pi ** 2 / 6) < max(err, 1e-3)
    with pytest.raises(TailDominates):
        theta(a1_big, 2, 2.1, tail)


def test_exponent_lattice():
    lat = exponent_lattice([Fraction(1, 2)], n=1)
    assert lat[0] == -2.0
    assert 0.0 in lat and -1.5 in lat
    # q = 1/3: the plain family leads with -(1 + 2/3), the scaled one with -3/2
    lat3 = exponent_lattice([Fraction(1, 3)], n=1)
    assert lat3[0] == round(-5 / 3, 12) and -1.5 in lat3


def test_torsion_exact_values():
    res = torsion_exact_a1(0.5)
    _, zp = riemann_zeta_and_derivative(-1.0)
    assert abs(res.torsion - math.exp(-zp)) < 1e-12
    assert abs(res.log_torsion + zp) < 1e-13
    # tau = 1: the (2 tau)^{-1/12} factor
    res1 = torsion_exact_a1(1.0)
    assert abs(res1.torsion - 2 ** (-1 / 12) * math.exp(-zp)) < 1e-12


def test_numeric_torsion_matches_exact(a1_big):
    exact = torsion_exact_a1(0.5)
    numeric = renormalize_and_torsion(a1_big, [Fraction(1, 2)])
    assert abs(numeric.log_torsion - exact.log_torsion) <= 1e-3
    assert abs(numeric.theta_at_0 - (-1.0 / 12)) < 1e-3
    assert not numeric.fit_unstable
    assert numeric.exponents[0] == -2.0


def test_split_point_invariance(a1_big):
    exact = torsion_exact_a1(0.5).log_torsion
    vals = [
        renormalize_and_torsion(a1_big, [Fraction(1, 2)], split=s).log_torsion
        for s in (0.5, 1.0, 2.0)
    ]
    for v in vals:
        assert abs(v - exact) < 1e-3
    assert max(vals) - min(vals) < 1e-3


def test_torsion_sum_check():
    rep = torsion_sum_check(0.5, 0.5)
    assert rep.passed
    logT = torsion_exact_a1(0.5).log_torsion
    assert abs(rep.log_rhs - (-2 * logT)) < 1e-14


def test_torsion_sum_scale_covariance():
    # replacing tau by 2 tau shifts log T^2 by -(1/12) log 2 on both sides
    for tau in (0.5, 1.0):
        l1 = torsion_exact_a1(tau).log_torsion
        l2 = torsion_exact_a1(2 * tau).log_torsion
        assert abs((l2 - l1) + math.log(2) / 12) < 1e-12
    rhs1 = torsion_sum_rhs(1, 1, torsion_exact_a1(0.5).log_torsion,
                           1, 1, torsion_exact_a1(0.5).log_torsion)
    rhs2 = torsion_sum_rhs(1, 1, torsion_exact_a1(1.0).log_torsion,
                           1, 1, torsion_exact_a1(1.0).log_torsion)
    assert abs((rhs2 - rhs1) - 2 * math.log(2) / 12) < 1e-12


def test_torsion_sum_rhs_mu_zero_sanity():
    # setting mu2 = 0 removes the f1 torsion contribution (linear-in-mu form)
    assert torsion_sum_rhs(3, 1, 0.7, 0, 2, 123.0) == (-1) * 3 * 123.0
    assert torsion_sum_rhs(0, 1, 0.7, 5, 2, 123.0) == 5 * 0.7


def test_zeta_oracle_reexport():
    v, d = riemann_zeta_and_derivative(2.0)
    assert abs(v - math.pi ** 2 / 6) < 1e-12
