import functools
import math

import numpy as np
import pytest

from singspect.oscillator import OscillatorSpec, heat_trace_0forms
from singspect import spectral
from singspect.poly import parse
from singspect.spectral import (
    GalerkinConfig,
    TailDominates,
    UnsupportedSingularity,
    _sector,
    ar_data,
    choose_oscillator_scale,
    eigensolve,
    eigensolve_refined,
    fit_weyl_tail,
    heat_trace,
    leading_heat_exponent,
    mellin_derivative_at_zero,
    renormalize_and_torsion,
    theta,
    torsion_exact_a1,
    torsion_sum_check,
    torsion_sum_rhs,
)
from singspect.zeta import zeta_and_derivative

A1 = parse("(1/2)*z1^2", 1)
A2 = parse("z1^3", 1)


@pytest.fixture(scope="module")
def a1_spectrum():
    return eigensolve(GalerkinConfig(A1, basis_size=40))


@functools.lru_cache(maxsize=None)
def spectrum_and_data(poly):
    """The CLI's default numeric torsion setting: basis 60, sectors 70."""
    f = parse(poly, 1)
    return eigensolve(GalerkinConfig(f, basis_size=60, sector_cutoff=70)), ar_data(f)


@pytest.fixture(scope="module")
def a1_big():
    return spectrum_and_data("(1/2)*z1^2")[0]


def test_ar_extraction():
    d = ar_data(A1)
    assert d.r == 1 and abs(d.tau_effective - 0.5) < 1e-15
    assert ar_data(A2).r == 2
    expansion = ar_data(A2).heat_expansion()
    assert expansion.p == 1.5 and expansion.a1 == -1 / 6
    assert ar_data(A1).heat_expansion() == (2.0, 1.0, -1 / 12, 1.0)
    with pytest.raises(UnsupportedSingularity):
        ar_data(parse("z1^3 + z2^3", 2))
    with pytest.raises(UnsupportedSingularity):
        ar_data(parse("z1^2 + z1^3", 1))


@pytest.mark.parametrize("text,error", [("(1/10^200)*z1^2", UnsupportedSingularity),
                                        ("10^154*z1^3", UnsupportedSingularity),
                                        ("10^200*z1^3", OverflowError)])
def test_potential_scale_outside_the_float_range_is_rejected(text, error):
    # v = |c|^2 (r+1)^2 underflows to 0, overflows to inf in the product, or
    # overflows in |c|^2; the CLI exits 4 on each
    with pytest.raises(error):
        ar_data(parse(text, 1))


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
            total = 0.0
            for alpha in range(config.sector_cutoff + 1):
                T, Tr = _sector(40, alpha, r)
                H = (omega / 4) * np.abs(T) + (v / omega ** r) * Tr
                total += (1 if alpha == 0 else 2) * np.trace(H)
            return total

        omega = choose_oscillator_scale(config)
        for step in (1e-3, -1e-3):
            assert trace_of(omega * math.exp(step)) >= trace_of(omega)


@pytest.mark.parametrize("alpha", [0, 1, 7, 70])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_sector_hamiltonian_is_bit_identical_to_the_oscillator_form(alpha, r):
    # (omega/4)|T| against the oscillator diagonal minus (omega/4) T: the
    # diagonal of T is positive and its off-diagonal negative, and omega/2,
    # omega/4 are power-of-two scalings, so every entry agrees to the bit
    size = 30
    k = np.arange(size)
    T, Tr = _sector(size, alpha, r)
    for omega in (0.37, 1.0, 2.0, 5.5, 123.4):
        for v in (1e-6, 0.25, 1.0, 9.0, 3.3e4):
            ref = (np.diag(omega / 2 * (2 * k + alpha + 1)) - (omega / 4) * T
                   + (v / omega ** r) * Tr)
            H = (omega / 4) * np.abs(T) + (v / omega ** r) * Tr
            assert np.array_equal(H, ref)


def test_a1_sector_is_exactly_diagonal_at_omega_two():
    # f = z^2/2 has v = 1, r = 1; at omega = 2, (1/2)|T| + (1/2) T is
    # diag(2k + alpha + 1), the exact oscillator levels
    data = ar_data(A1)
    v, r, omega = data.potential_scale, data.r, 2.0
    assert (v, r) == (1.0, 1)
    k = np.arange(24)
    for alpha in (0, 1, 5, 30):
        T, Tr = _sector(24, alpha, r)
        H = (omega / 4) * np.abs(T) + (v / omega ** r) * Tr
        assert np.array_equal(H, np.diag(2.0 * k + alpha + 1))


def test_a1_eigenvalues(a1_spectrum):
    lam = a1_spectrum.eigenvalues[:10]
    ref = np.array([1, 2, 2, 3, 3, 3, 4, 4, 4, 4], dtype=float)
    assert np.max(np.abs(lam - ref)) < 1e-6
    # multiplicity of eigenvalue m is m
    for lamval, mult in a1_spectrum.levels[:8]:
        assert mult == int(round(lamval))


@pytest.mark.parametrize("poly,levels,fours", [("z1^3", 1018, 1), ("z1^4", 1054, 0),
                                                ("z1^5", 995, 2)])
def test_eigensolve_level_counts_are_pinned(poly, levels, fours):
    # sector 0 has multiplicity 1, every other sector pair 2, and a level
    # shared by two sector pairs 4
    spec = spectrum_and_data(poly)[0]
    mults = [m for _, m in spec.levels]
    assert len(mults) == levels
    assert mults.count(4) == fours
    assert mults.count(1) + mults.count(2) + fours == levels


def test_rayleigh_ritz_monotonicity():
    rep = eigensolve_refined(GalerkinConfig(A1, basis_size=20), sizes=(20, 40, 60))
    assert rep.max_increase <= 1e-8
    assert all(e < 1e-6 for e in rep.truncation_errors[:10])


def test_a2_spectrum_positive_and_stable():
    # one oscillator scale for all three sizes; eigensolve_refined also checks monotonicity
    rep = eigensolve_refined(GalerkinConfig(A2, basis_size=40), sizes=(40, 60, 80))
    grounds = []
    for spec in rep.spectra:
        assert np.all(spec.eigenvalues > 0)
        grounds.append(spec.eigenvalues[0])
    assert abs(grounds[-1] - grounds[0]) < 1e-4 * grounds[-1]


def test_heat_trace_matches_oscillator(a1_big):
    tail = fit_weyl_tail(a1_big, ar_data(A1))
    for t in (0.5, 1.0, 2.0):
        exact = heat_trace_0forms(OscillatorSpec(0.5, t))
        trunc_bound = a1_big.complete_below * math.exp(-t * a1_big.complete_below) * 10
        assert abs(heat_trace(a1_big, tail, t) - exact) <= trunc_bound + 1e-9


def test_weyl_tail_upper_mellin_closed_form():
    # small bases keep the modeled tail visible above the split point
    from scipy import integrate

    for f in (A1, A2):
        tail = fit_weyl_tail(eigensolve(GalerkinConfig(f, basis_size=8, sector_cutoff=8)),
                             ar_data(f))
        for split in (0.25, 0.5, 1.0):
            ref, _ = integrate.quad(lambda t: tail.heat_tail(t) / t, split, split + 60.0,
                                    epsrel=1e-12, epsabs=0.0, limit=200)
            assert abs(tail.mellin_upper(split) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("poly", ["(1/2)*z1^2", "z1^3"])
def test_time_functions_take_arrays_of_times(poly):
    # one call on a time grid gives what one call per time gives
    spectrum, data = spectrum_and_data(poly)
    tail = fit_weyl_tail(spectrum, data)
    ts = np.geomspace(0.01, 10, 37)
    for fn in (spectrum.heat_sum, tail.heat_tail, functools.partial(heat_trace, spectrum, tail)):
        np.testing.assert_allclose(fn(ts), [fn(t) for t in ts], rtol=1e-15, atol=0)


def test_mellin_fit_calls_F_once_per_time_grid(a1_big):
    tail = fit_weyl_tail(a1_big, ar_data(A1))
    sizes = []

    def F(t):
        sizes.append(np.size(t))
        return 2 * heat_trace(a1_big, tail, t)

    mellin_derivative_at_zero(F, [2.0, 4.0], 0.0, split=1.0, fit_window=(0.25, 1.0),
                              pinned=[(-2.0, 2.0), (0.0, -1 / 6)])
    assert sizes == [60, 32]  # the fit grid, then the Gauss-Legendre nodes


def test_leading_heat_exponent(a1_big):
    tail = fit_weyl_tail(a1_big, ar_data(A1))
    slope = leading_heat_exponent(a1_big, tail)
    assert abs(slope - (-2.0)) < 0.04  # -(n + 2|q|) = -2 within 2%


def test_theta_values(a1_big):
    tail = fit_weyl_tail(a1_big, ar_data(A1))
    # Theta^1 vanishes identically via the (2^{i-1} - 1) prefactor
    assert theta(a1_big, 1, 2.5, tail) == (0.0, 0.0)
    v, err = theta(a1_big, 2, 3.0, tail)
    assert abs(v - math.pi ** 2 / 6) < max(err, 1e-3)
    with pytest.raises(TailDominates):
        theta(a1_big, 2, 2.1, tail)


def test_exponent_lattice():
    # the Wigner-Kirkwood powers (k - 1)(1 + 1/r) up to 4, nothing else
    for poly, lattice in (("(1/2)*z1^2", [-2, 0, 2, 4]), ("z1^3", [-1.5, 0, 1.5, 3])):
        res = renormalize_and_torsion(*spectrum_and_data(poly))
        assert list(res.exponents) == lattice


def test_torsion_exact_values():
    res = torsion_exact_a1(0.5)
    _, zp = zeta_and_derivative(-1.0)
    assert abs(res.torsion - math.exp(-zp)) < 1e-12
    assert abs(res.log_torsion + zp) < 1e-13
    # tau = 1: the (2 tau)^{-1/12} factor
    res1 = torsion_exact_a1(1.0)
    assert abs(res1.torsion - 2 ** (-1 / 12) * math.exp(-zp)) < 1e-12


def test_numeric_torsion_matches_exact(a1_big):
    exact = torsion_exact_a1(0.5)
    numeric = renormalize_and_torsion(a1_big, ar_data(A1))
    assert abs(numeric.log_torsion - exact.log_torsion) <= 1e-3
    assert abs(numeric.theta_at_0 - (-1.0 / 12)) < 1e-3
    assert not numeric.fit_unstable
    assert numeric.exponents[0] == -2.0


def test_split_point_invariance(a1_big):
    exact = torsion_exact_a1(0.5).log_torsion
    vals = [
        renormalize_and_torsion(a1_big, ar_data(A1), split=s).log_torsion
        for s in (0.5, 1.0, 2.0)
    ]
    for v in vals:
        assert abs(v - exact) < 1e-3
    assert max(vals) - min(vals) < 1e-3


@pytest.mark.parametrize("c", ["(1/4)", "(1/2)", "1", "(3/2)", "2", "100"])
def test_numeric_torsion_error_bar_covers_exact(c):
    # f = c z^2 has tau = c; the split spread must cover the true error
    spectrum, data = spectrum_and_data(f"{c}*z1^2")
    numeric = renormalize_and_torsion(spectrum, data)
    err = abs(numeric.log_torsion - torsion_exact_a1(data.tau_effective).log_torsion)
    assert err <= 3 * numeric.error_bar
    assert err <= 1e-4


@pytest.mark.parametrize("r", [2, 3, 4])
def test_numeric_torsion_scale_covariance(r):
    # f -> 3 f multiplies every eigenvalue by 9^{1/(r+1)}, which shifts
    # log T^2 by that log times Theta(0) = -r/12
    one = renormalize_and_torsion(*spectrum_and_data(f"z1^{r + 1}"))
    three = renormalize_and_torsion(*spectrum_and_data(f"3*z1^{r + 1}"))
    shift = math.log(9) / (r + 1) * (-r / 12)
    assert abs(three.log_torsion - one.log_torsion - shift) <= min(one.error_bar,
                                                                   three.error_bar)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_free_constant_term_recovers_a1(r):
    # the torsion path pins Theta(0) = a_1 = -r/12; fitting the t^0 term with
    # only a_0 pinned measures it from the spectrum instead
    spectrum, data = spectrum_and_data(f"z1^{r + 1}")
    p, a0, _, energy = data.heat_expansion()
    tail = fit_weyl_tail(spectrum, data)
    res = mellin_derivative_at_zero(
        lambda t: 2 * heat_trace(spectrum, tail, t),
        [k * p for k in range(int(4 / p + 1e-9) + 1)], 0.0, split=1 / energy,
        fit_window=(0.25 / energy, 1 / energy), pinned=[(-p, 2 * a0)],
    )
    assert abs(res.value_at_0 + r / 12) <= 0.01 * r / 12


def test_torsion_sum_check():
    rep = torsion_sum_check(0.5, 0.5)
    assert rep.passed
    logT = torsion_exact_a1(0.5).log_torsion
    assert abs(rep.log_rhs - (-2 * logT)) < 1e-14


@pytest.mark.parametrize("tau1,tau2", [(0.5, 1.0), (1.0, 2.0), (2.0, 3.0), (0.25, 0.5),
                                       (1.0, 1.0), (0.5, 3.0)])
def test_torsion_sum_check_across_tau(tau1, tau2):
    rep = torsion_sum_check(tau1, tau2)
    assert rep.passed
    # the spread over three splits covers the distance to the exact right side
    assert rep.difference <= rep.error_bar


def test_torsion_sum_upper_limit_follows_the_smaller_tau():
    # F decays like e^{-2 min(tau) t}; an upper limit scaled to the larger
    # tau cut the (0.5, 3) integral early and set a 1.15e-3 bar
    rep = torsion_sum_check(0.5, 3.0)
    assert rep.error_bar < 5e-4
    assert rep.difference <= rep.error_bar


def test_torsion_paths_share_one_driver(monkeypatch, a1_big):
    # both paths renormalize at split/2, split and 2 split through one driver
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs["split"])
        return mellin_derivative_at_zero(*args, **kwargs)

    monkeypatch.setattr(spectral, "mellin_derivative_at_zero", counting)
    renormalize_and_torsion(a1_big, ar_data(A1))  # E = 1
    assert calls == [1.0, 0.5, 2.0]
    calls.clear()
    torsion_sum_check(0.5, 1.0)  # E = 2 max(tau) = 2
    assert calls == [0.5, 0.25, 1.0]


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
