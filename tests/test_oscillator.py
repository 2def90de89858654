import math

import numpy as np
import pytest

from singspect.oscillator import (
    OscillatorSpec,
    a1_diagonal_supertrace_flat,
    convolve_0form_kernel,
    euclidean_heat_kernel,
    ground_state_limit_minus,
    heat_trace_0forms,
    heat_trace_0forms_printed,
    heat_trace_k_forms,
    kernel_functions,
    kernel_normalization_factor,
    spectrum_k_forms,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        OscillatorSpec(0.0, 1.0)
    with pytest.raises(ValueError):
        OscillatorSpec(1.0, -1.0)
    with pytest.raises(ValueError):
        OscillatorSpec(0.5, math.nan)
    with pytest.raises(ValueError):
        OscillatorSpec(math.nan, 1.0)
    with pytest.raises(ValueError):
        spectrum_k_forms(OscillatorSpec(1.0, 1.0), 3, 5)


def test_one_form_spectrum_has_zero_mode():
    spec = OscillatorSpec(0.5, 1.0)
    s = spectrum_k_forms(spec, 1, 6)
    assert s.levels[0] == (0.0, 1)
    assert s.levels[1] == (1.0, 2)   # E- (m+1=2) only; E+ starts at 2|tau|*2
    assert s.levels[2] == (2.0, 4)   # 3 from E- plus 1 from E+


def test_zero_form_spectrum_examples():
    assert spectrum_k_forms(OscillatorSpec(0.5, 1.0), 0, 3).levels[0] == (1.0, 1)
    levels = dict(spectrum_k_forms(OscillatorSpec(1.0, 1.0), 0, 5).levels)
    assert levels[4.0] == 2  # lattice pairs (0,1), (1,0)


@pytest.mark.parametrize("tau", [0.5, 1.7 - 0.4j])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_spectrum_matches_lattice_count(tau, k):
    # count the eigenvalues 2|tau| (k + l + shift) of each sector directly
    a = abs(tau)
    shifts = (0, 2) if k == 1 else (1,)
    for count in range(1, 61):
        lattice = {}
        for shift in shifts:
            for kk in range(count + 2):
                for ll in range(count + 2):
                    m = kk + ll + shift
                    lattice[m] = lattice.get(m, 0) + 1
        ms = sorted(lattice)[:count]
        s = spectrum_k_forms(OscillatorSpec(tau, 1.0), k, count)
        assert s.levels == tuple((2 * a * m, lattice[m]) for m in ms)
        assert s.complete_below == 2 * a * (ms[-1] + 1)


def test_kernel_diagonal_formula():
    spec = OscillatorSpec(0.5, 1.0)
    kv = kernel_functions(spec, 0.0, 0.0)
    assert abs(kv.zero_form - (1 / (2 * math.pi)) / math.sinh(1.0)) < 1e-14
    assert abs(kv.zero_form - 0.13542782627579134) < 1e-12
    z = 0.7 + 0.2j
    kd = kernel_functions(spec, z, z).zero_form
    a, t = spec.a, spec.t
    ref = (4 * math.pi * a * t) ** -1 * (2 * a * t / math.sinh(2 * a * t)) * math.exp(
        -2 * a * abs(z) ** 2 * math.tanh(a * t)
    )
    assert abs(kd - ref) < 1e-14


def test_heat_trace_values():
    assert abs(heat_trace_0forms_printed(1.0) - 0.9206735942077923) < 1e-12
    # t -> 0: t^2 * trace -> 1
    for t in (1e-3, 1e-4):
        assert abs(t ** 2 * heat_trace_0forms_printed(t) - 1) < 1e-5
    # strictly decreasing, positive
    ts = np.linspace(0.1, 3, 40)
    vals = heat_trace_0forms_printed(ts)
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        heat_trace_0forms_printed(math.nan)


def test_heat_traces_take_arrays_of_times():
    # one call on a time grid gives what one call per time gives
    ts = np.geomspace(0.01, 10, 37)
    for tau in (0.5, 1.0, 0.7):
        for k in (0, 1, 2):
            one_by_one = [heat_trace_k_forms(OscillatorSpec(tau, t), k) for t in ts]
            np.testing.assert_allclose(heat_trace_k_forms(OscillatorSpec(tau, ts), k),
                                       one_by_one, rtol=1e-15, atol=0)
    np.testing.assert_allclose(heat_trace_0forms_printed(ts),
                               [heat_trace_0forms_printed(t) for t in ts], rtol=1e-15, atol=0)


def test_printed_vs_spectral_trace_normalizations():
    # the printed tau-free trace equals the spectrum-summed trace at tau = 1/2
    spec_half = OscillatorSpec(0.5, 0.8)
    assert abs(heat_trace_0forms(spec_half) - heat_trace_0forms_printed(0.8)) < 1e-14
    # at other tau they differ; the spectral one follows the stated spectrum
    spec_one = OscillatorSpec(1.0, 0.8)
    summed = spectrum_k_forms(spec_one, 0, 300).heat_sum(0.8)
    assert abs(heat_trace_0forms(spec_one) - summed) < 1e-10
    assert abs(heat_trace_0forms(spec_one) - heat_trace_0forms_printed(0.8)) > 0.1


@pytest.mark.parametrize("k", [0, 1, 2])
def test_eigenvalue_sums_reproduce_traces(k):
    for tau, t in ((0.5, 1.0), (1.0, 0.6), (0.7, 2.0)):
        spec = OscillatorSpec(tau, t)
        sp = spectrum_k_forms(spec, k, 400)
        tail_bound = 500 * math.exp(-t * sp.complete_below)
        assert abs(sp.heat_sum(t) - heat_trace_k_forms(spec, k)) <= tail_bound + 1e-12


def test_semigroup_property():
    # the printed kernel composes exactly at tau = 1/2
    for (t, s) in ((0.2, 0.3), (0.4, 0.7), (1.0, 0.5)):
        z, w = 0.3 + 0.2j, -0.1 + 0.5j
        conv = convolve_0form_kernel(0.5, z, w, t, s)
        ref = kernel_functions(OscillatorSpec(0.5, t + s), z, w).zero_form
        assert abs(conv - ref) < 1e-6
    # at general tau the extra printed normalization 1/(2 tau) appears once
    conv = convolve_0form_kernel(1.0, 0.3, 0.2, 0.4, 0.7)
    ref = kernel_functions(OscillatorSpec(1.0, 1.1), 0.3, 0.2).zero_form
    factor = kernel_normalization_factor(OscillatorSpec(1.0, 1.1))
    assert abs(conv - factor * ref) < 1e-8


@pytest.mark.parametrize("tau,z,w,t,s,value", [
    (0.5, 0.3 + 0.2j, -0.1 + 0.5j, 0.2, 0.3, 0.22907788512225774),
    (0.5, 0.3 + 0.2j, -0.1 + 0.5j, 0.4, 0.7, 0.09842285384279346),
    (0.5, 0.3 + 0.2j, -0.1 + 0.5j, 1.0, 0.5, 0.062273453241307675),
    (1.0, 0.3, 0.2, 0.4, 0.7, 0.0160534384467556),
])
def test_convolution_values_are_pinned(tau, z, w, t, s, value):
    # the semigroup cases above, as the one-node-at-a-time quadrature gave them
    assert convolve_0form_kernel(tau, z, w, t, s) == value


@pytest.mark.parametrize("tau,t,s,message", [
    (0.5, 0.0, 0.3, "t must be positive"),
    (0.5, 0.2, -1.0, "t must be positive"),
    (0.5, 0.2, -0.1, "t must be positive"),
    (0.0, 0.2, 0.3, "tau must be nonzero"),
    (0.5, -0.3, 0.3, "t must be positive"),
])
def test_convolution_rejects_bad_spec(tau, t, s, message):
    # the OscillatorSpec checks, before any kernel arithmetic
    with pytest.raises(ValueError, match=message):
        convolve_0form_kernel(tau, 0.3, 0.2, t, s)


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
def test_euclidean_heat_kernel_rejects_non_positive_time(t):
    with pytest.raises(ValueError):
        euclidean_heat_kernel([[0.0]], [[0.0]], t)


def test_small_time_euclidean_limit():
    # documented conversion: K0 ~ (1/(2 tau)) * euclidean kernel at time t/2
    for tau in (0.5, 1.0, 2.0):
        t = 1e-4
        k0 = kernel_functions(OscillatorSpec(tau, t), 0.01, 0.0).zero_form
        ref = euclidean_heat_kernel([[0.01]], [[0.0]], t / 2)[0] / (2 * tau)
        assert abs(k0 / ref - 1) < 1e-6


def test_ground_state_limit():
    spec = OscillatorSpec(0.5, 40.0)
    for (z, w) in ((0.7, -0.3), (0.2 + 0.1j, 0.5)):
        got = kernel_functions(spec, z, w).one_form_minus
        ref = ground_state_limit_minus(spec, z, w)
        assert abs(got / ref - 1) < 1e-8
    # the E+ sector dies off
    assert kernel_functions(spec, 0.0, 0.0).one_form_plus < 1e-15


def test_flat_diagonal_supertrace_closed_form():
    for t in (0.01, 0.1, 0.5):
        for z in (0.0, 0.8, 1.5 + 0.5j):
            got = a1_diagonal_supertrace_flat(z, t)
            ref = -(math.tanh(t) / math.pi) * math.exp(-abs(z) ** 2 * math.tanh(t))
            assert abs(got - ref) < 1e-14
    # integrates to the index -1 over the plane: int = -(tanh/pi)*(pi/tanh)
    t = 0.3
    assert abs(a1_diagonal_supertrace_flat(0, t) * math.pi / math.tanh(t) + 1) < 1e-12
    with pytest.raises(ValueError):
        a1_diagonal_supertrace_flat(0.8, math.nan)


def test_kernels_take_arrays_of_times():
    # an array of times gives, entry by entry, exactly what each lone time gives
    ts = np.array([0.05, 0.5, 1.0, 3.0])
    for tau, z, w in ((0.5, 0.3 + 0.2j, -0.1 + 0.5j), (1.0, 0.3, 0.2), (2.0, 0.0, 0.0)):
        kv = kernel_functions(OscillatorSpec(tau, ts), z, w)
        for i, t in enumerate(ts):
            one = kernel_functions(OscillatorSpec(tau, t), z, w)
            assert kv.zero_form[i] == one.zero_form
            assert kv.one_form_minus[i] == one.one_form_minus
            assert kv.one_form_plus[i] == one.one_form_plus
    for z in (0.0, 0.8, 1.5 + 0.5j):
        got = a1_diagonal_supertrace_flat(z, ts)
        assert got.tolist() == [a1_diagonal_supertrace_flat(z, t) for t in ts]
    with pytest.raises(ValueError, match="t must be positive"):
        a1_diagonal_supertrace_flat(0.8, np.array([0.5, -1.0]))
