"""Closed-form reference data for the complex 1-d harmonic oscillator.

For f = (tau/2) z^2 on C the twisted Laplacian is exactly solvable.  With
a = |tau|, the spectra are

    0- and 2-forms:  lambda_{k,l} = 2a (k + l + 1)
    1-forms, E- :    lambda_{k,l} = 2a (k + l)      (ground state at 0)
    1-forms, E+ :    lambda_{k,l} = 2a (k + l + 2)

so the levels 2a m and their lattice-count multiplicities are closed forms
in m, which `spectrum_k_forms` returns as arrays.  The kernels are
Mehler-type Gaussians in a fixed normalization.  Two quirks of that
normalization are exposed side by side instead of resolved:

  * the closed-form 0-form heat trace (1 / (2 sinh(t/2)))^2 is tau-free,
    while summing the spectrum above gives (1 / (2 sinh(a t)))^2; both are
    provided (`heat_trace_0forms_printed` vs `heat_trace_0forms`);
  * the kernel formulas integrate to the spectral trace only at a = 1/2;
    for general tau the 0-form kernel carries an extra 1/(2a) relative to
    the semigroup-normalized kernel (see `kernel_normalization_factor`).

The diagonal supertrace in the flat-parametrix normalization (operator
-Delta + V + L_f with f = z^2/2) is obtained from this family by the
documented conversion tau = 1/2, time doubled, unit-normalized form
sectors; see `a1_diagonal_supertrace_flat`.

The kernels work elementwise on arrays of points of C;
`euclidean_heat_kernel` takes (m, n) arrays of points of C^n and returns
one value per row.  A function of time takes an array of times and returns
one value per time: the heat traces work elementwise in t, for which
`OscillatorSpec.t` may be an array of positive times.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .spectrum import Spectrum


class OscillatorSpec:
    """Parameters of the oscillator f = (tau/2) z^2 at time t (an array, for the heat traces)."""

    __slots__ = ("tau", "t")

    def __init__(self, tau: complex, t: float | np.ndarray):
        if not abs(tau) > 0:
            raise ValueError("tau must be nonzero")
        if not np.all(t > 0):
            raise ValueError("t must be positive")
        self.tau = tau
        self.t = t

    @property
    def a(self) -> float:
        return abs(self.tau)


def spectrum_k_forms(spec: OscillatorSpec, form_degree: int, count: int) -> Spectrum:
    """First `count` distinct eigenvalues 2|tau| m of the degree-k sector, in closed form.

    The multiplicity of 2|tau| m is the count of lattice points (k, l) with
    k + l = m - 1 on 0/2-forms, m from 1; on 1-forms it adds the E- count
    k + l = m to the E+ count k + l = m - 2, which is 2m, or 1 at m = 0.
    """
    if form_degree not in (0, 1, 2):
        raise ValueError("form degree must be 0, 1 or 2")
    if count < 1:
        raise ValueError("count must be at least 1")
    a = spec.a
    m = np.arange(count) + (form_degree != 1)
    mults = np.maximum(2 * m, 1) if form_degree == 1 else m
    return Spectrum(2 * a * m, mults, complete_below=float(2 * a * (m[-1] + 1)))


# -- kernels ------------------------------------------------------------------


class KernelValues(NamedTuple):
    """Scalar kernel of 0/2-forms and the two 1-form sector coefficients.

    The 1-form kernel is scalar_minus * phi-(z) (x) phi-(w) plus the plus
    sector, with the form factors phi-+ = (-+ tau/|tau| dz + dzbar).  Each
    field has the broadcast shape of the points it was evaluated at.
    """

    zero_form: np.ndarray
    one_form_minus: np.ndarray
    one_form_plus: np.ndarray


def kernel_functions(spec: OscillatorSpec, z, w) -> KernelValues:
    """The kernels at the points z, w of C and the spec's times, elementwise over arrays."""
    a, t = spec.a, spec.t
    pref = (4 * math.pi * a * t) ** -1 * (2 * a * t / np.sinh(2 * a * t))
    common = (
        -np.abs(z - w) ** 2 / (2 * t) * (2 * a * t / np.sinh(2 * a * t))
        - a * (np.abs(z) ** 2 + np.abs(w) ** 2) * np.tanh(a * t)
    )
    return KernelValues(
        zero_form=pref * np.exp(common),
        one_form_minus=pref * np.exp(common + 2 * a * t),
        one_form_plus=pref * np.exp(common - 2 * a * t),
    )


def kernel_normalization_factor(spec: OscillatorSpec) -> float:
    """Printed 0-form kernel = this factor times the semigroup kernel."""
    return 1.0 / (2 * spec.a)


def euclidean_heat_kernel(z, w, t: float) -> np.ndarray:
    """(4 pi t)^{-n} exp(-|z - w|^2 / 4t) at the rows of two (m, n) arrays of points of C^n."""
    if not t > 0:
        raise ValueError("t must be positive")
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    d2 = (np.abs(z - w) ** 2).sum(axis=-1)
    return (4 * math.pi * t) ** -z.shape[-1] * np.exp(-d2 / (4 * t))


_CONVOLUTION_NODES = 64  # Gauss-Hermite nodes per real axis of the tensor rule


def convolve_0form_kernel(tau: complex, z: complex, w: complex, t: float, s: float) -> float:
    """int K(z, x, t) K(x, w, s) dx by shifted/scaled Gauss-Hermite."""
    spec_t, spec_s = OscillatorSpec(tau, t), OscillatorSpec(tau, s)
    a = spec_t.a
    # |x|^2 coefficient of the combined Gaussian exponent, for node scaling
    beta_t = a / np.sinh(2 * a * t)
    beta_s = a / np.sinh(2 * a * s)
    coef = beta_t + beta_s + a * (np.tanh(a * t) + np.tanh(a * s))
    center = (beta_t * z + beta_s * w) / coef
    xs, ws = np.polynomial.hermite.hermgauss(_CONVOLUTION_NODES)
    sigma = 1.0 / math.sqrt(coef)
    pts = (center + sigma * (xs[:, None] + 1j * xs[None, :])).ravel()
    wts = (ws * np.exp(xs ** 2))[:, None] * (ws * np.exp(xs ** 2))[None, :] * sigma ** 2
    vals = kernel_functions(spec_t, z, pts).zero_form * kernel_functions(spec_s, pts, w).zero_form
    return float((vals * wts.ravel()).sum())


# -- heat traces ---------------------------------------------------------------


def heat_trace_0forms(spec: OscillatorSpec):
    """(1 / (2 sinh(|tau| t)))^2, from summing the stated 0-form spectrum; elementwise in t."""
    return heat_trace_k_forms(spec, 0)


def heat_trace_0forms_printed(t):
    """The tau-free printed form (1 / (2 sinh(t/2)))^2, elementwise in t."""
    if not np.all(t > 0):
        raise ValueError("t must be positive")
    return (1.0 / (2 * np.sinh(t / 2))) ** 2


def heat_trace_k_forms(spec: OscillatorSpec, form_degree: int):
    """Closed-form degree-k heat trace (geometric sums of the spectra), elementwise in t.

    The 1-form trace includes the zero mode; the 0/2-form sectors have none.
    """
    a, t = spec.a, spec.t
    x = np.exp(-2 * a * t)
    if form_degree in (0, 2):
        return x / (1 - x) ** 2  # sum (m) x^m = (1/(2 sinh a t))^2
    if form_degree == 1:
        return (1 + x * x) / (1 - x) ** 2
    raise ValueError("form degree must be 0, 1 or 2")


def ground_state_limit_minus(spec: OscillatorSpec, z, w):
    """t -> infinity limit of the E- 1-form scalar: (1/pi) e^{-|tau|(|z|^2+|w|^2)}, elementwise."""
    return np.exp(-spec.a * (np.abs(z) ** 2 + np.abs(w) ** 2)) / math.pi


# -- flat-normalization diagonal supertrace for f = z^2/2 -----------------------


def a1_diagonal_supertrace_flat(z, t):
    """Exact diagonal supertrace of exp(-t(-Delta + |z|^2 + L_f)), f = z^2/2, elementwise in z.

    Conversion from the oscillator family: that operator is twice the
    tau = 1/2 member, so its kernels are the tau = 1/2 kernels at time 2t
    with unit-normalized form sectors.  The 0/2-form sectors contribute
    2 k(z, z), the 1-form sectors (e^{2t} + e^{-2t}) k(z, z), giving
    -(tanh t / pi) exp(-|z|^2 tanh t).  An array of times needs z to
    broadcast against it.
    """
    spec = OscillatorSpec(0.5, 2 * t)
    kv = kernel_functions(spec, z, z)
    return 2 * kv.zero_form - (kv.one_form_minus + kv.one_form_plus)
