"""The numpy special functions and Gauss-Laguerre rule against scipy."""

import numpy as np
import pytest
from scipy import special

from singspect._special import exp1, upper_gamma
from singspect.index_integral import _gauss_laguerre


def test_exp1_matches_scipy():
    x = np.geomspace(1e-3, 700, 4001)
    assert np.max(np.abs(exp1(x) / special.exp1(x) - 1)) <= 1e-13
    for one in (0.5, 1.0, 2.0, [0.5, 0.25], [3.0]):  # one side of the crossover only
        assert np.allclose(exp1(one), special.exp1(one), rtol=1e-13, atol=0)


def test_upper_gamma_matches_scipy():
    x = np.geomspace(0.05, 600, 200)
    for p in np.linspace(1.05, 3.0, 40):
        ref = special.gamma(p) * special.gammaincc(p, x)
        np.testing.assert_allclose(upper_gamma(p, x), ref, rtol=1e-13, atol=0)


def test_upper_gamma_on_an_array_equals_each_entry():
    # the grid crosses x = p + 1, so one call runs both the series and the fraction
    x = np.geomspace(0.05, 600, 200)
    for p in (1.05, 1.5, 2.0, 3.0):
        np.testing.assert_allclose(upper_gamma(p, x), [upper_gamma(p, xi) for xi in x],
                                   rtol=1e-15, atol=0)


def test_special_functions_reject_nonpositive_arguments():
    with pytest.raises(ValueError):
        exp1(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        upper_gamma(2.0, 0.0)
    with pytest.raises(ValueError):
        upper_gamma(0.0, 1.0)


@pytest.mark.parametrize("nodes", [4, 8, 16, 32, 64, 128])
def test_gauss_laguerre_matches_scipy(nodes):
    s, w = _gauss_laguerre(nodes)
    s_ref, w_ref = special.roots_laguerre(nodes)
    w_ref = np.exp(np.log(w_ref) + s_ref)  # unweighted, as the rule returns them
    assert np.max(np.abs(s / s_ref - 1)) <= 1e-13
    assert np.max(np.abs(w / w_ref - 1)) <= 1e-10


def test_gauss_laguerre_weights_stay_finite():
    # scipy's weights are not finite from 364 nodes
    s, w = _gauss_laguerre(363)
    assert np.all(np.isfinite(w)) and np.all(w > 0)
    assert np.sum(w * np.exp(-s)) == pytest.approx(1.0, rel=1e-13)
