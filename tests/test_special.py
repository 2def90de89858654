"""The numpy special functions against scipy."""

import numpy as np
import pytest
from scipy import special

from singspect._special import exp1, upper_gamma


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

