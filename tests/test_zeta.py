import math

import pytest

from singspect import zeta as zeta_module
from singspect.zeta import zeta_and_derivative


def test_zeta_two():
    assert abs(zeta_and_derivative(2.0)[0] - math.pi ** 2 / 6) < 1e-12


def test_zeta_minus_one():
    assert abs(zeta_and_derivative(-1.0)[0] + 1.0 / 12) < 1e-14


def test_zeta_derivative_minus_one(monkeypatch):
    _, d = zeta_and_derivative(-1.0)
    assert abs(d + 0.16542114370045092) < 1e-12
    # two independent truncation levels agree
    monkeypatch.setattr(zeta_module, "_N_TERMS", 80)
    _, d2 = zeta_and_derivative(-1.0)
    assert abs(d - d2) < 1e-12


def test_functional_values_on_range():
    known = {
        0.0: -0.5,
        -3.0: 1.0 / 120,
        -9.0: -1.0 / 132,
        3.0: 1.2020569031595943,
        10.0: 1.0009945751278181,
    }
    for s, v in known.items():
        assert abs(zeta_and_derivative(s)[0] - v) < 1e-12, s


def test_zeta_derivative_at_zero():
    assert abs(zeta_and_derivative(0.0)[1] + 0.5 * math.log(2 * math.pi)) < 1e-12


def test_guards():
    with pytest.raises(ValueError):
        zeta_and_derivative(1.0)
    with pytest.raises(ValueError):
        zeta_and_derivative(10.5)
