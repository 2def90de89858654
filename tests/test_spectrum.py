import numpy as np
import pytest

from singspect.spectrum import _CLUSTER_REL_TOL, Spectrum, cluster_eigenvalues


def test_cluster_joins_within_the_tolerance_and_weights_by_multiplicity():
    near = 0.4 * _CLUSTER_REL_TOL  # absolute below 1, relative above
    values = np.array([5.0 * (1 + near), 0.3, 2.0, 5.0, 0.3 + near, 0.3 + 3 * near, 2.0 + 1e-3])
    mults = np.array([2, 1, 2, 2, 2, 1, 1])
    lam, m = cluster_eigenvalues(values, mults)
    assert m.tolist() == [4, 2, 1, 4]
    assert lam[0] == pytest.approx((0.3 + 2 * (0.3 + near) + 0.3 + 3 * near) / 4, rel=1e-15)
    assert lam[1] == 2.0 and lam[2] == 2.0 + 1e-3
    assert lam[3] == pytest.approx(5.0 * (1 + near / 2), rel=1e-15)


def test_cluster_keeps_distinct_values_apart():
    values = np.array([3.0, 1.0, 1.0 + 3 * _CLUSTER_REL_TOL, 3.0 * (1 + 2 * _CLUSTER_REL_TOL)])
    lam, m = cluster_eigenvalues(values, np.array([2, 1, 2, 1]))
    assert lam.tolist() == [1.0, 1.0 + 3 * _CLUSTER_REL_TOL, 3.0, 3.0 * (1 + 2 * _CLUSTER_REL_TOL)]
    assert m.tolist() == [1, 2, 2, 1]


def test_spectrum_rejects_unsorted_values_and_mismatched_shapes():
    with pytest.raises(ValueError, match="sorted"):
        Spectrum(np.array([2.0, 1.0]), np.array([1, 1]), complete_below=3.0)
    with pytest.raises(ValueError, match="shapes"):
        Spectrum(np.array([1.0, 2.0]), np.array([1, 1, 2]), complete_below=3.0)


def test_spectrum_sums_over_multiplicities():
    s = Spectrum(np.array([1.0, 2.0]), np.array([1, 3]), complete_below=2.5)
    assert s.levels == ((1.0, 1), (2.0, 3))
    assert s.eigenvalues.tolist() == [1.0, 2.0, 2.0, 2.0]
    assert s.count_below(2.0) == 1 and s.count_below(2.5) == 4
    t = np.array([0.5, 1.0])
    assert np.allclose(s.heat_sum(t), np.exp(-t) + 3 * np.exp(-2 * t))
