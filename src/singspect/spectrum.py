"""A spectrum: sorted distinct eigenvalues and their multiplicities as two
arrays; a function of time takes an array of times, one value per time."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted eigenvalues `values` with integer multiplicities `mults` (same shape).

    `complete_below` bounds the region in which no eigenvalue is missing;
    sums over the spectrum should either stay below it or correct for the tail.
    """

    values: np.ndarray
    mults: np.ndarray
    complete_below: float

    def __post_init__(self):
        if self.values.shape != self.mults.shape:
            raise ValueError("values and mults must have equal shapes")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("values must be sorted")

    @property
    def levels(self) -> Tuple[Tuple[float, int], ...]:
        """(value, multiplicity) pairs as Python floats and ints."""
        return tuple(zip(self.values.tolist(), self.mults.tolist()))

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues repeated by multiplicity."""
        return np.repeat(self.values, self.mults)

    def count_below(self, bound: float) -> int:
        return int(self.mults[self.values < bound].sum())

    def heat_sum(self, t):
        """sum of multiplicity * exp(-t*lambda) over the stored levels, elementwise in t."""
        # in place; a row sum adds each time's terms in the order a lone time does
        x = np.multiply.outer(t, -self.values)
        return np.multiply(np.exp(x, out=x), self.mults, out=x).sum(axis=-1)


_CLUSTER_REL_TOL = 1e-6  # relative gap (absolute below 1) that joins two values


def cluster_eigenvalues(values: np.ndarray, mults: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Join values with multiplicities into sorted distinct levels.

    After one stable sort, a level starts wherever the gap to the previous
    value exceeds the tolerance; it holds the multiplicity-weighted mean of
    its values and the sum of their multiplicities.
    """
    order = np.argsort(values, kind="stable")
    v, m = values[order], mults[order]
    new = np.ones(v.size, dtype=bool)
    new[1:] = np.diff(v) > _CLUSTER_REL_TOL * np.maximum(1.0, np.abs(v[1:]))
    starts = np.flatnonzero(new)
    total = np.add.reduceat(m, starts)
    return np.add.reduceat(v * m, starts) / total, total
