"""Sorted eigenvalue lists with multiplicities and a completeness bound; a
function of time takes an array of times and returns one value per time."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with multiplicities, complete below `complete_below`.

    `levels` is sorted by eigenvalue.  `complete_below` bounds the region in
    which no eigenvalue is missing; sums over the spectrum should either stay
    below it or correct for the tail.  The level values and multiplicities
    are also held as arrays, built once, for the sums below.
    """

    levels: Tuple[Tuple[float, int], ...]
    complete_below: float
    _values: np.ndarray = field(init=False, repr=False, compare=False)
    _mults: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.array([lam for lam, _ in self.levels], dtype=float)
        if np.any(np.diff(values) < 0):
            raise ValueError("levels must be sorted by eigenvalue")
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_mults",
                           np.array([m for _, m in self.levels], dtype=np.int64))

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues repeated by multiplicity."""
        return np.repeat(self._values, self._mults)

    def count_below(self, bound: float) -> int:
        return int(self._mults[self._values < bound].sum())

    def heat_sum(self, t):
        """sum of multiplicity * exp(-t*lambda) over the stored levels, elementwise in t."""
        # in place; a row sum adds each time's terms in the order a lone time does
        x = np.multiply.outer(t, -self._values)
        return np.multiply(np.exp(x, out=x), self._mults, out=x).sum(axis=-1)


_CLUSTER_REL_TOL = 1e-6  # relative gap (absolute below 1) that joins two values


def cluster_eigenvalues(values) -> List[Tuple[float, int]]:
    """Group a sorted float array into (value, multiplicity) clusters."""
    levels: List[Tuple[float, int]] = []
    for v in sorted(values):
        if levels and abs(v - levels[-1][0]) <= _CLUSTER_REL_TOL * max(1.0, abs(v)):
            lam, m = levels[-1]
            levels[-1] = ((lam * m + v) / (m + 1), m + 1)
        else:
            levels.append((float(v), 1))
    return levels
