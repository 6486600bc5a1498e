"""Uniformly sampled sequences on a regular time grid."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)


def nearly_equal(a: float, b: float) -> bool:
    """``a`` and ``b`` agree to within 1e-9, relative above magnitude 1."""
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def strict_local_maxima(v: np.ndarray) -> np.ndarray:
    """Indices i with v[i] above both neighbours; plateaus never qualify."""
    return np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1


@dataclass(frozen=True, eq=False)
class SampledSequence:
    """A real-valued series sampled at ``t0 + i * dt``.

    ``margin`` records how many samples at each end are distorted by
    boundary effects (e.g. zero padding during convolution).  Consumers
    that care about stationarity skip the margins; the values themselves
    are kept so indexing stays aligned with the original grid.
    """

    values: np.ndarray
    dt: float
    t0: float = 0.0
    margin: int = 0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if not (float(self.dt) > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not np.isfinite(self.t0):
            raise ValueError("t0 must be finite")
        if int(self.margin) < 0:
            raise ValueError("margin must be non-negative")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "margin", int(self.margin))

    def __len__(self) -> int:
        return self.values.size

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.values.size)

    def time_at(self, index: int | np.ndarray):
        return self.t0 + self.dt * index

    @property
    def duration(self) -> float:
        """Time span covered by the grid, (n - 1) * dt."""
        return (self.values.size - 1) * self.dt

    @property
    def interior(self) -> np.ndarray:
        """Values with the boundary margins stripped (may be empty)."""
        n = self.values.size
        if 2 * self.margin >= n:
            return self.values[:0]
        return self.values[self.margin:n - self.margin]

    def with_values(self, values: np.ndarray, margin: int | None = None) -> "SampledSequence":
        """Same grid, new values (and optionally a new margin)."""
        return SampledSequence(
            values, self.dt, self.t0,
            self.margin if margin is None else margin,
        )
