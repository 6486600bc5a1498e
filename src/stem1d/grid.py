"""Uniformly sampled sequences on a regular time grid."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import positive_finite

SQRT_2PI = math.sqrt(2.0 * math.pi)


def nearly_equal(a: float, b: float) -> bool:
    """``a`` and ``b`` agree to within 1e-9, relative above magnitude 1."""
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def strict_local_maxima(v: np.ndarray) -> np.ndarray:
    """Mask of the samples above both neighbours along the last axis;
    plateaus and the end samples never qualify."""
    inner = v[..., 1:-1]
    out = np.zeros(v.shape, dtype=bool)
    mask = out[..., 1:-1]  # filled in place: one temporary mask, not three
    np.greater(inner, v[..., :-2], out=mask)
    mask &= inner > v[..., 2:]
    return out


class SampledRows(NamedTuple):
    """Sequences on one grid, one per row of ``values``, each with its own
    margin: a batch of :class:`SampledSequence`, taken unchecked."""

    values: np.ndarray
    dt: float
    t0: float
    margins: Sequence[int]

    def entries(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row, index and value of the samples in ``mask`` (which is
        cleared in the margins), in row-major order."""
        n = mask.shape[1]
        margins = np.asarray(self.margins)[:, np.newaxis]
        m = min(int(margins.max(initial=0)), n)  # only these columns can clear
        mask[:, :m] &= np.arange(m) >= margins
        mask[:, n - m:] &= np.arange(n - m, n) < n - margins
        flat = np.flatnonzero(mask)
        rows = np.arange(n, mask.size, n).searchsorted(flat, side="right")
        return rows, flat - rows * n, self.values.reshape(-1)[flat]


@dataclass(frozen=True, eq=False)
class SampledSequence:
    """A real-valued series sampled at ``t0 + i * dt``.

    ``margin`` records how many samples at each end are distorted by
    boundary effects (e.g. zero padding during convolution).  Consumers
    that care about stationarity skip the margins; the values themselves
    are kept so indexing stays aligned with the original grid.

    The samples live in one private writeable array, of which ``values``
    is a read-only view.  The constructor copies the values it is given;
    :meth:`_adopt` takes an array the library has just made as it is.
    Every time ``t0 + dt * i`` must be finite and distinct from its
    neighbours, so ``dt`` must span at least 4 ulps of the largest time,
    and be a normal double.
    """

    values: np.ndarray
    dt: float
    t0: float = 0.0
    margin: int = 0

    def __post_init__(self, adopt: bool = False):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        dt = positive_finite("dt", self.dt)
        t0 = float(self.t0)
        if not math.isfinite(t0):
            raise ValueError("t0 must be finite")
        # every time is computed as t0 + dt * i, so within 1.5 ulps of the
        # largest: 4 ulps of it keep neighbouring times apart
        last = t0 + dt * (values.size - 1)
        if not (math.isfinite(last) and dt >= 4 * math.ulp(max(abs(t0), abs(last)))):
            raise ValueError(
                f"sample times collide or overflow: t0={t0!r}, dt={dt!r}, "
                f"{values.size} samples"
            )
        if dt < np.finfo(np.float64).tiny:  # kernel weights, of order 1 / dt, overflow
            raise ValueError(f"grid spacing {dt!r} is subnormal")
        if int(self.margin) < 0:
            raise ValueError("margin must be non-negative")
        data = values if adopt else values.copy()
        values = data.view()
        values.setflags(write=False)
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "margin", int(self.margin))

    @classmethod
    def _adopt(cls, values, dt: float, t0: float = 0.0, margin: int = 0) -> "SampledSequence":
        """A sequence whose samples are ``values`` itself, checked as the
        constructor checks them but not copied: for a writeable float64
        array the library has just made and no one else holds."""
        seq = object.__new__(cls)
        seq.__dict__.update(values=values, dt=dt, t0=t0, margin=margin)
        seq.__post_init__(adopt=True)
        return seq

    def __len__(self) -> int:
        return self.values.size

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
