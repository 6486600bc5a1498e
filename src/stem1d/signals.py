"""Synthetic signals: peak shapes, their placement, and region bookkeeping.

A signal is a sum of non-negative unimodal peaks with compact support on
a symmetric domain [-L/2, L/2].  Truncated shapes (Gaussian, Laplace,
Cauchy) are *not* renormalized after truncation, so their integral falls
slightly short of 1; the compact-support shapes integrate to 1 exactly.

Region bookkeeping partitions the domain into the signal support, the
transition region created by smoothing, and the remaining null region.
Boundary points shared between the signal support and the transition
region belong to the signal support.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import SQRT_2PI, SampledSequence
from .kernels import Kernel


# ---------------------------------------------------------------------------
# peak shapes


@dataclass(frozen=True)
class TruncatedGaussianShape:
    """(1/b) phi(t/b) cut off at |t| <= c*b, without renormalization."""

    b: float
    c: float = 3.0

    def __post_init__(self):
        if not (self.b > 0 and self.c > 0):
            raise ValueError("b and c must be positive")

    @property
    def half_support(self) -> float:
        return self.b * self.c

    def density(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        inside = np.abs(t) <= self.half_support
        out = np.zeros_like(t)
        out[inside] = np.exp(-0.5 * (t[inside] / self.b) ** 2) / (self.b * SQRT_2PI)
        return out


@dataclass(frozen=True)
class EpanechnikovShape:
    """(3/4)(1 - (t/h)^2)/h on [-h, h]; integrates to 1 exactly."""

    halfwidth: float

    def __post_init__(self):
        if not (self.halfwidth > 0):
            raise ValueError("halfwidth must be positive")

    @property
    def half_support(self) -> float:
        return self.halfwidth

    def density(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        u = t / self.halfwidth
        inside = np.abs(u) <= 1.0
        out = np.zeros_like(t)
        out[inside] = 0.75 * (1.0 - u[inside] ** 2) / self.halfwidth
        return out


@dataclass(frozen=True)
class TriangularShape:
    """(1 - |t|/h)/h on [-h, h]; integrates to 1 exactly."""

    halfwidth: float

    def __post_init__(self):
        if not (self.halfwidth > 0):
            raise ValueError("halfwidth must be positive")

    @property
    def half_support(self) -> float:
        return self.halfwidth

    def density(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        u = np.abs(t) / self.halfwidth
        out = np.where(u <= 1.0, (1.0 - u) / self.halfwidth, 0.0)
        return out


@dataclass(frozen=True)
class LaplaceShape:
    """(1/2b) exp(-|t|/b) cut off at |t| <= c*b, without renormalization."""

    b: float
    c: float = 3.0

    def __post_init__(self):
        if not (self.b > 0 and self.c > 0):
            raise ValueError("b and c must be positive")

    @property
    def half_support(self) -> float:
        return self.b * self.c

    def density(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        inside = np.abs(t) <= self.half_support
        out = np.zeros_like(t)
        out[inside] = np.exp(-np.abs(t[inside]) / self.b) / (2.0 * self.b)
        return out


@dataclass(frozen=True)
class CauchyShape:
    """Cauchy density of scale b cut off at |t| <= c*b, without renormalization."""

    b: float
    c: float = 3.0

    def __post_init__(self):
        if not (self.b > 0 and self.c > 0):
            raise ValueError("b and c must be positive")

    @property
    def half_support(self) -> float:
        return self.b * self.c

    def density(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        inside = np.abs(t) <= self.half_support
        out = np.zeros_like(t)
        out[inside] = 1.0 / (math.pi * self.b * (1.0 + (t[inside] / self.b) ** 2))
        return out


@dataclass(frozen=True, eq=False)
class CustomShape:
    """A sampled profile, zero outside the sampled support.

    ``profile[center_index]`` sits at offset 0; values are linearly
    interpolated between samples.  The support is the smallest interval
    outside which the profile vanishes.
    """

    profile: np.ndarray
    dt: float
    center_index: int

    def __post_init__(self):
        profile = np.asarray(self.profile, dtype=np.float64)
        if profile.ndim != 1 or profile.size == 0:
            raise ValueError("profile must be a non-empty 1-D array")
        if not np.all(np.isfinite(profile)):
            raise ValueError("profile must be finite")
        if not (self.dt > 0):
            raise ValueError("dt must be positive")
        if not 0 <= int(self.center_index) < profile.size:
            raise ValueError("center_index out of range")
        nonzero = np.flatnonzero(profile)
        if nonzero.size == 0:
            raise ValueError("profile is identically zero")
        profile = profile.copy()
        profile.setflags(write=False)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "center_index", int(self.center_index))

    @property
    def _offsets(self) -> np.ndarray:
        return (np.arange(self.profile.size) - self.center_index) * self.dt

    @property
    def half_support(self) -> float:
        nonzero = np.flatnonzero(self.profile)
        offs = self._offsets
        return max(abs(offs[nonzero[0]]), abs(offs[nonzero[-1]]))

    def density(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        return np.interp(t, self._offsets, self.profile, left=0.0, right=0.0)


PeakShape = (
    TruncatedGaussianShape
    | EpanechnikovShape
    | TriangularShape
    | LaplaceShape
    | CauchyShape
    | CustomShape
)


# ---------------------------------------------------------------------------
# peak and signal specifications


@dataclass(frozen=True)
class PeakSpec:
    """One peak: a unit-action shape scaled by ``amplitude`` at ``center``."""

    shape: PeakShape
    amplitude: float
    center: float

    def __post_init__(self):
        if not (self.amplitude > 0):
            raise ValueError("amplitude must be positive")
        if not np.isfinite(self.center):
            raise ValueError("center must be finite")

    @property
    def support(self) -> tuple[float, float]:
        h = self.shape.half_support
        return (self.center - h, self.center + h)

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        return self.amplitude * self.shape.density(np.asarray(t) - self.center)


@dataclass(frozen=True)
class SignalSpec:
    """A collection of peaks on the symmetric domain [-L/2, L/2].

    Peak supports may overlap; each must lie inside the domain.
    """

    peaks: tuple[PeakSpec, ...]
    domain_length: float

    def __post_init__(self):
        object.__setattr__(self, "peaks", tuple(self.peaks))
        if not (self.domain_length > 0):
            raise ValueError("domain_length must be positive")
        half = self.domain_length / 2.0
        for peak in self.peaks:
            lo, hi = peak.support
            if lo < -half or hi > half:
                raise ValueError(
                    f"peak at {peak.center} has support [{lo}, {hi}] "
                    f"outside the domain [{-half}, {half}]"
                )

    @property
    def num_peaks(self) -> int:
        return len(self.peaks)

    @property
    def domain(self) -> tuple[float, float]:
        half = self.domain_length / 2.0
        return (-half, half)


def synthesize_signal(spec: SignalSpec, dt: float) -> SampledSequence:
    """Evaluate the sum of peaks on the grid covering the domain.

    The grid runs from -L/2 to L/2 inclusive with spacing ``dt``; ``dt``
    must be positive and smaller than every peak's support width.
    """
    if not (dt > 0):
        raise ValueError("dt must be positive")
    for peak in spec.peaks:
        if dt >= 2.0 * peak.shape.half_support:
            raise ValueError(
                f"dt={dt} does not resolve the peak at {peak.center} "
                f"(support width {2.0 * peak.shape.half_support})"
            )
    half = spec.domain_length / 2.0
    n = int(round(spec.domain_length / dt)) + 1
    times = -half + dt * np.arange(n)
    mu = np.zeros(n)
    for peak in spec.peaks:
        mu += peak.evaluate(times)
    return SampledSequence(mu, dt, t0=-half)


# ---------------------------------------------------------------------------
# regions


class Region(enum.Enum):
    SIGNAL = "signal"
    TRANSITION = "transition"
    NULL_CORE = "null_core"


def _edge_arrays(intervals) -> tuple[np.ndarray, np.ndarray]:
    los = np.array([lo for lo, _ in intervals], dtype=np.float64)
    his = np.array([hi for _, hi in intervals], dtype=np.float64)
    los.setflags(write=False)
    his.setflags(write=False)
    return los, his


@dataclass(frozen=True, eq=False)
class IntervalUnion:
    """A finite union of closed intervals, stored sorted and merged."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        merged: list[list[float]] = []
        for lo, hi in sorted(self.intervals):
            if hi < lo:
                raise ValueError(f"empty interval [{lo}, {hi}]")
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        object.__setattr__(
            self, "intervals", tuple((lo, hi) for lo, hi in merged)
        )

    @property
    def measure(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper ends of the intervals, as sorted arrays."""
        return _edge_arrays(self.intervals)

    def contains(self, t) -> np.ndarray:
        """Vectorized closed-interval membership."""
        t = np.asarray(t, dtype=np.float64)
        if not self.intervals:
            return np.zeros(t.shape, dtype=bool)
        los, his = self._edges
        pos = np.searchsorted(los, t, side="right") - 1
        valid = pos >= 0
        result = np.zeros(t.shape, dtype=bool)
        result[valid] = t[valid] <= his[pos[valid]]
        return result

    def dilate(self, left: float, right: float) -> "IntervalUnion":
        """Minkowski sum with the interval [-left, right]."""
        if left < 0 or right < 0:
            raise ValueError("dilation extents must be non-negative")
        return IntervalUnion(
            tuple((lo - left, hi + right) for lo, hi in self.intervals)
        )


@dataclass(frozen=True, eq=False)
class RegionSet:
    """Partition of the domain induced by a signal and a smoothing kernel.

    ``signal`` is the union of peak supports; ``smoothed_signal`` is the
    union of supports of the smoothed peaks (each support dilated by the
    kernel's reach on either side).  The transition region is their set
    difference, and the null core is everything else.  The full null
    region (transition plus null core) is the complement of ``signal``.
    """

    domain: tuple[float, float]
    signal: IntervalUnion
    smoothed_signal: IntervalUnion
    peak_supports: tuple[tuple[float, float], ...]

    @cached_property
    def support_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper ends of ``peak_supports``, in peak order."""
        return _edge_arrays(self.peak_supports)

    @property
    def signal_measure(self) -> float:
        return self.signal.measure

    @property
    def null_measure(self) -> float:
        return (self.domain[1] - self.domain[0]) - self.signal.measure

    @property
    def smoothed_signal_measure(self) -> float:
        return self.smoothed_signal.measure

    @property
    def smoothed_null_measure(self) -> float:
        return (self.domain[1] - self.domain[0]) - self.smoothed_signal.measure

    @property
    def transition_measure(self) -> float:
        return self.smoothed_signal.measure - self.signal.measure

    def classify(self, t) -> np.ndarray:
        """Assign each time to exactly one of the three regions.

        Boundary points of the signal support count as signal; boundary
        points of the smoothed support count as transition.
        """
        t = np.asarray(t, dtype=np.float64)
        in_signal = self.signal.contains(t)
        in_smoothed = self.smoothed_signal.contains(t)
        out = np.full(t.shape, Region.NULL_CORE, dtype=object)
        out[in_smoothed & ~in_signal] = Region.TRANSITION
        out[in_signal] = Region.SIGNAL
        return out

    def in_null(self, t) -> np.ndarray:
        """Membership in the full null region (complement of the supports)."""
        return ~self.signal.contains(t)


def compute_regions(spec: SignalSpec, kernel: Kernel) -> RegionSet:
    """Region partition for a signal smoothed by ``kernel``.

    Each peak support is dilated by the kernel support on the matching
    side (Minkowski sum), then overlapping pieces are merged.
    """
    supports = tuple(peak.support for peak in spec.peaks)
    signal = IntervalUnion(supports)
    k_left, k_right = kernel.support
    smoothed = signal.dilate(left=-k_left, right=k_right)
    return RegionSet(
        domain=spec.domain,
        signal=signal,
        smoothed_signal=smoothed,
        peak_supports=supports,
    )
