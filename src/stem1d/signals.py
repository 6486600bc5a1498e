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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import positive_finite
from .grid import SQRT_2PI, SampledSequence
from .kernels import Kernel


# ---------------------------------------------------------------------------
# peak shapes


class _CompactShape:
    """A density that is zero outside ``|t| <= half_support``; a subclass
    gives ``half_support`` and ``_inside``, the density within it.

    The public shapes subclass one of the two families below and add no
    field, so they keep the family's dataclass ``__init__``, ``repr``
    and ``==`` (which also compares the class).
    """

    def density(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        inside = np.abs(t) <= self.half_support
        out = np.zeros_like(t)
        out[inside] = self._inside(t[inside])
        return out


@dataclass(frozen=True)
class _CutoffShape(_CompactShape):
    """A density of scale ``b`` cut off at ``|t| <= c*b``."""

    b: float
    c: float = 3.0

    def __post_init__(self):
        positive_finite("b", self.b)
        positive_finite("c", self.c)

    @property
    def half_support(self) -> float:
        return self.b * self.c


@dataclass(frozen=True)
class _HalfwidthShape(_CompactShape):
    """A density supported on ``[-halfwidth, halfwidth]``."""

    halfwidth: float

    def __post_init__(self):
        positive_finite("halfwidth", self.halfwidth)

    @property
    def half_support(self) -> float:
        return self.halfwidth


class TruncatedGaussianShape(_CutoffShape):
    """(1/b) phi(t/b) cut off at |t| <= c*b, without renormalization."""

    def _inside(self, t: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * (t / self.b) ** 2) / (self.b * SQRT_2PI)


class EpanechnikovShape(_HalfwidthShape):
    """(3/4)(1 - (t/h)^2)/h on [-h, h]; integrates to 1 exactly."""

    def _inside(self, t: np.ndarray) -> np.ndarray:
        return 0.75 * (1.0 - (t / self.halfwidth) ** 2) / self.halfwidth


class TriangularShape(_HalfwidthShape):
    """(1 - |t|/h)/h on [-h, h]; integrates to 1 exactly."""

    def _inside(self, t: np.ndarray) -> np.ndarray:
        return (1.0 - np.abs(t) / self.halfwidth) / self.halfwidth


class LaplaceShape(_CutoffShape):
    """(1/2b) exp(-|t|/b) cut off at |t| <= c*b, without renormalization."""

    def _inside(self, t: np.ndarray) -> np.ndarray:
        return np.exp(-np.abs(t) / self.b) / (2.0 * self.b)


class CauchyShape(_CutoffShape):
    """Cauchy density of scale b cut off at |t| <= c*b, without renormalization."""

    def _inside(self, t: np.ndarray) -> np.ndarray:
        return 1.0 / (math.pi * self.b * (1.0 + (t / self.b) ** 2))


PeakShape = (
    TruncatedGaussianShape
    | EpanechnikovShape
    | TriangularShape
    | LaplaceShape
    | CauchyShape
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
        positive_finite("amplitude", self.amplitude)
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
        positive_finite("domain_length", self.domain_length)
        half = self.domain_length / 2.0
        for peak in self.peaks:
            lo, hi = peak.support
            if lo < -half or hi > half:
                raise ValueError(
                    f"peak at {peak.center} has support [{lo}, {hi}] "
                    f"outside the domain [{-half}, {half}]"
                )


def synthesize_signal(spec: SignalSpec, dt: float) -> SampledSequence:
    """Evaluate the sum of peaks on the grid covering the domain.

    The grid runs from -L/2 to L/2 inclusive with spacing ``dt``; ``dt``
    must be positive and smaller than every peak's support width.
    """
    positive_finite("dt", dt)
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
    return SampledSequence._adopt(mu, dt, t0=-half)


# ---------------------------------------------------------------------------
# regions


def _merged(intervals) -> tuple[tuple[float, float], ...]:
    """The closed intervals ``(lo, hi)``, sorted and with overlaps merged."""
    merged: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


@dataclass(frozen=True, eq=False)
class RegionSet:
    """Partition of the domain induced by a signal and a smoothing kernel.

    ``signal`` is the union of peak supports; ``smoothed_signal`` is the
    union of supports of the smoothed peaks (each support dilated by the
    kernel's reach on either side), each as sorted, merged ``(lo, hi)``
    pairs.  The transition region is their set difference, and the null
    core is everything else; the full null region (transition plus null
    core) is the complement of ``signal``.
    """

    signal: tuple[tuple[float, float], ...]
    smoothed_signal: tuple[tuple[float, float], ...]
    peak_supports: tuple[tuple[float, float], ...]

    @cached_property
    def scored_intervals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lo, hi, column) of the closed intervals a trial's score counts
        in: the merged signal's (column 0), the merged smoothed signal's
        (column 1), and each peak support in peak order (column 2 + peak)."""
        parts = self.signal, self.smoothed_signal, self.peak_supports
        columns = np.repeat([0, 1], [len(parts[0]), len(parts[1])])
        peaks = 2 + np.arange(len(parts[2]))
        edges = np.array([iv for part in parts for iv in part], dtype=np.float64)
        edges = edges.reshape(-1, 2).T.copy()
        edges.setflags(write=False)
        return edges[0], edges[1], np.concatenate([columns, peaks])


def compute_regions(spec: SignalSpec, kernel: Kernel) -> RegionSet:
    """Region partition for a signal smoothed by ``kernel``.

    Each peak support is dilated by the kernel support on the matching
    side (Minkowski sum), then overlapping pieces are merged.
    """
    supports = tuple(peak.support for peak in spec.peaks)
    signal = _merged(supports)
    k_left, k_right = kernel.support
    smoothed = _merged((lo + k_left, hi + k_right) for lo, hi in signal)
    return RegionSet(
        signal=signal,
        smoothed_signal=smoothed,
        peak_supports=supports,
    )
