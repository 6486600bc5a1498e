"""Smoothing kernels, discrete convolution and template estimation.

Kernels are stored as sampled weight arrays with unit discrete action
(sum of weights times dt equals 1) so that convolution approximates the
continuous integral ``(w * y)(t)``.  Template kernels estimated from
training data are instead normalized to a maximum weight of 1 and may
contain negative lobes.  This module holds the maths only: template
files are read and written by :mod:`stem1d.seriesio`.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    BandwidthTooSmallError,
    ConfigurationError,
    DegenerateSequenceError,
    GridMismatchError,
    NoQualifyingPeaksError,
    NumericFailureError,
    positive_finite,
)
from .grid import SQRT_2PI, SampledSequence, strict_local_maxima


class KernelFamily(enum.Enum):
    GAUSSIAN = "gaussian"
    QUARTIC = "quartic"
    TEMPLATE = "template"


@dataclass(frozen=True, eq=False)
class Kernel:
    """A sampled smoothing kernel.

    ``weights[center_index]`` is the weight at lag zero; weight ``k``
    applies at time offset ``(k - center_index) * dt``.  ``bandwidth`` is
    the smoothing scale for the analytic families and 0 for templates.
    """

    weights: np.ndarray
    dt: float
    center_index: int
    bandwidth: float
    family: KernelFamily

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        dt = positive_finite("dt", self.dt)
        if not 0 <= int(self.center_index) < weights.size:
            raise ValueError("center_index out of range")
        if self.family in (KernelFamily.GAUSSIAN, KernelFamily.QUARTIC):
            if np.any(weights < 0):
                raise ValueError("analytic kernel weights must be non-negative")
            action = weights.sum() * dt
            if abs(action - 1.0) > 1e-6:
                raise ValueError(f"kernel action {action} deviates from 1")
            if not _unimodal(weights):
                raise ValueError("analytic kernel weights must be unimodal")
        weights = weights.copy()
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "center_index", int(self.center_index))
        object.__setattr__(self, "bandwidth", float(self.bandwidth))

    def __len__(self) -> int:
        return self.weights.size

    @property
    def half_support_samples(self) -> int:
        """Largest one-sided reach of the kernel, in samples."""
        return max(self.center_index, self.weights.size - 1 - self.center_index)

    @property
    def support(self) -> tuple[float, float]:
        """Time offsets covered by the weights, relative to the center."""
        left = -self.center_index * self.dt
        right = (self.weights.size - 1 - self.center_index) * self.dt
        return (left, right)


def _unimodal(w: np.ndarray) -> bool:
    d = np.diff(w)
    rising = True
    for step in d:
        if rising:
            if step < 0:
                rising = False
        elif step > 0:
            return False
    return True


def _check_bandwidth(gamma: float, dt: float) -> None:
    positive_finite("gamma", gamma)
    positive_finite("dt", dt)
    if gamma < dt:
        raise BandwidthTooSmallError(
            f"bandwidth {gamma} is below the grid spacing {dt}"
        )
    if dt < sys.float_info.min:  # weights of order 1 / dt would overflow
        raise ConfigurationError(f"grid spacing {dt} is subnormal")


def kernel_reach(family: KernelFamily, gamma: float, dt: float, trunc=3.0) -> int:
    """``half_support_samples`` of the Gaussian (cut at ``trunc * gamma``)
    or quartic kernel, known before any weight is built."""
    _check_bandwidth(gamma, dt)
    if family is KernelFamily.GAUSSIAN:
        gamma = gamma * positive_finite("trunc", trunc)
    # capped, as a product that overflows to inf converts to no int
    return int(math.floor(min(gamma / dt + 1e-9, 2.0**62)))


def gaussian_kernel(gamma: float, dt: float, trunc: float = 3.0) -> Kernel:
    """Sampled Gaussian density of scale ``gamma`` truncated at ``trunc * gamma``.

    The weights are renormalized after truncation so the discrete action
    is exactly 1.
    """
    m = kernel_reach(KernelFamily.GAUSSIAN, gamma, dt, trunc)
    offsets = np.arange(-m, m + 1) * dt
    weights = np.exp(-0.5 * (offsets / gamma) ** 2) / (gamma * SQRT_2PI)
    weights /= weights.sum() * dt
    return Kernel(weights, dt, m, gamma, KernelFamily.GAUSSIAN)


def quartic_kernel(gamma: float, dt: float) -> Kernel:
    """Biweight kernel 15/(16 gamma) (1 - (t/gamma)^2)^2 on [-gamma, gamma]."""
    m = kernel_reach(KernelFamily.QUARTIC, gamma, dt)
    u = np.arange(-m, m + 1) * dt / gamma
    weights = 15.0 / (16.0 * gamma) * (1.0 - u**2) ** 2
    weights /= weights.sum() * dt
    return Kernel(weights, dt, m, gamma, KernelFamily.QUARTIC)


def same_grid(dt: float, other_dt: float) -> bool:
    """Whether a kernel sampled at ``dt`` applies on a grid of ``other_dt``."""
    return math.isclose(dt, other_dt, rel_tol=1e-12, abs_tol=0.0)


def convolve(seq: SampledSequence, kernel: Kernel) -> SampledSequence:
    """Discrete approximation of ``(w * y)(t)`` on the sequence's grid.

    The input is implicitly zero padded, so a margin of half the kernel
    support is added to the output's validity margin.  Values whose
    weighted sums overflow raise :class:`NumericFailureError`.
    """
    if not same_grid(seq.dt, kernel.dt):
        raise GridMismatchError(
            f"sequence dt {seq.dt} does not match kernel dt {kernel.dt}"
        )
    # np.convolve copies a read-only input in full, so hand it the
    # sequence's own writeable samples; the result is a fresh array
    out = convolve_rows(seq._data, kernel, seq.dt)
    margin = seq.margin + kernel.half_support_samples
    try:
        return SampledSequence._adopt(out, seq.dt, seq.t0, margin)
    except ValueError:  # on the grid of a valid sequence, only the values fail
        raise NumericFailureError("smoothed values overflow: they are not finite") from None


def convolve_rows(values: np.ndarray, kernel: Kernel, dt: float) -> np.ndarray:
    """The values of :func:`convolve` for each row of ``values`` (a 1-D
    array is one row), every row sampled at ``dt``."""
    if values.ndim == 1:
        full = np.convolve(values, kernel.weights)
    else:
        full = np.stack([np.convolve(row, kernel.weights) for row in values])
    c = kernel.center_index
    out = full[..., c:c + values.shape[-1]]
    with np.errstate(over="ignore"):  # an overflow is refused where the values are checked
        out *= dt
    return out


def estimate_template(
    training: SampledSequence,
    height_threshold: float,
    window: int,
) -> Kernel:
    """Average spike shape from a training sequence.

    Local maxima of the raw training data exceeding ``height_threshold``
    are aligned on their peak sample, windows of ``window`` samples are
    averaged, and the result is normalized to a maximum of 1.  Maxima too
    close to the ends to yield a full window are skipped.  A threshold of
    ``-inf`` takes every maximum and ``inf`` none; NaN raises.
    """
    window = int(window)
    if window < 3:
        raise ValueError("window must be at least 3 samples")
    if math.isnan(height_threshold):
        raise ValueError("threshold must not be NaN")
    v = training.values
    n = v.size
    idx = np.flatnonzero(strict_local_maxima(v) & (v > height_threshold))
    half = window // 2
    usable = idx[(idx - half >= 0) & (idx - half + window <= n)]
    if usable.size == 0:
        raise NoQualifyingPeaksError("no usable spikes found (count=0)")
    snippets = np.stack([v[i - half:i - half + window] for i in usable])
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        template = snippets.mean(axis=0)
    if not np.isfinite(template).all():
        raise DegenerateSequenceError("averaged template is not finite")
    top = template.max()
    if not (top > 0):
        raise DegenerateSequenceError("averaged template has no positive peak")
    template = template / top
    center = int(np.argmax(template))
    return Kernel(template, training.dt, center, 0.0, KernelFamily.TEMPLATE)
