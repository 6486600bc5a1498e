"""Smoothing kernels, discrete convolution and template estimation.

Kernels are stored as sampled weight arrays with unit discrete action
(sum of weights times dt equals 1) so that convolution approximates the
continuous integral ``(w * y)(t)``.  Template kernels estimated from
training data are instead normalized to a maximum weight of 1 and may
contain negative lobes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BandwidthTooSmallError,
    DegenerateSequenceError,
    GridMismatchError,
    InputFileError,
    NoQualifyingPeaksError,
    finite_number,
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
        if not (float(self.dt) > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not 0 <= int(self.center_index) < weights.size:
            raise ValueError("center_index out of range")
        if self.family in (KernelFamily.GAUSSIAN, KernelFamily.QUARTIC):
            if np.any(weights < 0):
                raise ValueError("analytic kernel weights must be non-negative")
            action = weights.sum() * float(self.dt)
            if abs(action - 1.0) > 1e-6:
                raise ValueError(f"kernel action {action} deviates from 1")
            if not _unimodal(weights):
                raise ValueError("analytic kernel weights must be unimodal")
        weights = weights.copy()
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "dt", float(self.dt))
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

    @property
    def offsets(self) -> np.ndarray:
        """Time offset of each weight relative to the center."""
        return (np.arange(self.weights.size) - self.center_index) * self.dt


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


def gaussian_kernel(gamma: float, dt: float, trunc: float = 3.0) -> Kernel:
    """Sampled Gaussian density of scale ``gamma`` truncated at ``trunc * gamma``.

    The weights are renormalized after truncation so the discrete action
    is exactly 1.
    """
    if not (gamma > 0) or not (dt > 0):
        raise ValueError("gamma and dt must be positive")
    if gamma < dt:
        raise BandwidthTooSmallError(
            f"bandwidth {gamma} is below the grid spacing {dt}"
        )
    if not (trunc > 0):
        raise ValueError("trunc must be positive")
    m = int(math.floor(gamma * trunc / dt + 1e-9))
    offsets = np.arange(-m, m + 1) * dt
    weights = np.exp(-0.5 * (offsets / gamma) ** 2) / (gamma * SQRT_2PI)
    weights /= weights.sum() * dt
    return Kernel(weights, dt, m, gamma, KernelFamily.GAUSSIAN)


def quartic_kernel(gamma: float, dt: float) -> Kernel:
    """Biweight kernel 15/(16 gamma) (1 - (t/gamma)^2)^2 on [-gamma, gamma]."""
    if not (gamma > 0) or not (dt > 0):
        raise ValueError("gamma and dt must be positive")
    if gamma < dt:
        raise BandwidthTooSmallError(
            f"bandwidth {gamma} is below the grid spacing {dt}"
        )
    m = int(math.floor(gamma / dt + 1e-9))
    u = np.arange(-m, m + 1) * dt / gamma
    weights = 15.0 / (16.0 * gamma) * (1.0 - u**2) ** 2
    weights /= weights.sum() * dt
    return Kernel(weights, dt, m, gamma, KernelFamily.QUARTIC)


def convolve(seq: SampledSequence, kernel: Kernel) -> SampledSequence:
    """Discrete approximation of ``(w * y)(t)`` on the sequence's grid.

    The input is implicitly zero padded, so a margin of half the kernel
    support is added to the output's validity margin.
    """
    if not math.isclose(seq.dt, kernel.dt, rel_tol=1e-12, abs_tol=0.0):
        raise GridMismatchError(
            f"sequence dt {seq.dt} does not match kernel dt {kernel.dt}"
        )
    full = np.convolve(seq.values, kernel.weights)
    c = kernel.center_index
    out = full[c:c + seq.values.size] * seq.dt
    return seq.with_values(out, margin=seq.margin + kernel.half_support_samples)


def estimate_template(
    training: SampledSequence,
    height_threshold: float,
    window: int,
) -> Kernel:
    """Average spike shape from a training sequence.

    Local maxima of the raw training data exceeding ``height_threshold``
    are aligned on their peak sample, windows of ``window`` samples are
    averaged, and the result is normalized to a maximum of 1.  Maxima too
    close to the ends to yield a full window are skipped.
    """
    window = int(window)
    if window < 3:
        raise ValueError("window must be at least 3 samples")
    v = training.values
    n = v.size
    idx = strict_local_maxima(v)
    idx = idx[v[idx] > height_threshold]
    half = window // 2
    usable = idx[(idx - half >= 0) & (idx - half + window <= n)]
    if usable.size == 0:
        raise NoQualifyingPeaksError(count=0)
    snippets = np.stack([v[i - half:i - half + window] for i in usable])
    template = snippets.mean(axis=0)
    top = template.max()
    if not (top > 0):
        raise DegenerateSequenceError("averaged template has no positive peak")
    template = template / top
    center = int(np.argmax(template))
    return Kernel(template, training.dt, center, 0.0, KernelFamily.TEMPLATE)


def save_kernel_csv(kernel: Kernel, path, extra_header: tuple[str, ...] = ()) -> None:
    """One weight per line, with a ``# dt=<value> center=<index>`` header."""
    lines = list(extra_header)
    lines.append(f"# dt={kernel.dt!r} center={kernel.center_index}")
    lines.extend(repr(float(w)) for w in kernel.weights)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_kernel_csv(path) -> Kernel:
    """Read a template kernel written by :func:`save_kernel_csv`.

    A weight or header value that does not parse, a missing header or no
    weights, and weights that do not form a valid kernel all raise
    :class:`InputFileError` naming the file (and the line, where one is
    at fault).
    """
    dt = None
    center = None
    weights: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if token.startswith("dt="):
                        dt = finite_number(token[3:], path, lineno, "dt")
                    elif token.startswith("center="):
                        try:
                            center = int(token[7:])
                        except ValueError:
                            raise InputFileError(
                                f"{path}, line {lineno}: center={token[7:]!r} "
                                "is not an integer"
                            ) from None
                continue
            weights.append(finite_number(line, path, lineno))
    if dt is None or center is None or not weights:
        raise InputFileError(
            f"{path}: not a valid template file (needs a '# dt=... center=...' "
            "header and at least one weight)"
        )
    try:
        return Kernel(np.asarray(weights), dt, center, 0.0, KernelFamily.TEMPLATE)
    except ValueError as exc:
        raise InputFileError(f"{path}: {exc}") from exc
