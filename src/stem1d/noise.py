"""Stationary Gaussian noise: generation, spectral moments, estimation.

The noise model is white noise driven through a Gaussian autocorrelation
filter of scale ``nu`` (``nu = 0`` gives independent samples).  Smoothing
such noise with a Gaussian kernel of bandwidth ``gamma`` yields the same
kind of process at the combined scale ``xi = sqrt(gamma^2 + nu^2)``, for
which the variance and the derivative variances have closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSequenceError
from .grid import SQRT_2PI, SampledSequence

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class GaussianAcvfParams:
    """Marginal scale ``sigma`` and autocorrelation scale ``nu`` (>= 0)."""

    sigma: float
    nu: float = 0.0

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ValueError("sigma must be positive")
        if not (self.nu >= 0):
            raise ValueError("nu must be non-negative")


@dataclass(frozen=True)
class NoiseMoments:
    """Variance of a smooth stationary process and of its derivatives.

    ``sigma2`` is the variance of the process, ``lambda2`` the variance
    of its first derivative and ``lambda4`` the variance of its second
    derivative.  Validity requires ``sigma2 * lambda4 - lambda2^2 > 0``.
    """

    sigma2: float
    lambda2: float
    lambda4: float

    def __post_init__(self):
        for name in ("sigma2", "lambda2", "lambda4"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not (self.delta > 0):
            raise ValueError(
                "moments are incompatible: sigma2 * lambda4 must exceed lambda2^2"
            )

    @property
    def delta(self) -> float:
        return self.sigma2 * self.lambda4 - self.lambda2**2

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    def scaled(self, factor: float) -> "NoiseMoments":
        """Moments of the process multiplied pointwise by ``factor``."""
        f2 = factor * factor
        return NoiseMoments(self.sigma2 * f2, self.lambda2 * f2, self.lambda4 * f2)

    def to_json_dict(self) -> dict:
        return {
            "sigma2": self.sigma2,
            "lambda2": self.lambda2,
            "lambda4": self.lambda4,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "NoiseMoments":
        try:
            return cls(
                float(data["sigma2"]), float(data["lambda2"]), float(data["lambda4"])
            )
        except KeyError as exc:
            raise ValueError(f"moments JSON is missing key {exc}") from exc


def closed_form_moments(params: GaussianAcvfParams, gamma: float) -> NoiseMoments:
    """Moments of model noise smoothed by a Gaussian kernel of scale ``gamma``.

    The combined scale is ``xi = sqrt(gamma^2 + nu^2)``; it must be
    positive (unsmoothed white noise has no finite derivative variance).
    """
    if not (gamma >= 0):
        raise ValueError("gamma must be non-negative")
    xi = math.hypot(gamma, params.nu)
    if xi == 0.0:
        raise ValueError("closed-form moments need gamma or nu positive")
    s2 = params.sigma**2
    return NoiseMoments(
        sigma2=s2 / (2.0 * _SQRT_PI * xi),
        lambda2=s2 / (4.0 * _SQRT_PI * xi**3),
        lambda4=3.0 * s2 / (8.0 * _SQRT_PI * xi**5),
    )


def smoothing_taps(xi: float, dt: float) -> np.ndarray:
    """Sampled filter (1/xi) phi(t/xi) truncated at |t| <= 6 xi.

    These taps are *not* renormalized: together with the sqrt(dt) scaling
    of the driving noise they discretize the underlying stochastic
    integral, so the output variance matches the closed form.
    """
    radius = int(math.ceil(6.0 * xi / dt))
    offsets = np.arange(-radius, radius + 1) * dt
    return np.exp(-0.5 * (offsets / xi) ** 2) / (xi * SQRT_2PI)


def generate_noise(
    params: GaussianAcvfParams,
    gamma: float,
    length: int,
    dt: float,
    seed,
) -> SampledSequence:
    """Sample the model noise smoothed at bandwidth ``gamma``.

    With ``gamma = 0`` and ``nu = 0`` the output is independent
    N(0, sigma^2) samples.  Otherwise white Gaussian noise is driven
    through the sampled filter at scale ``xi = sqrt(gamma^2 + nu^2)``;
    the driving noise extends beyond both ends so every output sample is
    stationary.  The same seed always reproduces the same output, and
    ``sigma`` enters as a pure scale factor.
    """
    if not (gamma >= 0):
        raise ValueError("gamma must be non-negative")
    length = int(length)
    if length <= 0:
        raise ValueError("length must be positive")
    if not (dt > 0):
        raise ValueError("dt must be positive")
    rng = np.random.default_rng(seed)
    xi = math.hypot(gamma, params.nu)
    if xi == 0.0:
        values = params.sigma * rng.standard_normal(length)
        return SampledSequence(values, dt)
    taps = smoothing_taps(xi, dt)
    if length < taps.size:
        raise ValueError(
            f"length {length} is shorter than the smoothing filter ({taps.size} taps)"
        )
    driving = rng.standard_normal(length + taps.size - 1)
    values = params.sigma * math.sqrt(dt) * np.convolve(driving, taps, mode="valid")
    return SampledSequence(values, dt)


def model_acvf(params: GaussianAcvfParams, gamma: float, lag) -> np.ndarray:
    """Closed-form autocovariance of the smoothed model noise."""
    xi = math.hypot(gamma, params.nu)
    if xi == 0.0:
        raise ValueError("autocovariance requires gamma or nu positive")
    lag = np.asarray(lag, dtype=np.float64)
    variance = params.sigma**2 / (2.0 * _SQRT_PI * xi)
    return variance * np.exp(-(lag**2) / (4.0 * xi**2))


def estimate_moments(seq: SampledSequence, zero_mean: bool = False) -> NoiseMoments:
    """Empirical moments from a calibration sequence.

    Uses the sample variance of the interior values and of their first
    and second forward differences, scaled by dt^2 and dt^4.  The margins
    are excluded; at least 10 interior samples are required.

    With ``zero_mean=True`` the sample mean is not subtracted.  Centering
    costs about 2*(correlation length)/n in relative bias on strongly
    correlated sequences, so skip it when the mean is known to be zero.
    """
    v = seq.interior
    if v.size < 10:
        raise DegenerateSequenceError(
            f"need at least 10 interior samples, got {v.size}"
        )
    d1 = np.diff(v)
    d2 = np.diff(v, n=2)
    if zero_mean:
        sigma2 = float(np.mean(v * v))
        lambda2 = float(np.mean(d1 * d1)) / seq.dt**2
        lambda4 = float(np.mean(d2 * d2)) / seq.dt**4
    else:
        sigma2 = float(np.var(v, ddof=1))
        lambda2 = float(np.var(d1, ddof=1)) / seq.dt**2
        lambda4 = float(np.var(d2, ddof=1)) / seq.dt**4
    if not (sigma2 > 0 and lambda2 > 0 and lambda4 > 0):
        raise DegenerateSequenceError("sequence carries no usable variation")
    try:
        return NoiseMoments(sigma2, lambda2, lambda4)
    except ValueError as exc:
        raise DegenerateSequenceError(str(exc)) from exc
