"""Height distribution of local maxima of smooth stationary Gaussian noise.

For a zero-mean stationary Gaussian process with variance ``sigma2``,
derivative variance ``lambda2`` and second-derivative variance
``lambda4``, the height u of a local maximum picked at random has
survivor function

    F(u) = Phi(-u sqrt(lambda4 / Delta))
           + sqrt(2 pi lambda2^2 / (lambda4 sigma2))
             * phi(u / sigma) * Phi(u sqrt(lambda2^2 / (Delta sigma2))),

with ``Delta = sigma2 * lambda4 - lambda2^2``.  Heights of observed
maxima are converted to p-values by evaluating F, which is exact under
the global null and conservative where signal is present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .candidates import CandidateSet
from .grid import SQRT_2PI
from .noise import NoiseMoments

# Smallest/largest doubles strictly inside (0, 1); p-values are clamped
# here so extreme heights cannot round to an exact 0 or 1.
_P_FLOOR = np.nextafter(0.0, 1.0)
_P_CEIL = np.nextafter(1.0, 0.0)


def clip_pvalues(p) -> np.ndarray:
    """``p`` clamped into [_P_FLOOR, _P_CEIL], strictly inside (0, 1)."""
    return np.clip(p, _P_FLOOR, _P_CEIL)


def bisect_decreasing(f, target: float, lo: float, hi: float) -> tuple[float, float]:
    """Bisect a bracket of a decreasing ``f`` towards ``f(u) = target``.

    A midpoint with ``f > target`` becomes the new ``lo``, any other the
    new ``hi``.  Stops when the midpoint equals an end, or after 200
    steps, and returns the final ``(lo, hi)``.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > target:
            lo = mid
        else:
            hi = mid
    return lo, hi


@dataclass(frozen=True)
class PalmParams:
    """Precomputed coefficients of the peak-height survivor function."""

    moments: NoiseMoments

    @property
    def delta(self) -> float:
        return self.moments.delta

    @property
    def sigma(self) -> float:
        return self.moments.sigma


def _phi(x):
    return np.exp(-0.5 * np.square(x)) / SQRT_2PI


def palm_survival(params: PalmParams, u):
    """P(height of a random local maximum > u); vectorized over ``u``.

    Evaluated in complementary form throughout, so there is no
    cancellation in the upper tail.
    """
    u = np.asarray(u, dtype=np.float64)
    if not np.all(np.isfinite(u)):
        raise ValueError("u must be finite")
    m = params.moments
    delta = m.delta
    sigma = m.sigma
    a1 = math.sqrt(m.lambda4 / delta)
    a2 = math.sqrt(m.lambda2**2 / (delta * m.sigma2))
    c1 = math.sqrt(2.0 * math.pi * m.lambda2**2 / (m.lambda4 * m.sigma2))
    out = ndtr(-a1 * u) + c1 * _phi(u / sigma) * ndtr(a2 * u)
    if out.ndim == 0:
        return float(out)
    return out


def palm_quantile(params: PalmParams, v: float) -> float:
    """Height u with ``palm_survival(u) = v`` for v in (0, 1].

    ``v = 1`` returns ``-inf`` (every height exceeds the threshold).
    Solved by bisection on an expanding bracket; the survivor function
    is continuous and strictly decreasing, so this is unconditionally
    convergent.
    """
    if not (0.0 < v <= 1.0):
        raise ValueError(f"v must lie in (0, 1], got {v!r}")
    if v == 1.0:
        return float("-inf")
    sigma = params.sigma
    hi = 10.0 * sigma
    for _ in range(200):
        if palm_survival(params, hi) < v:
            break
        hi *= 2.0
    lo = -10.0 * sigma
    for _ in range(200):
        if palm_survival(params, lo) > v:
            break
        lo *= 2.0
    lo, hi = bisect_decreasing(lambda u: palm_survival(params, u), v, lo, hi)
    return 0.5 * (lo + hi)


def expected_maxima_density(moments: NoiseMoments) -> float:
    """Expected number of local maxima per unit length."""
    return math.sqrt(moments.lambda4 / moments.lambda2) / (2.0 * math.pi)


def candidate_pvalues(candidates: CandidateSet, params: PalmParams) -> CandidateSet:
    """Attach peak-height p-values to a candidate set."""
    if len(candidates) == 0:
        return candidates.with_pvalues(np.zeros(0))
    p = np.asarray(palm_survival(params, candidates.heights), dtype=np.float64)
    return candidates.with_pvalues(clip_pvalues(p))
