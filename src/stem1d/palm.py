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
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

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


def bisect_decreasing(f, target, lo, hi):
    """Bisect a bracket of a decreasing ``f`` towards ``f(u) = target``.

    A midpoint with ``f > target`` becomes the new ``lo``, any other the
    new ``hi``.  Stops when the midpoint equals an end, or after 200
    steps, and returns the final ``(lo, hi)``.

    Given arrays (as :func:`palm_quantile` passes), each entry is a
    bracket of its own under the same rule: ``f`` maps an array of
    midpoints to values, one per entry, and an entry whose midpoint
    equals an end keeps its pair from then on, so it ends where a float
    call on it would.  Given floats (as ``supremum_threshold`` passes),
    the bracket is bisected with Python floats.
    """
    # The float branch serves supremum_threshold alone.  With it, one
    # supremum_threshold takes about 265 us, against about 1245 us through
    # one-entry arrays (timeit, one pinned core of a 2-CPU Xeon VM).  A
    # one-replication sim34 sweep, about 35 ms, solves 8 of them.
    if not isinstance(lo, np.ndarray):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if f(mid) > target:
                lo = mid
            else:
                hi = mid
        return lo, hi
    lo, hi = lo.copy(), hi.copy()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        run = (mid != lo) & (mid != hi)
        if not np.count_nonzero(run):
            break
        up = run & (f(mid) > target)
        np.copyto(lo, mid, where=up)
        np.copyto(hi, mid, where=run ^ up)
    return lo, hi


@dataclass(frozen=True)
class PalmParams:
    """Coefficients of the peak-height survivor function, computed once.

    With ``Delta = sigma2 * lambda4 - lambda2^2`` the survivor function is
    ``ndtr(-a1 u) + c1 phi(u / sigma) ndtr(a2 u)``, where

    - ``sigma = sqrt(sigma2)`` and ``delta = Delta``;
    - ``a1 = sqrt(lambda4 / Delta)``;
    - ``a2 = sqrt(lambda2^2 / (Delta sigma2))``;
    - ``c1 = sqrt(2 pi lambda2^2 / (lambda4 sigma2))``.
    """

    moments: NoiseMoments
    sigma: float = field(init=False, repr=False, compare=False)
    delta: float = field(init=False, repr=False, compare=False)
    a1: float = field(init=False, repr=False, compare=False)
    a2: float = field(init=False, repr=False, compare=False)
    c1: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.moments
        delta = m.delta
        c1 = math.sqrt(2.0 * math.pi * m.lambda2**2 / (m.lambda4 * m.sigma2))
        object.__setattr__(self, "sigma", m.sigma)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "a1", math.sqrt(m.lambda4 / delta))
        object.__setattr__(self, "a2", math.sqrt(m.lambda2**2 / (delta * m.sigma2)))
        object.__setattr__(self, "c1", c1)


class _Stacked(NamedTuple):
    """The coefficients of several :class:`PalmParams`, one array entry each."""

    sigma: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    c1: np.ndarray

    @classmethod
    def of(cls, params: Sequence[PalmParams]) -> "_Stacked":
        return cls(*(np.array([getattr(p, f) for p in params]) for f in cls._fields))


def _phi(x):
    return np.exp(-0.5 * np.square(x)) / SQRT_2PI


def palm_survival(params: PalmParams, u):
    """P(height of a random local maximum > u); vectorized over ``u``.

    Evaluated in complementary form throughout, so there is no
    cancellation in the upper tail.  A float ``u`` is evaluated as a 0-d
    array and returns a float.

    ``params`` may also hold arrays of coefficients, one entry per entry
    of ``u`` (as :func:`palm_quantile` passes for a batch); every entry
    is then evaluated with its own coefficients, by the same ufuncs in
    the same order, so each entry has the bits of a call with its own
    :class:`PalmParams`.
    """
    a1, a2, c1, sigma = params.a1, params.a2, params.c1, params.sigma
    u = np.asarray(u, dtype=np.float64)
    if not np.isfinite(u).all():
        raise ValueError("u must be finite")
    out = ndtr(-a1 * u) + c1 * _phi(u / sigma) * ndtr(a2 * u)
    if out.ndim == 0:
        return float(out)
    return out


def palm_quantile(params, v):
    """Height u with ``palm_survival(u) = v`` for v in (0, 1].

    ``v = 1`` returns ``-inf`` (every height exceeds the threshold).
    Solved by bisection on an expanding bracket; the survivor function
    is continuous and strictly decreasing, so this is unconditionally
    convergent.

    ``v`` is a float with one :class:`PalmParams`, which returns a
    float, or a 1-D array with a sequence of them, one per entry, which
    returns an array.  Either way the entries are solved in step: each
    one expands its bracket from +-10 sigma and bisects it, stopping on
    its own, while every step evaluates the survivor function for all
    entries in one array pass.  Any entry outside (0, 1] raises.
    """
    scalar = not np.ndim(v)
    if scalar:
        params, v = [params], [v]
    v = np.asarray(v, dtype=np.float64)
    bad = ~((0.0 < v) & (v <= 1.0))
    if bad.any():
        raise ValueError(f"v must lie in (0, 1], got {float(v[bad][0])!r}")
    if v.ndim != 1 or len(params) != v.size:
        raise ValueError("v must be 1-D, with one PalmParams per entry")
    out = np.full(v.shape, -np.inf)
    solve = v < 1.0
    coef = _Stacked.of([p for p, s in zip(params, solve) if s])
    target = v[solve]
    hi = 10.0 * coef.sigma
    for _ in range(200):
        done = palm_survival(coef, hi) < target
        if done.all():
            break
        hi = np.where(done, hi, hi * 2.0)
    lo = -10.0 * coef.sigma
    for _ in range(200):
        done = palm_survival(coef, lo) > target
        if done.all():
            break
        lo = np.where(done, lo, lo * 2.0)
    lo, hi = bisect_decreasing(lambda u: palm_survival(coef, u), target, lo, hi)
    out[solve] = 0.5 * (lo + hi)
    return float(out[0]) if scalar else out


def expected_maxima_density(moments: NoiseMoments) -> float:
    """Expected number of local maxima per unit length."""
    return math.sqrt(moments.lambda4 / moments.lambda2) / (2.0 * math.pi)


def candidate_pvalues(candidates: CandidateSet, params: PalmParams) -> CandidateSet:
    """Attach peak-height p-values to a candidate set."""
    p = palm_survival(params, candidates.heights)
    return candidates.with_pvalues(clip_pvalues(p))
