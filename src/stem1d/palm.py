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
    """Bisect brackets of a decreasing ``f`` towards ``f(u) = target``.

    ``lo`` and ``hi`` are arrays, each entry a bracket of its own, and
    ``f`` maps an array of midpoints to values, one per entry.  A
    midpoint with ``f > target`` becomes its entry's new ``lo``, any
    other the new ``hi``.  An entry stops when its midpoint equals an
    end and keeps its pair from then on, so each entry ends where it
    would alone.  Returns the final ``(lo, hi)`` once every entry has
    stopped, or after 200 steps.
    """
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


class _Stacked(NamedTuple):
    """Coefficients of the survivor function: floats for one
    :class:`NoiseMoments`, or arrays holding several, one entry each.

    With ``Delta = sigma2 * lambda4 - lambda2^2`` the survivor function is
    ``ndtr(-a1 u) + c1 phi(u / sigma) ndtr(a2 u)``, where

    - ``sigma = sqrt(sigma2)``;
    - ``a1 = sqrt(lambda4 / Delta)``;
    - ``a2 = sqrt(lambda2^2 / (Delta sigma2))``;
    - ``c1 = sqrt(2 pi lambda2^2 / (lambda4 sigma2))``.
    """

    sigma: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    c1: np.ndarray

    @classmethod
    def of(cls, moments: Sequence[NoiseMoments]) -> "_Stacked":
        """One entry per entry of ``moments``, worked out once per object."""
        first: dict[int, int] = {}  # id of each distinct object -> its row
        rows = [first.setdefault(id(m), len(first)) for m in moments]
        table = [_coefficients(m) for m in {id(m): m for m in moments}.values()]
        return cls(*np.reshape(table, (-1, len(cls._fields)))[rows].T.copy())


def _coefficients(m: NoiseMoments) -> _Stacked:
    """The coefficients of ``m`` as Python floats.  The formulas stay
    scalar on purpose: numpy's ``x * x`` and Python's ``x**2`` can differ
    in the last bit, which would move the p-values."""
    delta = m.delta
    return _Stacked(
        m.sigma,
        math.sqrt(m.lambda4 / delta),
        math.sqrt(m.lambda2**2 / (delta * m.sigma2)),
        math.sqrt(2.0 * math.pi * m.lambda2**2 / (m.lambda4 * m.sigma2)),
    )


def _phi(x):
    return np.exp(-0.5 * np.square(x)) / SQRT_2PI


def palm_survival(moments: NoiseMoments, u):
    """P(height of a random local maximum > u); vectorized over ``u``.

    Evaluated in complementary form throughout, so there is no
    cancellation in the upper tail.  A float ``u`` is evaluated as a 0-d
    array and returns a float.

    ``moments`` may also be stacked coefficients, one entry per entry of
    ``u`` (as :func:`palm_quantile` passes for a batch); every entry is
    then evaluated with its own coefficients, by the same ufuncs in the
    same order, so each entry has the bits of a call with its own
    :class:`NoiseMoments`.
    """
    u = np.asarray(u, dtype=np.float64)
    if not np.isfinite(u).all():
        raise ValueError("u must be finite")
    coef = moments if isinstance(moments, _Stacked) else _coefficients(moments)
    with np.errstate(over="ignore"):  # phi of a huge u is exp(-inf), exactly 0
        out = _survival(coef, u)
    if out.ndim == 0:
        return float(out)
    return out


def _survival(coef: _Stacked, u: np.ndarray) -> np.ndarray:
    """:func:`palm_survival` of a finite array ``u``, unchecked."""
    a1, a2, c1, sigma = coef.a1, coef.a2, coef.c1, coef.sigma
    return ndtr(-a1 * u) + c1 * _phi(u / sigma) * ndtr(a2 * u)


def palm_quantile(moments, v):
    """Height u with ``palm_survival(u) = v`` for v in (0, 1].

    ``v = 1`` returns ``-inf`` (every height exceeds the threshold).
    Solved by bisection on an expanding bracket; the survivor function
    is continuous and strictly decreasing, so this is unconditionally
    convergent.

    ``v`` is a float with one :class:`NoiseMoments`, which returns a
    float, or a 1-D array with a sequence of them, one per entry, which
    returns an array.  Either way the entries are solved in step: each
    one expands its bracket from +-10 sigma and bisects it, stopping on
    its own, while every step evaluates the survivor function for all
    entries in one array pass.  Any entry outside (0, 1] raises.
    """
    scalar = not np.ndim(v)
    if scalar:
        moments, v = [moments], [v]
    v = np.asarray(v, dtype=np.float64)
    bad = ~((0.0 < v) & (v <= 1.0))
    if bad.any():
        raise ValueError(f"v must lie in (0, 1], got {float(v[bad][0])!r}")
    if v.ndim != 1 or isinstance(moments, NoiseMoments) or len(moments) != v.size:
        raise ValueError("v must be 1-D, and a batch needs one NoiseMoments per entry")
    out = np.full(v.shape, -np.inf)
    solve = v < 1.0
    coef = _Stacked.of([m for m, s in zip(moments, solve) if s])
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
    if not np.isfinite(lo + hi).all():  # then every midpoint is finite
        raise ValueError("no finite bracket for the quantile")
    lo, hi = bisect_decreasing(lambda u: _survival(coef, u), target, lo, hi)
    out[solve] = 0.5 * (lo + hi)
    return float(out[0]) if scalar else out


def expected_maxima_density(moments: NoiseMoments) -> float:
    """Expected number of local maxima per unit length."""
    return math.sqrt(moments.lambda4 / moments.lambda2) / (2.0 * math.pi)


def candidate_pvalues(
    candidates: CandidateSet, moments: NoiseMoments | Sequence[NoiseMoments]
) -> CandidateSet:
    """Attach peak-height p-values to a candidate set.  One
    :class:`NoiseMoments` serves every entry; with a sequence, one per row,
    each entry gets its row's, and a row past the sequence's end raises."""
    if isinstance(moments, NoiseMoments):
        moments = [moments]
    else:
        candidates.row_counts(len(moments))
    coef = _Stacked.of(moments)
    if len(moments) > 1:  # else the one row's coefficients broadcast
        coef = _Stacked(*(c[candidates.rows] for c in coef))
    return candidates.with_pvalues(clip_pvalues(palm_survival(coef, candidates.heights)))
