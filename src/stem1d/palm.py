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
from typing import Sequence

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

    ``lo`` and ``hi`` are arrays, each entry a bracket of its own with
    ``f(lo) > target >= f(hi)``, and ``f`` maps an array of midpoints to
    values, one per entry.  A midpoint with ``f > target`` becomes its
    entry's new ``lo``, any other the new ``hi``.  An entry stops when its
    midpoint equals an end: by the bracket condition, each later step
    writes that end back unchanged, so each entry ends where it would
    alone.  Returns the final ``(lo, hi)`` once every entry has stopped
    (checked every few steps), or after 200 steps.
    """
    lo, hi = lo.copy(), hi.copy()
    for step in range(200):
        mid = 0.5 * (lo + hi)
        if not step % 4 and not np.count_nonzero((mid != lo) & (mid != hi)):
            break
        up = f(mid) > target
        np.putmask(lo, up, mid)
        np.putmask(hi, ~up, mid)
    return lo, hi


def _coefficients(moments: Sequence[NoiseMoments], law) -> np.ndarray:
    """The survivor function's coefficients ``(sigma, -a1, a2, c1)`` of each
    entry of ``law``, an index into ``moments``, as four contiguous rows of
    one array.

    With ``Delta = sigma2 * lambda4 - lambda2^2`` the survivor function is
    ``ndtr(-a1 u) + c1 phi(u / sigma) ndtr(a2 u)``, where
    ``a1 = sqrt(lambda4 / Delta)``, ``a2 = sqrt(lambda2^2 / (Delta sigma2))``
    and ``c1 = sqrt(2 pi lambda2^2 / (lambda4 sigma2))``.  Each law's are
    worked out once from :meth:`NoiseMoments.survival_terms`, with Python
    floats on purpose: numpy's ``x * x`` and Python's ``x**2`` can differ
    in the last bit, which would move the p-values.  A lone
    :class:`NoiseMoments`, or an index that is not an integer in
    ``[0, len(moments))``, raises.
    """
    if isinstance(moments, NoiseMoments):
        raise ValueError("moments must be a sequence of NoiseMoments, indexed by law")
    law = np.asarray(law)
    if law.size and not (
        law.dtype.kind in "iu" and 0 <= law.min() and law.max() < len(moments)
    ):
        raise ValueError(f"law indices must be integers in [0, {len(moments)})")
    terms = [m.survival_terms() for m in moments]
    table = np.array(
        [
            [m.sigma for m in moments],
            [-math.sqrt(a1) for a1, _, _ in terms],  # negated once
            [math.sqrt(a2) for _, a2, _ in terms],
            [math.sqrt(c1) for _, _, c1 in terms],
        ]
    )
    # take, not table[:, law], whose rows would be strided; an empty law may be float
    return np.take(table, law.astype(np.intp, copy=False), axis=1)


def _phi(x):
    return np.exp(-0.5 * np.square(x)) / SQRT_2PI


def palm_survival(moments: Sequence[NoiseMoments], law, u):
    """P(height of a random local maximum > u), under the law
    ``moments[law]``; ``law`` broadcasts against ``u``, so each entry of
    ``u`` may have a law of its own.

    Evaluated in complementary form throughout, so there is no
    cancellation in the upper tail.  Every entry is evaluated by the same
    ufuncs in the same order, so it has the bits of a call on it alone.
    A 0-d ``u`` and ``law`` return a float.
    """
    u = np.asarray(u, dtype=np.float64)
    if not np.isfinite(u).all():
        raise ValueError("u must be finite")
    with np.errstate(over="ignore"):  # phi of a huge u is exp(-inf), exactly 0
        out = _survival(_coefficients(moments, law), u)
    if out.ndim == 0:
        return float(out)
    return out


def _survival(coef: np.ndarray, u: np.ndarray) -> np.ndarray:
    """:func:`palm_survival` of a finite array ``u``, unchecked."""
    sigma, neg_a1, a2, c1 = coef
    return ndtr(neg_a1 * u) + c1 * _phi(u / sigma) * ndtr(a2 * u)


def palm_quantile(moments: Sequence[NoiseMoments], law, v) -> np.ndarray:
    """Heights u with ``palm_survival(moments, law, u) = v``, one per entry
    of the 1-D array ``v``, each in (0, 1]; ``law`` broadcasts against it.

    ``v = 1`` gives ``-inf`` (every height exceeds the threshold).  The
    other entries are solved in step: each one brackets its root by
    [-10 sigma, 10 sigma], expanding the upper end by doubling, and bisects
    it, stopping on its own, while every step evaluates the survivor
    function for all entries in one array pass.  The survivor function is
    continuous and strictly decreasing, so this always converges.  Any
    entry outside (0, 1] raises.
    """
    v = np.asarray(v, dtype=np.float64)
    bad = ~((0.0 < v) & (v <= 1.0))
    if bad.any():
        raise ValueError(f"v must lie in (0, 1], got {float(v[bad][0])!r}")
    if v.ndim != 1:
        raise ValueError("v must be 1-D")
    solve = v < 1.0
    law = np.broadcast_to(law, v.shape)
    coef = _coefficients(moments, law).compress(solve, axis=1)
    law, target = law[solve], v[solve]
    hi = 10.0 * coef[0]
    for _ in range(200):
        done = palm_survival(moments, law, hi) < target
        if done.all():
            break
        hi = np.where(done, hi, hi * 2.0)
    lo = -10.0 * coef[0]  # F(lo) = ndtr(10 a1 sigma > 10) + O(e^-50) rounds to 1
    if not np.isfinite(lo + hi).all():  # then every midpoint is finite
        raise ValueError("no finite bracket for the quantile")
    lo, hi = bisect_decreasing(lambda u: _survival(coef, u), target, lo, hi)
    out = np.full(v.shape, -np.inf)
    out[solve] = 0.5 * (lo + hi)
    return out


def expected_maxima_density(moments: NoiseMoments) -> float:
    """Expected number of local maxima per unit length."""
    return math.sqrt(moments.lambda4 / moments.lambda2) / (2.0 * math.pi)


def candidate_pvalues(
    candidates: CandidateSet, moments: Sequence[NoiseMoments], law
) -> CandidateSet:
    """Attach peak-height p-values to a candidate set.  ``law`` holds one
    index into ``moments`` per row; a row past its end raises."""
    law = np.asarray(law)
    if law.ndim != 1:
        raise ValueError("law must hold one index per row")
    candidates.row_counts(law.size)
    # one law for every row broadcasts, so no coefficient is gathered per entry
    law = law[0] if law.size and (law == law[0]).all() else law[candidates.rows]
    p = palm_survival(moments, law, candidates.heights)
    return candidates.with_pvalues(clip_pvalues(p))
