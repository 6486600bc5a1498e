"""Baseline detection methods: pointwise testing and supremum control.

Pointwise methods test every interior sample of the smoothed sequence
against the marginal Gaussian null, then correct over the number of
samples.  The supremum method calibrates one height threshold so
that the probability of the smoothed noise exceeding it anywhere on the
domain is at most alpha, via the expected-upcrossings bound.  For
comparison with peak-level procedures, both are also expressed as height
thresholds applied to the local-maxima candidates.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .candidates import CandidateSet
from .errors import ThresholdInfeasibleError, positive_finite
from .grid import SQRT_2PI, SampledRows
from .multitest import DetectionReport, Procedure, _cutoff, _per_row, check_alpha
from .noise import NoiseMoments
from .palm import bisect_decreasing, clip_pvalues


def pointwise_pvalues(
    smoothed: SampledRows, moments: Sequence[NoiseMoments]
) -> CandidateSet:
    """One-sided Gaussian p-value at every interior sample of every row,
    with the sigma of the row's :class:`NoiseMoments`, as one set of rows."""
    _per_row(moments, "NoiseMoments")
    rows, idx, values = smoothed.entries(np.ones(smoothed.values.shape, dtype=bool))
    sigma = np.array([m.sigma for m in moments])[rows]
    p = clip_pvalues(ndtr(-values / sigma))
    return CandidateSet._canonical(idx, smoothed.t0 + smoothed.dt * idx, values, p, rows)


_POINTWISE_RULES = {
    Procedure.POINTWISE_BONFERRONI: Procedure.BONFERRONI,
    Procedure.POINTWISE_BH: Procedure.BH,
}


def pointwise_correct(
    samples: CandidateSet,
    alpha: float,
    procedure: Procedure,
    moments: Sequence[NoiseMoments],
) -> DetectionReport:
    """Correct each row's per-sample p-values over its number of samples.

    The cutoff is the one Bonferroni or BH takes on candidate p-values.
    The rejected entries are samples, not peaks.  The batch report's height
    thresholds, one per row with its :class:`NoiseMoments`, are the sample
    values equivalent to the realized cutoffs, which lets peak-level
    scoring treat the method as a height rule.
    """
    if procedure not in _POINTWISE_RULES:
        raise ValueError(f"{procedure} is not a pointwise procedure")
    _per_row(moments, "NoiseMoments")
    cutoff, k, m = _cutoff(samples, alpha, _POINTWISE_RULES[procedure], len(moments))
    # a cutoff of 0 gives +inf, and of 1 (no samples) -inf
    threshold = -np.array([x.sigma for x in moments]) * ndtri(cutoff)
    rejected = samples.select(samples.pvalues < cutoff[samples.rows])
    return DetectionReport(procedure, alpha, rejected, cutoff, threshold, m, k)


def _upcrossing_rate(moments: NoiseMoments, domain_length: float, convention: str):
    """The factor of phi(u/sigma) in :func:`_bound`: L sqrt(lambda2) / sigma
    under the "paper" ``convention``, sqrt(2 pi) smaller under "classical"."""
    if convention not in ("paper", "classical"):
        raise ValueError(f"unknown convention {convention!r}")
    rate = domain_length * math.sqrt(moments.lambda2) / moments.sigma
    return rate / SQRT_2PI if convention == "classical" else rate


def _bound(sigma, rate, u):
    """Bound on P(sup of the smoothed noise over the domain > u), entry by
    entry: the tail at u plus the expected upcrossings, rate * phi(u/sigma)."""
    x = u / sigma
    return ndtr(-x) + rate * np.exp(-0.5 * x * x) / SQRT_2PI


def supremum_threshold(
    moments: Sequence[NoiseMoments],
    domain_length: float,
    alpha: float,
    convention: str = "paper",
) -> np.ndarray:
    """Smallest height u whose excursion bound is at most alpha, one per
    entry of ``moments``.

    The entries are solved in step as :func:`~stem1d.palm.palm_quantile`
    solves a batch: each entry expands and bisects its own bracket, and
    has the bits of a batch of one.
    """
    check_alpha(alpha)
    positive_finite("domain_length", domain_length)
    _per_row(moments, "NoiseMoments")
    sigma = np.array([m.sigma for m in moments])
    rate = np.array([_upcrossing_rate(m, domain_length, convention) for m in moments])

    def bound(u):
        return _bound(sigma, rate, u)

    hi = 10.0 * sigma
    for _ in range(61):
        high = bound(hi) > alpha
        if not high.any():
            break
        hi = np.where(high, hi * 2.0, hi)
    else:
        raise ThresholdInfeasibleError(
            f"excursion bound stays above alpha={alpha} at all usable heights"
        )
    # from 0, step down while the bound allows, at most to -1e9 steps
    step = np.maximum(sigma, 1.0)
    lo = np.zeros(sigma.shape)
    while True:
        low = (bound(lo) <= alpha) & (lo >= -1e9 * step)
        if not low.any():
            break
        lo = np.where(low, lo - step, lo)
    return bisect_decreasing(bound, alpha, lo, hi)[1]


def height_rule_report(
    candidates: CandidateSet,
    threshold,
    alpha: float,
    procedure: Procedure,
) -> DetectionReport:
    """Report the candidates strictly above each row's height threshold.

    ``threshold`` is an array, one per row of ``candidates``.  The p-value
    cutoff is not defined for a pure height rule and is reported as NaN.
    """
    _per_row(threshold, "height threshold")
    threshold = np.reshape(threshold, -1).astype(np.float64)
    m = candidates.row_counts(threshold.size)
    rejected = candidates.select(candidates.heights > threshold[candidates.rows])
    nan, zero = np.full(m.size, np.nan), np.zeros(m.size, np.int64)
    return DetectionReport(procedure, alpha, rejected, nan, threshold, m, zero)
