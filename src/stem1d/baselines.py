"""Baseline detection methods: pointwise testing and supremum control.

Pointwise methods test every interior sample of the smoothed sequence
against the marginal Gaussian null, then correct over the number of
samples.  The supremum method calibrates a single height threshold so
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
from .grid import SQRT_2PI, SampledRows, SampledSequence
from .multitest import DetectionReport, Procedure, _cutoff, _report, check_alpha
from .noise import NoiseMoments
from .palm import bisect_decreasing, clip_pvalues


def pointwise_pvalues(
    smoothed: SampledSequence | SampledRows,
    moments: NoiseMoments | Sequence[NoiseMoments],
) -> CandidateSet:
    """One-sided Gaussian p-value at every interior sample.

    Given :class:`SampledRows` and one :class:`NoiseMoments` per row, the
    samples of every row, with its sigma, form one set of rows.
    """
    if isinstance(smoothed, SampledSequence):
        seq, moments = smoothed, [moments]
        smoothed = SampledRows(seq.values[np.newaxis], seq.dt, seq.t0, [seq.margin])
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
    moments: NoiseMoments | Sequence[NoiseMoments],
) -> DetectionReport:
    """Correct the per-sample p-values over the number of samples.

    The cutoff is the one Bonferroni or BH takes on candidate p-values.
    The rejected entries are samples, not peaks.  The report's height
    threshold is the sample value equivalent to the realized cutoff,
    which lets peak-level scoring treat the method as a height rule.
    Several rows, with one :class:`NoiseMoments` each, give a batch report.
    """
    if procedure not in _POINTWISE_RULES:
        raise ValueError(f"{procedure} is not a pointwise procedure")
    single = isinstance(moments, NoiseMoments)
    moments = [moments] if single else moments
    cutoff, k, m = _cutoff(samples, alpha, _POINTWISE_RULES[procedure], len(moments))
    # a cutoff of 0 gives +inf, and of 1 (no samples) -inf
    threshold = -np.array([x.sigma for x in moments]) * ndtri(cutoff)
    rejected, numbers = samples.pvalues < cutoff[samples.rows], (cutoff, threshold, m, k)
    return _report(samples, alpha, procedure, rejected, numbers, single)


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
    moments: NoiseMoments | Sequence[NoiseMoments],
    domain_length: float,
    alpha: float,
    convention: str = "paper",
) -> float | np.ndarray:
    """Smallest height u whose excursion bound is at most alpha.

    One :class:`NoiseMoments` gives a float.  A sequence of them gives an
    array, one threshold per entry, solved in step as
    :func:`~stem1d.palm.palm_quantile` solves a batch: each entry expands
    and bisects its own bracket, and has the bits of its own call.
    """
    check_alpha(alpha)
    positive_finite("domain_length", domain_length)
    single = isinstance(moments, NoiseMoments)
    moments = [moments] if single else moments
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
    u = bisect_decreasing(bound, alpha, lo, hi)[1]
    return float(u[0]) if single else u


def height_rule_report(
    candidates: CandidateSet,
    threshold,
    alpha: float,
    procedure: Procedure,
) -> DetectionReport:
    """Report the candidates strictly above a fixed height threshold.

    The p-value cutoff is not defined for a pure height rule and is
    reported as NaN.  An array ``threshold``, one per row of
    ``candidates``, gives a batch report.
    """
    single = not np.ndim(threshold)
    threshold = np.reshape(threshold, -1).astype(np.float64)
    m = candidates.row_counts(threshold.size)
    numbers = (np.full(m.size, np.nan), threshold, m, np.zeros(m.size, np.int64))
    rejected = candidates.heights > threshold[candidates.rows]
    return _report(candidates, alpha, procedure, rejected, numbers, single)
