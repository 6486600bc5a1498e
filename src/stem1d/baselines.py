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


def excursion_bound(
    moments: NoiseMoments,
    domain_length: float,
    u,
    convention: str = "paper",
) -> np.ndarray:
    """Upper bound on P(sup of the smoothed noise over the domain > u).

    The bound is the marginal tail at u plus the expected number of
    upcrossings of u over the domain.  ``convention`` selects the
    upcrossing-rate constant: "paper" uses
    L * sqrt(lambda2)/sigma * phi(u/sigma), while "classical" is smaller
    by a factor sqrt(2 pi).
    """
    if convention not in ("paper", "classical"):
        raise ValueError(f"unknown convention {convention!r}")
    u = np.asarray(u, dtype=np.float64)
    x = u / moments.sigma
    rate = domain_length * math.sqrt(moments.lambda2) / moments.sigma
    if convention == "classical":
        rate /= SQRT_2PI
    return ndtr(-x) + rate * np.exp(-0.5 * x * x) / SQRT_2PI


def supremum_threshold(
    moments: NoiseMoments,
    domain_length: float,
    alpha: float,
    convention: str = "paper",
) -> float:
    """Smallest height u whose excursion bound is at most alpha."""
    check_alpha(alpha)
    positive_finite("domain_length", domain_length)
    sigma = moments.sigma

    def bound(u):
        return float(excursion_bound(moments, domain_length, u, convention))

    hi = 10.0 * sigma
    guard = 0
    while bound(hi) > alpha:
        hi *= 2.0
        guard += 1
        if guard > 60:
            raise ThresholdInfeasibleError(
                f"excursion bound stays above alpha={alpha} at all usable heights"
            )
    lo = 0.0
    if bound(lo) <= alpha:
        while bound(lo) <= alpha:
            lo -= max(sigma, 1.0)
            if lo < -1e9 * max(sigma, 1.0):
                break
    return bisect_decreasing(bound, alpha, lo, hi)[1]


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
    m = np.bincount(candidates.rows, minlength=threshold.size)
    numbers = (np.full(m.size, np.nan), threshold, m, np.zeros(m.size, np.int64))
    rejected = candidates.heights > threshold[candidates.rows]
    return _report(candidates, alpha, procedure, rejected, numbers, single)


def supremum_detect(
    candidates: CandidateSet,
    moments: NoiseMoments,
    domain_length: float,
    alpha: float,
    convention: str = "paper",
) -> DetectionReport:
    """Report the local maxima exceeding the supremum threshold.

    Expressing the supremum rule on the candidate maxima keeps all
    methods comparable in peak-level units.
    """
    threshold = supremum_threshold(moments, domain_length, alpha, convention)
    return height_rule_report(candidates, threshold, alpha, Procedure.SUPREMUM)
