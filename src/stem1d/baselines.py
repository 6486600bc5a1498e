"""Baseline detection methods: pointwise testing and supremum control.

Pointwise methods test every interior sample of the smoothed sequence
against the marginal Gaussian null, then correct over the number of
samples.  The supremum method calibrates one height threshold so
that the probability of the smoothed noise exceeding it anywhere on the
domain is at most alpha, via the expected-upcrossings bound.  For
comparison with peak-level procedures, both give height thresholds, which
:func:`height_rule_report` applies to the local-maxima candidates.
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
from .multitest import _procedures
from .noise import NoiseMoments
from .palm import _coefficients, bisect_decreasing, clip_pvalues


def _interior(smoothed: SampledRows, moments: Sequence[NoiseMoments], law):
    """``(m, sigma)``: each row's interior sample count, and its law's sigma.
    Refuses a count of law indices or margins other than the row count."""
    _per_row(law, "law index")
    rows, n = smoothed.values.shape
    for what, x in (("law indices", law), ("margins", smoothed.margins)):
        if len(x) != rows:
            raise ValueError(f"{len(x)} {what} given for {rows} rows")
    m = np.maximum(n - 2 * np.asarray(smoothed.margins, np.int64), 0)
    return m, _coefficients(moments, law)[0]  # row 0: each law's sigma


def pointwise_pvalues(
    smoothed: SampledRows, moments: Sequence[NoiseMoments], law, alpha: float
) -> CandidateSet:
    """One-sided Gaussian p-value, with the sigma of the row's law
    ``moments[law]``, at each interior sample a correction at ``alpha`` can
    reject (p below the row's last step-up cutoff alpha * m / m, m its
    interior samples), as one set of rows.  A height cut at 1 + 1e-6 times
    that cutoff picks the samples the exact p-value and test then run on."""
    check_alpha(alpha)
    m, sigma = _interior(smoothed, moments, law)
    last = alpha * m / np.maximum(m, 1)
    loose = -sigma * ndtri(np.minimum(last * (1.0 + 1e-6), 1.0))
    rows, idx, values = smoothed.entries(smoothed.values > loose[:, np.newaxis])
    p = clip_pvalues(ndtr(-values / sigma[rows]))
    keep = p < last[rows]
    p, values, idx, rows = (x[keep] for x in (p, values, idx, rows))
    return CandidateSet._canonical(idx, smoothed.t0 + smoothed.dt * idx, values, p, rows)


# each pointwise procedure, and the correction it makes of sample p-values
POINTWISE_RULES = {
    Procedure.POINTWISE_BONFERRONI: Procedure.BONFERRONI,
    Procedure.POINTWISE_BH: Procedure.BH,
}


def pointwise_correct(
    smoothed: SampledRows,
    alpha: float,
    moments: Sequence[NoiseMoments],
    law,
    procedures: Sequence[Procedure],
) -> np.ndarray:
    """Each row's height threshold under each of ``procedures``, as a
    ``(len(procedures), rows)`` array: the sample value whose p-value, with
    the sigma of the row's law ``moments[law]``, is the cutoff Bonferroni or
    BH takes on the row's :func:`pointwise_pvalues` corrected over its m
    interior samples.  Peak-level scoring applies it to the local maxima
    as a height rule (:func:`height_rule_report`)."""
    _procedures(procedures, POINTWISE_RULES, "pointwise")
    samples = pointwise_pvalues(smoothed, moments, law, alpha)
    m, sigma = _interior(smoothed, moments, law)
    counts = samples.row_counts(m.size)
    rules = [POINTWISE_RULES[proc] for proc in procedures]
    cutoffs = [_cutoff(samples.pvalues, alpha, rule, m, counts)[0] for rule in rules]
    # a cutoff of 0 gives +inf, and of 1 (no samples) -inf
    return -sigma * ndtri(np.reshape(cutoffs, (len(procedures), m.size)))


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
    candidates.row_counts(threshold.size)  # refuses rows past the thresholds before they index
    rejects = candidates.heights > threshold[candidates.rows]
    nan, zero = np.full(threshold.size, np.nan), np.zeros(threshold.size, np.int64)
    return DetectionReport(procedure, alpha, candidates, rejects, nan, threshold, zero)
