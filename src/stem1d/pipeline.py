"""The detection pipeline: smooth, list local maxima, test their heights."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .candidates import CandidateSet
from .errors import DegenerateSequenceError
from .grid import SampledSequence, strict_local_maxima
from .kernels import Kernel, convolve
from .multitest import DetectionReport, Procedure, check_alpha, run_procedure
from .noise import NoiseMoments
from .palm import PalmParams, candidate_pvalues


def find_local_maxima(seq: SampledSequence, margin: int | None = None) -> CandidateSet:
    """Strict local maxima of the sequence, away from the margins.

    Sample i qualifies when values[i] exceeds both neighbours, so plateau
    samples are never maxima.  Only indices with
    ``margin <= i < len - margin`` are returned; neighbours just inside a
    margin still participate in the comparisons.  ``margin`` defaults to
    the sequence's own validity margin.
    """
    if margin is None:
        margin = seq.margin
    margin = int(margin)
    if margin < 0:
        raise ValueError("margin must be non-negative")
    v = seq.values
    idx = strict_local_maxima(v)
    idx = idx[(idx >= margin) & (idx < v.size - margin)]
    return CandidateSet(idx, seq.time_at(idx), v[idx])


@dataclass(frozen=True, eq=False)
class StemResult:
    """Everything produced by one detection run."""

    report: DetectionReport
    smoothed: SampledSequence
    candidates: CandidateSet


def stem_detect(
    raw: SampledSequence,
    kernel: Kernel,
    moments: NoiseMoments,
    procedure: Procedure = Procedure.BONFERRONI,
    alpha: float = 0.05,
) -> StemResult:
    """Smooth ``raw``, test the heights of its local maxima.

    ``moments`` must describe the noise *after* smoothing by ``kernel``.
    The smoothed sequence's boundary margin (half the kernel support) is
    excluded from the candidate search; a series with no sample outside
    that margin raises :class:`DegenerateSequenceError`.  An ``alpha``
    outside (0, 1) raises :class:`ConfigurationError` before any work.
    """
    check_alpha(alpha)
    smoothed = convolve(raw, kernel)
    if smoothed.interior.size == 0:
        raise DegenerateSequenceError(
            f"no testable sample: {smoothed.values.size} samples, "
            f"boundary margin {smoothed.margin} at each end"
        )
    params = PalmParams(moments)
    candidates = candidate_pvalues(find_local_maxima(smoothed), params)
    report = run_procedure(candidates, alpha, params, procedure)
    return StemResult(report=report, smoothed=smoothed, candidates=candidates)


@dataclass(frozen=True, eq=False)
class BandwidthSelection:
    """Result of scanning a bandwidth grid for the most discoveries."""

    chosen_index: int
    result: StemResult
    rejection_counts: tuple[int, ...]


def most_rejections(counts: Sequence[int], bandwidths: Sequence[float]) -> int:
    """Index of the largest rejection count; ties go to the smallest bandwidth."""
    return min(range(len(counts)), key=lambda i: (-counts[i], bandwidths[i]))


def auto_bandwidth(
    raw: SampledSequence,
    kernels: Sequence[Kernel],
    moments_per_kernel: Sequence[NoiseMoments],
    procedure: Procedure = Procedure.BONFERRONI,
    alpha: float = 0.05,
) -> BandwidthSelection:
    """Run detection at every kernel and keep the one with most rejections.

    Ties go to the smallest bandwidth.  The returned report is exactly
    the one computed at the chosen kernel, so the selection step does not
    alter any p-value.
    """
    if len(kernels) == 0:
        raise ValueError("need at least one kernel")
    if len(kernels) != len(moments_per_kernel):
        raise ValueError("kernels and moments lists must align")
    results = [
        stem_detect(raw, kernel, moments, procedure, alpha)
        for kernel, moments in zip(kernels, moments_per_kernel)
    ]
    counts = tuple(res.report.num_rejected for res in results)
    best = most_rejections(counts, [kernel.bandwidth for kernel in kernels])
    return BandwidthSelection(
        chosen_index=best, result=results[best], rejection_counts=counts
    )
