"""The detection pipeline: smooth, list local maxima, test their heights."""

from __future__ import annotations

from dataclasses import dataclass

from .candidates import CandidateSet
from .errors import DegenerateSequenceError
from .grid import SampledRows, SampledSequence, strict_local_maxima
from .kernels import Kernel, convolve
from .multitest import DetectionReport, Procedure, check_alpha, run_procedure
from .noise import NoiseMoments
from .palm import candidate_pvalues


def find_local_maxima(seq: SampledSequence | SampledRows) -> CandidateSet:
    """Strict local maxima of the sequence, away from its margin.

    Sample i qualifies when values[i] exceeds both neighbours, so plateau
    samples are never maxima.  Only indices with
    ``margin <= i < len - margin`` are returned, ``margin`` being the
    sequence's own validity margin; neighbours just inside it still
    participate in the comparisons.  Given :class:`SampledRows`, the
    maxima of every row, outside its own margin, form one set of rows.
    """
    if isinstance(seq, SampledSequence):
        seq = SampledRows(seq.values[None], seq.dt, seq.t0, [seq.margin])
    rows, idx, heights = seq.entries(strict_local_maxima(seq.values))
    return CandidateSet(idx, seq.t0 + seq.dt * idx, heights, rows=rows)


def check_testable(samples: int, margin: int) -> None:
    """Refuse ``samples`` with none inside a ``margin`` at each end."""
    if samples <= 2 * margin:
        raise DegenerateSequenceError(
            f"no testable sample: {samples} samples, "
            f"boundary margin {margin} at each end"
        )


@dataclass(frozen=True, eq=False)
class StemResult:
    """Everything produced by one detection run."""

    report: DetectionReport
    smoothed: SampledSequence

    @property
    def candidates(self) -> CandidateSet:
        return self.report.candidates  # the local maxima tested, with p-values


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
    that margin raises :class:`DegenerateSequenceError`, and so does one
    that is constant there, as it has no maxima to test.  An ``alpha``
    outside (0, 1) raises :class:`ConfigurationError` before any work.
    """
    check_alpha(alpha)
    smoothed = convolve(raw, kernel)
    check_testable(smoothed.values.size, smoothed.margin)
    candidates = find_local_maxima(smoothed)
    # min against max, as the range max - min of finite values can overflow
    if not len(candidates) and smoothed.interior.min() == smoothed.interior.max():
        raise DegenerateSequenceError("sequence carries no usable variation")
    candidates = candidate_pvalues(candidates, [moments], [0])
    (report,) = run_procedure(candidates, alpha, [moments], [0], [procedure])
    return StemResult(report=report, smoothed=smoothed)
