"""Multiple-testing corrections over candidate peaks.

Both procedures reject on strict inequality ``p < cutoff``.  The number
of hypotheses is the number of candidates observed on the realization,
which is itself random.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .candidates import CandidateSet
from .errors import ConfigurationError, positive_finite
from .noise import NoiseMoments
from .palm import expected_maxima_density, palm_quantile


def check_alpha(alpha: float) -> None:
    """Raise :class:`ConfigurationError` unless 0 < alpha < 1 (NaN fails)."""
    if not (0.0 < alpha < 1.0):
        raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha!r}")


class Procedure(enum.Enum):
    BONFERRONI = "bonferroni"
    BH = "bh"
    POINTWISE_BONFERRONI = "pointwise-bonferroni"
    POINTWISE_BH = "pointwise-bh"
    SUPREMUM = "supremum"


@dataclass(frozen=True, eq=False)
class DetectionReport:
    """Outcome of one testing procedure on one candidate set.

    ``pvalue_cutoff`` is the realized rejection cutoff (1 when there were
    no candidates, 0 when a step-up procedure rejected nothing) and
    ``height_threshold`` is the equivalent threshold on peak heights
    (``-inf`` when everything would be rejected, ``+inf`` when nothing
    is).  ``step_index`` is the step-up count k for BH-type procedures
    and 0 otherwise.  A report on a set of several rows (a batch) holds
    these numbers as arrays, one entry per row.
    """

    procedure: Procedure
    alpha: float
    rejected: CandidateSet
    pvalue_cutoff: float
    height_threshold: float
    num_candidates: int
    step_index: int = 0

    def __post_init__(self):
        check_alpha(self.alpha)
        if np.any(np.less(self.num_candidates, 0)):
            raise ValueError("num_candidates must be non-negative")
        if len(self.rejected) > np.sum(self.num_candidates):
            raise ValueError("cannot reject more candidates than tested")

    @property
    def num_rejected(self) -> int:
        return len(self.rejected)

    def to_json_dict(self) -> dict:
        return {
            "procedure": self.procedure.value,
            "alpha": self.alpha,
            "num_candidates": self.num_candidates,
            "num_rejected": self.num_rejected,
            "pvalue_cutoff": _json_float(self.pvalue_cutoff),
            "height_threshold": _json_float(self.height_threshold),
            "step_index": self.step_index,
            "rejected": [
                {
                    "index": int(i),
                    "time": float(t),
                    "height": float(h),
                    "pvalue": None if p is None else float(p),
                }
                for i, t, h, p in _iter_entries(self.rejected)
            ],
        }

    def rejected_csv_lines(self) -> list[str]:
        """Rows of the rejected-peaks table (index, time, height, pvalue)."""
        lines = ["index,time,height,pvalue"]
        for i, t, h, p in _iter_entries(self.rejected):
            ptxt = "" if p is None else repr(float(p))
            lines.append(f"{int(i)},{float(t)!r},{float(h)!r},{ptxt}")
        return lines


def _iter_entries(cands: CandidateSet):
    pv = cands.pvalues
    for row in range(len(cands)):
        yield (
            cands.indices[row],
            cands.locations[row],
            cands.heights[row],
            None if pv is None else pv[row],
        )


def _json_float(x: float):
    if np.isfinite(x):
        return float(x)
    return {float("inf"): "inf", float("-inf"): "-inf"}.get(x, "nan")


def step_up_count(p: np.ndarray, alpha: float, m: np.ndarray) -> np.ndarray:
    """Per row of ``p`` (ordered by row, ``m`` entries in each), the largest
    i with the i-th smallest p-value below i * alpha / m; 0 if none.  The
    rows are sorted at once, in a table padded with +inf."""
    i = np.arange(1, m.max(initial=0) + 1)
    table = np.full((m.size, i.size), np.inf)
    table[i <= m[:, np.newaxis]] = p  # each row's p-values, in row order
    table.sort(axis=1)
    below = table < alpha * i / np.maximum(m, 1)[:, np.newaxis]
    return np.max(below * i, axis=1, initial=0)


def _cutoff(candidates: CandidateSet, alpha: float, procedure: Procedure, num_rows: int):
    """``(pvalue_cutoff, k, m)`` of each row of a candidate set, as arrays:
    alpha / m for Bonferroni, m being the row's candidate count, and for BH
    k * alpha / m, k the largest i with the i-th smallest p-value below
    i * alpha / m.  The cutoff is 1 on a row with no candidates, and 0
    where BH rejects nothing (k = 0).  An alpha / m (Bonferroni's cutoff, BH's
    first step) below the smallest normal double raises, as it underflows."""
    if candidates.pvalues is None:
        raise ValueError("candidates carry no p-values")
    m = candidates.row_counts(num_rows)
    per_row = np.maximum(m, 1)
    top = int(m.max(initial=0))  # the row with the smallest alpha / m
    if top and alpha / top < np.finfo(np.float64).tiny:
        raise ConfigurationError(f"alpha / m underflows: alpha={alpha!r}, m={top}")
    if procedure is Procedure.BONFERRONI:
        return np.where(m > 0, alpha / per_row, 1.0), np.zeros(num_rows, np.int64), m
    k = step_up_count(candidates.pvalues, alpha, m)
    cutoff = np.where(k > 0, k * alpha / per_row, 0.0)
    return np.where(m > 0, cutoff, 1.0), k, m


def _per_row(x, what: str) -> None:
    """Refuse a lone value where a batch needs a sequence, one ``what`` per row."""
    if not (isinstance(x, Sequence) or np.ndim(x) > 0):
        raise ValueError(f"a batch needs one {what} per row, as a sequence")


def run_procedure(
    candidates: CandidateSet,
    alpha: float,
    moments: NoiseMoments | Sequence[NoiseMoments],
    procedure: Procedure | Sequence[Procedure],
) -> DetectionReport | list[DetectionReport]:
    """Bonferroni or BH on a candidate set, as a :class:`DetectionReport`.

    Each row rejects the p-values strictly below its :func:`_cutoff`, so
    ties at the cutoff never are.  ``candidates`` may also hold several
    rows, with ``moments`` one :class:`NoiseMoments` per row and
    ``procedure`` a sequence: the result is then one batch report per
    procedure, each row corrected on its own.  The height thresholds of
    every (procedure, row) pair come from one :func:`palm_quantile` call.
    A single set and procedure run as a batch of one.
    """
    single = isinstance(procedure, Procedure)
    if single:
        moments, procedure = [moments], [procedure]
    else:
        _per_row(moments, "NoiseMoments")
    for proc in procedure:
        if proc not in (Procedure.BONFERRONI, Procedure.BH):
            raise ValueError(f"{proc} is not a candidate-level procedure")
    cuts = [_cutoff(candidates, alpha, proc, len(moments)) for proc in procedure]
    cutoffs = np.array([cutoff for cutoff, _, _ in cuts])
    thresholds = np.full(cutoffs.shape, np.inf)
    solve = cutoffs > 0.0
    rows = np.nonzero(solve)[1]
    thresholds[solve] = palm_quantile([moments[r] for r in rows], cutoffs[solve])
    reports = []
    for proc, (cutoff, k, m), threshold in zip(procedure, cuts, thresholds):
        numbers = (cutoff, threshold, m, k)
        if single:  # a lone set's report holds its one row's numbers as scalars
            numbers = [x[0].item() for x in numbers]
        rejected = candidates.select(candidates.pvalues < cutoff[candidates.rows])
        reports.append(DetectionReport(proc, alpha, rejected, *numbers))
    return reports[0] if single else reports


def asymptotic_thresholds(
    alpha: float, peak_rate: float, moments: NoiseMoments
) -> tuple[float, Callable[[float], float]]:
    """``(bh, bonferroni_for_length)``, the limiting height thresholds when
    peaks occur at ``peak_rate`` per unit length.  Each true peak adds one
    maximum to the null maxima of ``moments`` (:func:`expected_maxima_density`).
    Bonferroni's threshold grows with the domain, so it is a function of it."""
    check_alpha(alpha)
    positive_finite("peak_rate", peak_rate)
    maxima_density = expected_maxima_density(moments)
    bh_arg = alpha * peak_rate / (peak_rate + maxima_density * (1.0 - alpha))
    bh = palm_quantile(moments, bh_arg)

    def bonferroni_for_length(domain_length: float) -> float:
        positive_finite("domain_length", domain_length)
        arg = (alpha / domain_length) / (peak_rate + maxima_density)
        return palm_quantile(moments, min(arg, 1.0))

    return bh, bonferroni_for_length
