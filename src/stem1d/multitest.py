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


# the procedures that test candidate p-values, through run_procedure
PEAK_PROCEDURES = (Procedure.BONFERRONI, Procedure.BH)


@dataclass(frozen=True, eq=False)
class DetectionReport:
    """Outcome of one testing procedure on a candidate set of one or more
    rows, each row corrected on its own: ``rejects`` is True on each of
    ``candidates`` rejected.

    The numbers are arrays, one entry per row.  ``pvalue_cutoff`` is the
    realized rejection cutoff (1 on a row with no candidates, 0 where a
    step-up procedure rejected nothing) and ``height_threshold`` is the
    equivalent threshold on peak heights (``-inf`` when everything would
    be rejected, ``+inf`` when nothing is).  ``step_index`` is the step-up
    count k for BH-type procedures and 0 otherwise.
    """

    procedure: Procedure
    alpha: float
    candidates: CandidateSet
    rejects: np.ndarray
    pvalue_cutoff: np.ndarray
    height_threshold: np.ndarray
    step_index: np.ndarray

    def __post_init__(self):
        check_alpha(self.alpha)
        numbers = (self.height_threshold, self.step_index)
        if np.ndim(self.pvalue_cutoff) != 1 or any(
            np.shape(x) != np.shape(self.pvalue_cutoff) for x in numbers
        ):
            raise ValueError("report numbers must be 1-D arrays, one entry per row")
        rejects = np.asarray(self.rejects)
        if rejects.dtype != bool or rejects.shape != (len(self.candidates),):
            raise ValueError("rejects must be a boolean mask, one entry per candidate")
        object.__setattr__(self, "rejects", rejects)
        self.candidates.row_counts(len(self.pvalue_cutoff))  # refuses rows past the numbers

    @property
    def num_candidates(self) -> np.ndarray:
        """Candidates tested in each row."""
        return self.candidates.row_counts(len(self.pvalue_cutoff))

    @property
    def rejected(self) -> CandidateSet:
        """The candidates rejected, as a set of their own."""
        return self.candidates.select(self.rejects)

    @property
    def num_rejected(self) -> int:
        return int(np.count_nonzero(self.rejects))

    def to_json_dict(self, row: int | None = None) -> dict:
        """One row's numbers and rejections; ``row`` may be left out on a
        one-row report only."""
        row = self._row(row)
        entries = self._entries(row)
        return {
            "procedure": self.procedure.value,
            "alpha": self.alpha,
            "num_candidates": int(self.num_candidates[row]),
            "num_rejected": len(entries),
            "pvalue_cutoff": _json_float(self.pvalue_cutoff[row]),
            "height_threshold": _json_float(self.height_threshold[row]),
            "step_index": int(self.step_index[row]),
            "rejected": [
                {"index": i, "time": t, "height": h, "pvalue": p}
                for i, t, h, p in entries
            ],
        }

    def rejected_csv_lines(self, row: int | None = None) -> list[str]:
        """The rejected-peaks table (index, time, height, pvalue) of one
        row; ``row`` may be left out on a one-row report only."""
        lines = ["index,time,height,pvalue"]
        for i, t, h, p in self._entries(self._row(row)):
            lines.append(f"{i},{t!r},{h!r},{'' if p is None else repr(p)}")
        return lines

    def _row(self, row: int | None) -> int:
        rows = len(self.pvalue_cutoff)
        if row is None and rows != 1:
            raise ValueError(f"the report has {rows} rows; name the row to write")
        row = 0 if row is None else row
        if not 0 <= row < rows:
            raise ValueError(f"row {row} is outside the report's {rows} rows")
        return row

    def _entries(self, row: int) -> list[tuple]:
        """``(index, time, height, pvalue)`` of each rejection in ``row``, as
        Python numbers; the p-value is None where none is attached."""
        c = self.candidates
        at = np.flatnonzero(self.rejects & (c.rows == row))
        p = [None] * at.size if c.pvalues is None else c.pvalues[at].tolist()
        return list(zip(*(f[at].tolist() for f in (c.indices, c.locations, c.heights)), p))


def _json_float(x):
    x = float(x)
    if np.isfinite(x):
        return x
    return {float("inf"): "inf", float("-inf"): "-inf"}.get(x, "nan")


def step_up_count(p: np.ndarray, alpha: float, m: np.ndarray, counts) -> np.ndarray:
    """Per row, the largest i with the i-th smallest of its ``m`` p-values
    below i * alpha / m; 0 if none.  ``p`` holds ``counts`` of each row's
    p-values, by row, and may leave out any at or above the row's last-step
    cutoff alpha * m / m, as no step counts it.  So only the p-values below
    the largest such cutoff enter a table padded with +inf, sorted at once."""
    per_row = np.maximum(m, 1)
    keep = p < (alpha * m / per_row).max(initial=0.0)
    # kept entries per row, from the running count at each row's end
    ends = np.concatenate(([0], np.cumsum(keep)))[np.cumsum(counts)]
    kept = np.diff(ends, prepend=0)
    i = np.arange(1, kept.max(initial=0) + 1)
    table = np.full((m.size, i.size), np.inf)
    table[i <= kept[:, np.newaxis]] = p[keep]  # each row's p-values, in row order
    table.sort(axis=1)
    below = table < alpha * i / per_row[:, np.newaxis]
    return np.max(below * i, axis=1, initial=0)


def _cutoff(p: np.ndarray, alpha: float, procedure: Procedure, m, counts):
    """``(pvalue_cutoff, k)`` of each row, as arrays, for p-values held as
    :func:`step_up_count` takes them: alpha / m for Bonferroni, m the row's
    number of hypotheses, and k * alpha / m for BH, k the step-up count.
    The cutoff is 1 on a row with no hypotheses, and 0 where BH rejects
    nothing (k = 0).  An alpha / m (Bonferroni's cutoff, BH's first step)
    below the smallest normal double raises, as it underflows."""
    per_row = np.maximum(m, 1)
    top = int(m.max(initial=0))  # the row with the smallest alpha / m
    if top and alpha / top < np.finfo(np.float64).tiny:
        raise ConfigurationError(f"alpha / m underflows: alpha={alpha!r}, m={top}")
    if procedure is Procedure.BONFERRONI:
        return np.where(m > 0, alpha / per_row, 1.0), np.zeros(m.size, np.int64)
    k = step_up_count(p, alpha, m, counts)
    cutoff = np.where(k > 0, k * alpha / per_row, 0.0)
    return np.where(m > 0, cutoff, 1.0), k


def _per_row(x, what: str) -> None:
    """Refuse a lone value where a batch needs a sequence of ``what``."""
    if not (isinstance(x, Sequence) or np.ndim(x) > 0):
        raise ValueError(f"a batch needs one {what} per row, as a sequence")


def _procedures(procedures: Sequence[Procedure], allowed, level: str) -> None:
    """Refuse a lone :class:`Procedure`, or one outside ``allowed``."""
    if isinstance(procedures, Procedure):
        raise ValueError("procedures must be a sequence of Procedure")
    for proc in procedures:
        if proc not in allowed:
            raise ValueError(f"{proc} is not a {level} procedure")


def run_procedure(
    candidates: CandidateSet,
    alpha: float,
    moments: Sequence[NoiseMoments],
    law,
    procedures: Sequence[Procedure],
) -> list[DetectionReport]:
    """Bonferroni or BH on a candidate set: one :class:`DetectionReport`
    per entry of ``procedures``, each row corrected on its own.

    ``law`` holds one index into ``moments`` per row, naming the row's
    null law.  Each row rejects the p-values strictly below its
    :func:`_cutoff`, so ties at the cutoff never are.  The height
    thresholds of every (procedure, row) pair come from one
    :func:`palm_quantile` call.
    """
    _per_row(law, "law index")
    _procedures(procedures, PEAK_PROCEDURES, "candidate-level")
    if candidates.pvalues is None:
        raise ValueError("candidates carry no p-values")
    m = candidates.row_counts(len(law))
    cuts = [_cutoff(candidates.pvalues, alpha, proc, m, m) for proc in procedures]
    cutoffs = np.array([cutoff for cutoff, _ in cuts])
    thresholds = np.full(cutoffs.shape, np.inf)
    solve = cutoffs > 0.0
    rows = np.nonzero(solve)[1]
    thresholds[solve] = palm_quantile(moments, np.asarray(law)[rows], cutoffs[solve])
    reports = []
    for proc, (cutoff, k), threshold in zip(procedures, cuts, thresholds):
        rejects = candidates.pvalues < cutoff[candidates.rows]
        reports.append(DetectionReport(proc, alpha, candidates, rejects, cutoff, threshold, k))
    return reports


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
    bh = palm_quantile([moments], 0, [bh_arg]).item()

    def bonferroni_for_length(domain_length: float) -> float:
        positive_finite("domain_length", domain_length)
        arg = (alpha / domain_length) / (peak_rate + maxima_density)
        return palm_quantile([moments], 0, [min(arg, 1.0)]).item()

    return bh, bonferroni_for_length
