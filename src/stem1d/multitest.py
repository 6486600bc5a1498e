"""Multiple-testing corrections over candidate peaks.

Both procedures reject on strict inequality ``p < cutoff``.  The number
of hypotheses is the number of candidates observed on the realization,
which is itself random.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .candidates import CandidateSet
from .errors import ConfigurationError
from .palm import PalmParams, palm_quantile


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
    and 0 otherwise.
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
        if self.num_candidates < 0:
            raise ValueError("num_candidates must be non-negative")
        if len(self.rejected) > self.num_candidates:
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

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)

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


def step_up_count(p: np.ndarray, alpha: float) -> int:
    """Largest i with the i-th smallest p-value below i * alpha / m; 0 if none."""
    m = p.size
    ordered = np.sort(p)
    below = np.flatnonzero(ordered < alpha * np.arange(1, m + 1) / m)
    return int(below[-1] + 1) if below.size else 0


def bonferroni(
    candidates: CandidateSet, alpha: float, params: PalmParams
) -> DetectionReport:
    """Reject candidates with p < alpha / m, m being the candidate count."""
    return run_procedure(candidates, alpha, params, Procedure.BONFERRONI)


def benjamini_hochberg(
    candidates: CandidateSet, alpha: float, params: PalmParams
) -> DetectionReport:
    """Step-up procedure on the candidate p-values.

    k is the largest i such that the i-th smallest p-value is below
    i * alpha / m; the cutoff is k * alpha / m and everything strictly
    below it is rejected (so ties at the cutoff are never rejected).
    """
    return run_procedure(candidates, alpha, params, Procedure.BH)


def _cutoff(candidates: CandidateSet, alpha: float, procedure: Procedure):
    """``(pvalue_cutoff, k)`` of one candidate set: a cutoff of 1 with no
    candidates, and of 0 when a step-up rejects nothing (k = 0)."""
    p = candidates.pvalues
    if p is None:
        raise ValueError("candidates carry no p-values")
    m = candidates.count
    if m == 0:
        return 1.0, 0
    if procedure is Procedure.BONFERRONI:
        return alpha / m, 0
    k = step_up_count(p, alpha)
    return (k * alpha / m if k else 0.0), k


def run_procedure(
    candidates: CandidateSet | Sequence[CandidateSet],
    alpha: float,
    params: PalmParams | Sequence[PalmParams],
    procedure: Procedure,
) -> DetectionReport | list[DetectionReport]:
    """Bonferroni or BH on a candidate set, as a :class:`DetectionReport`.

    ``candidates`` may also be a list of candidate sets, with ``params``
    a list of the same length; the result is then one report per set.
    A single set is run as a list of one.  The height thresholds of all
    the sets are solved in one batched :func:`palm_quantile` call.
    """
    if procedure not in (Procedure.BONFERRONI, Procedure.BH):
        raise ValueError(f"{procedure} is not a candidate-level procedure")
    single = isinstance(candidates, CandidateSet)
    if single:
        candidates, params = [candidates], [params]
    if len(candidates) != len(params):
        raise ValueError("candidates and params lists must align")
    cuts = [_cutoff(c, alpha, procedure) for c in candidates]
    solve = [i for i, (cutoff, _) in enumerate(cuts) if cutoff > 0.0]
    thresholds = np.full(len(cuts), np.inf)
    thresholds[solve] = palm_quantile(
        [params[i] for i in solve], [cuts[i][0] for i in solve]
    )
    reports = [
        _report(c, alpha, procedure, cutoff, k, threshold)
        for c, (cutoff, k), threshold in zip(candidates, cuts, thresholds.tolist())
    ]
    return reports[0] if single else reports


def _report(candidates, alpha, procedure, cutoff, k, threshold) -> DetectionReport:
    return DetectionReport(
        procedure=procedure,
        alpha=alpha,
        rejected=candidates.select(candidates.pvalues < cutoff),
        pvalue_cutoff=cutoff,
        height_threshold=threshold,
        num_candidates=candidates.count,
        step_index=k,
    )


@dataclass(frozen=True)
class AsymptoticThresholds:
    """Large-domain height thresholds for the two procedures.

    ``bh`` is a constant; the Bonferroni threshold grows with the domain
    length and is exposed as a function of it.
    """

    bh: float
    bonferroni_for_length: Callable[[float], float]


def asymptotic_thresholds(
    alpha: float,
    peak_rate: float,
    maxima_density: float,
    params: PalmParams,
) -> AsymptoticThresholds:
    """Limiting thresholds when peaks occur at ``peak_rate`` per unit length.

    ``maxima_density`` is the expected number of null local maxima per
    unit length.  The expected candidate count per unit length is their
    sum: each true peak contributes one maximum.
    """
    check_alpha(alpha)
    if not (peak_rate > 0) or not (maxima_density > 0):
        raise ValueError("peak_rate and maxima_density must be positive")
    bh_arg = alpha * peak_rate / (peak_rate + maxima_density * (1.0 - alpha))
    bh = palm_quantile(params, bh_arg)

    def bonferroni_for_length(domain_length: float) -> float:
        if not (domain_length > 0):
            raise ValueError("domain_length must be positive")
        arg = (alpha / domain_length) / (peak_rate + maxima_density)
        return palm_quantile(params, min(arg, 1.0))

    return AsymptoticThresholds(bh=bh, bonferroni_for_length=bonferroni_for_length)
