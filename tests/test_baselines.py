"""Pointwise and supremum baselines."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtr, ndtri

from stem1d import (
    CandidateSet,
    GaussianAcvfParams,
    NoiseMoments,
    Procedure,
    SampledRows,
    SignalSpec,
    closed_form_moments,
    compute_regions,
    gaussian_kernel,
    height_rule_report,
    pointwise_correct,
    pointwise_pvalues,
    run_procedure,
    score_trial,
    supremum_threshold,
)
from stem1d.palm import clip_pvalues

UNIT_MOMENTS = NoiseMoments(sigma2=1.0, lambda2=1.0, lambda4=3.0)


@pytest.mark.parametrize(
    "convention, rate",
    [("paper", 100.0), ("classical", 100.0 / math.sqrt(2 * math.pi))],
    ids=["paper", "classical"],
)
def test_supremum_threshold_solves_the_upcrossing_bound(convention, rate):
    # unit moments: the bound is sf(u) + rate * pdf(u), rate L sqrt(lambda2) / sigma
    # under the paper's convention and sqrt(2 pi) smaller under the classical one
    (u,) = supremum_threshold([UNIT_MOMENTS], 100.0, 0.05, convention=convention)
    bound = stats.norm.sf(u) + rate * stats.norm.pdf(u)
    assert bound == pytest.approx(0.05, rel=1e-9)
    with pytest.raises(ValueError, match="unknown convention 'exact'"):
        supremum_threshold([UNIT_MOMENTS], 100.0, 0.05, convention="exact")


def test_supremum_threshold_against_grid_scan():
    (thr,) = supremum_threshold([UNIT_MOMENTS], 100.0, 0.05)
    grid = np.arange(0.0, 8.0, 1e-4)
    bound = stats.norm.sf(grid) + 100.0 * stats.norm.pdf(grid)
    scan = grid[np.argmax(bound <= 0.05)]
    assert thr == pytest.approx(scan, abs=2e-4)
    assert 3.65 < thr < 3.66
    assert stats.norm.sf(thr) + 100.0 * stats.norm.pdf(thr) == pytest.approx(
        0.05, rel=1e-6
    )


def test_supremum_threshold_monotonicity():
    lengths = [10.0, 100.0, 1e4, 1e6]
    thrs = [supremum_threshold([UNIT_MOMENTS], L, 0.05)[0] for L in lengths]
    assert all(b > a for a, b in zip(thrs, thrs[1:]))
    tighter = supremum_threshold([UNIT_MOMENTS], 100.0, 0.01)[0]
    assert tighter > thrs[1]
    classical = supremum_threshold([UNIT_MOMENTS], 100.0, 0.05, convention="classical")
    assert classical[0] < thrs[1]
    with pytest.raises(ValueError):
        supremum_threshold([UNIT_MOMENTS], -1.0, 0.05)
    with pytest.raises(ValueError):
        supremum_threshold([UNIT_MOMENTS], 100.0, 1.5)


@pytest.mark.parametrize(
    "length, alpha, convention",
    [
        (1000.0, 0.05, "paper"),
        (1000.0, 0.05, "classical"),
        (50.0, 0.2, "paper"),
        (1e6, 1e-4, "classical"),
        (0.1, 0.9, "paper"),  # the lower bracket steps down from 0
        (0.1, 0.9, "classical"),
    ],
)
def test_supremum_threshold_batch_matches_single_calls(length, alpha, convention):
    # each entry of a batch has the bits of its own batch of one
    moments = [
        UNIT_MOMENTS,
        closed_form_moments(GaussianAcvfParams(1.0), 3.0),
        NoiseMoments(sigma2=9.0, lambda2=0.5, lambda4=0.4),  # steps of sigma
        NoiseMoments(sigma2=0.01, lambda2=0.02, lambda4=0.5),
        UNIT_MOMENTS,
    ]
    want = [supremum_threshold([m], length, alpha, convention) for m in moments]
    assert all(u.shape == (1,) and u.dtype == np.float64 for u in want)
    got = supremum_threshold(moments, length, alpha, convention)
    assert got.tobytes() == np.concatenate(want).tobytes()
    if alpha == 0.9:
        assert (got < 0.0).all()


def test_pointwise_pvalues_marginal_tail():
    moments = NoiseMoments(sigma2=4.0, lambda2=1.0, lambda4=3.0)
    seq = SampledRows(np.array([[9.0, 0.0, 2.0, -2.0, 9.0]]), 0.5, 0.0, [1])
    samples = pointwise_pvalues(seq, [moments], [0], 0.999)
    np.testing.assert_array_equal(samples.indices, [1, 2, 3])
    np.testing.assert_allclose(
        samples.pvalues, stats.norm.sf(np.array([0.0, 2.0, -2.0]) / 2.0), rtol=1e-12
    )
    # only the samples a correction at alpha can reject: p < 0.2 * 3 / 3
    kept = pointwise_pvalues(seq, [moments], [0], 0.2)
    np.testing.assert_array_equal(kept.indices, [2])
    narrow = SampledRows(np.zeros((1, 4)), 1.0, 0.0, [2])
    assert len(pointwise_pvalues(narrow, [moments], [0], 0.999)) == 0


def test_pointwise_correct_agrees_with_candidate_procedures():
    # on identical p-values the pointwise corrections make the same
    # decisions as the peak-level ones; only the labels differ.  Under unit
    # sigma a threshold is the marginal quantile of the peak cutoff, and
    # the samples above it are the ones the peak procedure rejects
    rng = np.random.default_rng(42)
    moments = closed_form_moments(GaussianAcvfParams(1.0), 1.0)
    for _ in range(50):
        m = int(rng.integers(1, 25))
        values = rng.uniform(size=m) * 4.0
        cands = CandidateSet(
            np.arange(m), np.arange(m, dtype=float), values,
            clip_pvalues(ndtr(-values)),  # every sample's p-value, under unit sigma
        )
        thresholds = pointwise_correct(
            SampledRows(values[np.newaxis], 1.0, 0.0, [0]), 0.05, [UNIT_MOMENTS], [0],
            [Procedure.POINTWISE_BONFERRONI, Procedure.POINTWISE_BH],
        )
        reports = run_procedure(
            cands, 0.05, [moments], [0], [Procedure.BONFERRONI, Procedure.BH]
        )
        for (threshold,), report in zip(thresholds, reports):
            cutoff = report.pvalue_cutoff[0]
            assert float(threshold).hex() == float(-ndtri(cutoff)).hex()
            above = np.flatnonzero(values > threshold)
            np.testing.assert_array_equal(above, report.rejected.indices)


def test_pointwise_correct_thresholds_and_edges():
    moments = NoiseMoments(sigma2=1.0, lambda2=1.0, lambda4=3.0)
    rows = SampledRows(np.array([[3.0, 1.0, 0.0]]), 1.0, 0.0, [0])
    bon = [Procedure.POINTWISE_BONFERRONI]
    ((threshold,),) = pointwise_correct(rows, 0.05, [moments], [0], bon)
    # the height threshold reproduces the cutoff 0.05 / 3 through the
    # marginal, and only the first sample lies above it
    assert stats.norm.sf(threshold) == pytest.approx(0.05 / 3, rel=1e-9)
    assert 1.0 < threshold < 3.0
    # margins that leave no sample: no hypotheses, so everything would go
    bare = SampledRows(np.zeros((1, 4)), 1.0, 0.0, [2])
    empty = pointwise_correct(bare, 0.05, [moments], [0], [Procedure.POINTWISE_BH])
    assert empty.tolist() == [[-math.inf]]
    # no procedure gives no thresholds, one row of none per procedure
    assert pointwise_correct(rows, 0.05, [moments], [0], []).shape == (0, 1)
    with pytest.raises(ValueError, match="is not a pointwise procedure"):
        pointwise_correct(rows, 0.05, [moments], [0], [Procedure.BONFERRONI])
    with pytest.raises(ValueError, match="sequence of Procedure"):
        pointwise_correct(rows, 0.05, [moments], [0], Procedure.POINTWISE_BH)


def test_height_rule_strict_and_nan_cutoff():
    cands = CandidateSet(
        np.arange(3), np.arange(3.0), np.array([2.0, 3.0, 4.0])
    )
    rep = height_rule_report(cands, np.array([3.0]), 0.05, Procedure.SUPREMUM)
    np.testing.assert_array_equal(rep.rejected.heights, [4.0])  # 3.0 is not strict
    assert math.isnan(rep.pvalue_cutoff[0])
    assert rep.height_threshold[0] == 3.0
    assert rep.num_candidates[0] == 3


_TWO_ROWS = CandidateSet(
    np.array([4, 9, 4]),
    np.array([4.0, 9.0, 4.0]),
    np.array([3.0, 1.0, 2.0]),
    np.array([0.001, 0.5, 0.2]),
    rows=np.array([0, 0, 1]),
)
_ONE_ROW_CALLS = {
    "bonferroni": lambda c: run_procedure(
        c, 0.05, [UNIT_MOMENTS], [0], [Procedure.BONFERRONI]
    ),
    "bh": lambda c: run_procedure(c, 0.05, [UNIT_MOMENTS], [0], [Procedure.BH]),
    "height_rule": lambda c: height_rule_report(
        c, np.array([2.5]), 0.05, Procedure.SUPREMUM
    ),
    # as many rows of samples as the set has rows, and one law index
    "pointwise": lambda c: pointwise_correct(
        SampledRows(np.zeros((c.rows.max() + 1, 12)), 1.0, 0.0, [1] * len(set(c.rows))),
        0.05, [UNIT_MOMENTS], [0], [Procedure.POINTWISE_BONFERRONI],
    ),
    "score_trial": lambda c: score_trial(
        [c.heights > 2.5],
        c,
        [compute_regions(SignalSpec((), 20.0), gaussian_kernel(1.0, 1.0))],
    ),
}


@pytest.mark.parametrize("call", sorted(_ONE_ROW_CALLS))
def test_single_set_call_refuses_a_second_row(call):
    # pointwise_correct takes rows of samples, and counts their law indices
    message = {"pointwise": "1 law indices given for 2 rows"}.get(
        call, "candidates span 2 rows, but 1 per-row"
    )
    with pytest.raises(ValueError, match=message):
        _ONE_ROW_CALLS[call](_TWO_ROWS)
    _ONE_ROW_CALLS[call](_TWO_ROWS.select(_TWO_ROWS.rows == 0))  # one row runs


def test_supremum_less_conservative_than_pointwise_bonferroni():
    # at fine sampling the per-sample correction overshoots the
    # excursion-based threshold
    moments = closed_form_moments(GaussianAcvfParams(1.0), 3.0)
    domain, dt = 1000.0, 0.2
    m = int(domain / dt)
    (sup,) = supremum_threshold([moments], domain, 0.05)
    pw = -moments.sigma * stats.norm.ppf(0.05 / m)
    assert sup < pw


def test_pointwise_and_height_rule_rows_match_single_sequences():
    # every row of a batch is tested and thresholded as the row alone, a
    # batch of one, would be, bit for bit; row 2's margins leave no sample
    rng = np.random.default_rng(21)
    values = rng.normal(size=(3, 40)) + np.array([[0.0], [2.5], [0.0]])
    margins = [2, 5, 20]
    laws, law = [UNIT_MOMENTS, NoiseMoments(2.0, 1.0, 3.0)], [0, 1, 0]
    rows = SampledRows(values, 1.0, 0.0, margins)
    samples = pointwise_pvalues(rows, laws, law, 0.05)
    thresholds = np.array([0.5, 1.5, -1.0])
    heights = height_rule_report(samples, thresholds, 0.05, Procedure.SUPREMUM)
    procedures = [Procedure.POINTWISE_BONFERRONI, Procedure.POINTWISE_BH]
    batch = pointwise_correct(rows, 0.05, laws, law, procedures)
    assert batch.shape == (2, 3)
    for row in range(3):
        seq = SampledRows(values[row][None], 1.0, 0.0, [margins[row]])
        one = pointwise_pvalues(seq, [laws[law[row]]], [0], 0.05)
        got = samples.select(samples.rows == row)
        for name in ("indices", "locations", "heights", "pvalues"):
            assert getattr(got, name).tobytes() == getattr(one, name).tobytes()
        want = pointwise_correct(seq, 0.05, [laws[law[row]]], [0], procedures)
        assert batch[:, row].tobytes() == want[:, 0].tobytes()
        rule = height_rule_report(one, thresholds[row:row + 1], 0.05, Procedure.SUPREMUM)
        chosen = heights.rejected.select(heights.rejected.rows == row)
        np.testing.assert_array_equal(chosen.indices, rule.rejected.indices)
        assert heights.num_candidates[row] == rule.num_candidates[0]
    assert batch[:, 2].tolist() == [-math.inf, -math.inf]


# sigmas that are powers of 2, so a height placed at x * sigma divides back to x
_LAWS = [UNIT_MOMENTS, NoiseMoments(4.0, 1.0, 3.0), NoiseMoments(0.25, 0.1, 3.0)]


def _nearest_heights(alpha, m):
    """Standardized heights whose p-values are the nearest attainable ones
    on either side of alpha and of the last step-up cutoff alpha * m / m,
    found by bisection down to neighbouring doubles.  The normal tail moves
    several ulps per input double near 0.05, so an exact hit is not always
    attainable there."""
    if m == 0:
        return []
    found = []
    for cut in sorted({alpha, alpha * m / m}):
        lo, hi = -ndtri(cut) - 1.0, -ndtri(cut) + 1.0  # p(lo) >= cut > p(hi)
        while np.nextafter(lo, hi) != hi:
            mid = lo + (hi - lo) / 2.0
            lo, hi = (mid, hi) if clip_pvalues(ndtr(-mid)) >= cut else (lo, mid)
        found += [hi, lo]
    return found


@st.composite
def _pointwise_rows(draw):
    """(values, margins, law, alpha): up to 4 rows of one length, some with
    margins that leave no sample, each under the law ``_LAWS[law[row]]``.
    Each row's samples come from its :func:`_nearest_heights`, heights deep
    in either tail (p-values at the floor and the ceiling), and heights
    anywhere."""
    alpha = draw(st.sampled_from([0.05, 0.4, 1e-300, 0.999]) | st.floats(0.001, 0.999))
    n = draw(st.integers(1, 9))
    margins = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    law = draw(st.lists(st.integers(0, len(_LAWS) - 1), min_size=len(margins),
                        max_size=len(margins)))
    values = np.empty((len(margins), n))
    for row, (margin, i) in enumerate(zip(margins, law)):
        pool = _nearest_heights(alpha, max(n - 2 * margin, 0)) + [-40.0, 40.0]
        x = st.sampled_from(pool) | st.floats(-3.0, 40.0)
        values[row] = np.array(draw(st.lists(x, min_size=n, max_size=n))) * _LAWS[i].sigma
    return values, margins, law, alpha


def _pointwise_reference(values, margins, law, alpha, procedure):
    """Per row: the p-value of every interior sample, corrected by the
    full step-up table.  Returns each row's height threshold, and the
    samples with p below alpha * m / m as (row, index, p-value)."""
    n = values.shape[1]
    thresholds, rejectable = [], []
    for row, (v, margin, i) in enumerate(zip(values, margins, law)):
        sigma = _LAWS[i].sigma
        index = np.arange(margin, n - margin)
        p = clip_pvalues(ndtr(-v[index] / sigma))
        m = index.size
        j = np.arange(1, m + 1)
        k = int(np.max((np.sort(p) < alpha * j / m) * j, initial=0))
        if m == 0:
            cutoff = 1.0
        elif procedure is Procedure.POINTWISE_BONFERRONI:
            cutoff = alpha / m
        else:
            cutoff = k * alpha / m if k else 0.0
        thresholds.append(-sigma * ndtri(cutoff))
        rejectable += [(row, j, q) for j, q in zip(index, p) if q < alpha * m / max(m, 1)]
    return np.array(thresholds, dtype=np.float64), rejectable


def _entries(cands):
    return list(zip(cands.rows.tolist(), cands.indices.tolist(), cands.pvalues.tolist()))


def _at_the_cutoff(alpha):
    """One row of m = 3 heights: p just below alpha, then p at or just
    above it, twice; all three lie below alpha * 3 / 3 when that rounds
    above alpha and such a p-value is attainable, as at alpha = 0.4."""
    return np.array([_nearest_heights(alpha, 3)[:3]])


@settings(max_examples=150)
@given(_pointwise_rows())
# alpha * 3 / 3 rounds above alpha: p-values nearest both (at 0.4, BH
# rejects all three samples at step 3), then rows at the floor and empty
@example((_at_the_cutoff(0.05), [0], [0], 0.05))
@example((_at_the_cutoff(0.4), [0], [0], 0.4))
@example((
    np.vstack([_at_the_cutoff(0.05), [[100.0] * 3] * 2]), [0, 0, 2], [0, 1, 2], 1e-300
))
def test_pointwise_correct_matches_every_sample_corrected(case):
    # each row's threshold, bit for bit, against the p-value of every
    # interior sample and the full step-up table
    values, margins, law, alpha = case
    rows = SampledRows(values, 0.5, -1.25, margins)
    procedures = [Procedure.POINTWISE_BONFERRONI, Procedure.POINTWISE_BH]
    thresholds = pointwise_correct(rows, alpha, _LAWS, law, procedures)
    assert thresholds.shape == (2, len(margins))
    for procedure, got in zip(procedures, thresholds):
        want, rejectable = _pointwise_reference(values, margins, law, alpha, procedure)
        assert got.tobytes() == want.tobytes()
    samples = pointwise_pvalues(rows, _LAWS, law, alpha)
    assert _entries(samples) == rejectable
    assert samples.locations.tobytes() == (-1.25 + 0.5 * samples.indices).tobytes()
    assert samples.heights.tobytes() == values[samples.rows, samples.indices].tobytes()
