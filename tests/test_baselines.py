"""Pointwise and supremum baselines."""

import math

import numpy as np
import pytest
from scipy import stats

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
    samples = pointwise_pvalues(seq, [moments])
    np.testing.assert_array_equal(samples.indices, [1, 2, 3])
    np.testing.assert_allclose(
        samples.pvalues, stats.norm.sf(np.array([0.0, 2.0, -2.0]) / 2.0), rtol=1e-12
    )
    narrow = SampledRows(np.zeros((1, 4)), 1.0, 0.0, [2])
    assert len(pointwise_pvalues(narrow, [moments])) == 0


def test_pointwise_correct_agrees_with_candidate_procedures():
    # on identical p-values the pointwise corrections make the same
    # decisions as the peak-level ones; only the labels differ
    rng = np.random.default_rng(42)
    moments = closed_form_moments(GaussianAcvfParams(1.0), 1.0)
    for _ in range(50):
        m = int(rng.integers(1, 25))
        p = rng.uniform(size=m) ** 3
        cands = CandidateSet(
            np.arange(m), np.arange(m, dtype=float), rng.standard_normal(m), p
        )
        pw_bon = pointwise_correct(
            cands, 0.05, Procedure.POINTWISE_BONFERRONI, [UNIT_MOMENTS]
        )
        pw_bh = pointwise_correct(cands, 0.05, Procedure.POINTWISE_BH, [UNIT_MOMENTS])
        bon, bh = run_procedure(
            cands, 0.05, [moments], [0], [Procedure.BONFERRONI, Procedure.BH]
        )
        assert pw_bon.pvalue_cutoff[0] == bon.pvalue_cutoff[0]
        assert pw_bh.step_index[0] == bh.step_index[0]
        assert pw_bh.num_rejected == bh.num_rejected
        np.testing.assert_array_equal(pw_bh.rejected.indices, bh.rejected.indices)


def test_pointwise_correct_thresholds_and_edges():
    moments = NoiseMoments(sigma2=1.0, lambda2=1.0, lambda4=3.0)
    cands = CandidateSet(
        np.arange(3), np.arange(3.0), np.array([3.0, 1.0, 0.0]),
        np.array([0.001, 0.2, 0.5]),
    )
    rep = pointwise_correct(cands, 0.05, Procedure.POINTWISE_BONFERRONI, [moments])
    assert rep.pvalue_cutoff == pytest.approx([0.05 / 3])
    # the reported height threshold reproduces the cutoff through the marginal
    assert stats.norm.sf(rep.height_threshold) == pytest.approx(
        rep.pvalue_cutoff, rel=1e-9
    )
    empty = pointwise_correct(
        CandidateSet.empty(), 0.05, Procedure.POINTWISE_BH, [moments]
    )
    assert empty.pvalue_cutoff[0] == 1.0
    assert empty.height_threshold[0] == -math.inf
    with pytest.raises(ValueError):
        pointwise_correct(cands, 0.05, Procedure.BONFERRONI, [moments])
    naked = CandidateSet(np.array([0]), np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        pointwise_correct(naked, 0.05, Procedure.POINTWISE_BONFERRONI, [moments])


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
    "pointwise": lambda c: pointwise_correct(
        c, 0.05, Procedure.POINTWISE_BONFERRONI, [UNIT_MOMENTS]
    ),
    "score_trial": lambda c: score_trial(
        [height_rule_report(
            c.select(c.rows == 0), np.array([2.5]), 0.05, Procedure.SUPREMUM
        )],
        c,
        [compute_regions(SignalSpec((), 20.0), gaussian_kernel(1.0, 1.0))],
    ),
}


@pytest.mark.parametrize("call", sorted(_ONE_ROW_CALLS))
def test_single_set_call_refuses_a_second_row(call):
    with pytest.raises(ValueError, match="candidates span 2 rows, but 1 per-row"):
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
    # every row of a batch is tested, corrected and thresholded as the
    # row alone, a batch of one, would be, bit for bit; row 2's margins
    # leave no sample
    rng = np.random.default_rng(21)
    values = rng.normal(size=(3, 40)) + np.array([[0.0], [2.5], [0.0]])
    margins = [2, 5, 20]
    moments = [UNIT_MOMENTS, NoiseMoments(2.0, 1.0, 3.0), UNIT_MOMENTS]
    samples = pointwise_pvalues(SampledRows(values, 1.0, 0.0, margins), moments)
    thresholds = np.array([0.5, 1.5, -1.0])
    heights = height_rule_report(samples, thresholds, 0.05, Procedure.SUPREMUM)
    for procedure in (Procedure.POINTWISE_BONFERRONI, Procedure.POINTWISE_BH):
        batch = pointwise_correct(samples, 0.05, procedure, moments)
        for row in range(3):
            seq = SampledRows(values[row][None], 1.0, 0.0, [margins[row]])
            one = pointwise_pvalues(seq, [moments[row]])
            got = samples.select(samples.rows == row)
            for name in ("indices", "locations", "heights", "pvalues"):
                assert getattr(got, name).tobytes() == getattr(one, name).tobytes()
            want = pointwise_correct(one, 0.05, procedure, [moments[row]])
            assert float(batch.pvalue_cutoff[row]).hex() == (
                float(want.pvalue_cutoff[0]).hex()
            )
            assert batch.height_threshold[row] == want.height_threshold[0]
            assert batch.step_index[row] == want.step_index[0]
            assert batch.num_candidates[row] == want.num_candidates[0]
            rejected = batch.rejected.select(batch.rejected.rows == row)
            np.testing.assert_array_equal(rejected.indices, want.rejected.indices)
            rule = height_rule_report(
                one, thresholds[row:row + 1], 0.05, Procedure.SUPREMUM
            )
            chosen = heights.rejected.select(heights.rejected.rows == row)
            np.testing.assert_array_equal(chosen.indices, rule.rejected.indices)
            assert heights.num_candidates[row] == rule.num_candidates[0]
    assert batch.num_candidates[2] == 0 and batch.pvalue_cutoff[2] == 1.0
