"""Bonferroni and step-up corrections checked against brute force."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stem1d import (
    CandidateSet,
    DetectionReport,
    GaussianAcvfParams,
    Procedure,
    SampledRows,
    SignalSpec,
    asymptotic_thresholds,
    closed_form_moments,
    compute_regions,
    expected_maxima_density,
    gaussian_kernel,
    height_rule_report,
    palm_quantile,
    palm_survival,
    pointwise_correct,
    pointwise_pvalues,
    run_procedure,
    score_trial,
    supremum_threshold,
)
from stem1d.errors import ConfigurationError

MOMENTS = closed_form_moments(GaussianAcvfParams(1.0), 1.0)
BON, BH = Procedure.BONFERRONI, Procedure.BH


def _cands(pvalues):
    p = np.asarray(pvalues, dtype=np.float64)
    n = p.size
    # heights consistent with the p-values so threshold checks line up,
    # solved in one batch
    heights = palm_quantile([MOMENTS], 0, p)
    return CandidateSet(np.arange(n), np.arange(n, dtype=np.float64), heights, p)


def _run(cands, alpha, procedure):
    """The report of one procedure on a one-row set under MOMENTS."""
    (report,) = run_procedure(cands, alpha, [MOMENTS], [0], [procedure])
    return report


def _bh_brute_force(p, alpha):
    """Largest rejection set of the form {p <= p_(i)} with p_(i) <= i a / m."""
    p = np.sort(np.asarray(p))
    m = p.size
    k = 0
    for i in range(1, m + 1):
        if p[i - 1] < i * alpha / m:
            k = i
    return k


def test_bonferroni_small_cases():
    rep = _run(_cands([0.001, 0.012, 0.6]), 0.05, BON)
    assert rep.num_candidates[0] == 3
    assert rep.pvalue_cutoff[0] == pytest.approx(0.05 / 3)
    assert rep.num_rejected == 2
    assert rep.step_index[0] == 0
    np.testing.assert_array_equal(rep.rejected.indices, [0, 1])
    # the height threshold is the quantile of the cutoff
    assert palm_survival([MOMENTS], 0, rep.height_threshold[0]) == pytest.approx(
        rep.pvalue_cutoff[0], rel=1e-9
    )
    assert np.all(rep.rejected.heights > rep.height_threshold[0])


def test_bh_step_up_textbook_case():
    p = [0.001, 0.008, 0.035, 0.039, 0.6]
    rep = _run(_cands(p), 0.05, BH)
    # steps i alpha/m are .01, .02, .03, .04, .05; step 3 fails
    # (0.035 > 0.03) but step 4 passes, so the step-up keeps all four
    assert rep.step_index[0] == 4
    assert rep.pvalue_cutoff[0] == pytest.approx(4 * 0.05 / 5)
    assert rep.num_rejected == 4


def test_bh_matches_brute_force_enumeration():
    rng = np.random.default_rng(123)
    for _ in range(400):
        m = int(rng.integers(1, 30))
        mode = rng.integers(0, 3)
        if mode == 0:
            p = rng.uniform(size=m)
        elif mode == 1:
            p = rng.uniform(size=m) ** 4  # many small values
        else:
            p = np.clip(rng.uniform(size=m) * 0.08, 1e-12, 1)  # near the cutoffs
        alpha = float(rng.uniform(0.01, 0.2))
        rep = _run(_cands(p), alpha, BH)
        k = _bh_brute_force(p, alpha)
        assert rep.step_index[0] == k
        want = int(np.sum(p < k * alpha / m)) if k else 0
        assert rep.num_rejected == want


def test_bonferroni_never_beats_bh():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = rng.uniform(size=int(rng.integers(1, 40))) ** 2
        cands = _cands(p)
        bon = _run(cands, 0.05, BON)
        bh = _run(cands, 0.05, BH)
        assert bon.num_rejected <= bh.num_rejected
        assert set(bon.rejected.indices) <= set(bh.rejected.indices)


def _cands_with_pvalues(pvalues):
    """Candidates carrying ``pvalues``, with placeholder heights (the
    corrections read only the p-values)."""
    p = np.asarray(pvalues, dtype=np.float64)
    n = p.size
    return CandidateSet(np.arange(n), np.arange(n, dtype=np.float64), np.zeros(n), p)


PROPERTY = settings(max_examples=200)

# p-value lists strictly inside (0, 1), from 1e-12 up, with many small
# values so both procedures reject something in most examples
# (test_bonferroni_never_beats_bh already checks BH against Bonferroni)
PVALUES = st.lists(
    st.floats(0.0, 12.0).map(lambda d: 10.0 ** -d).filter(lambda p: p < 1.0),
    min_size=1,
    max_size=40,
)


@PROPERTY
@given(PVALUES, st.floats(0.001, 0.5), st.floats(1.0, 2.0))
def test_rejected_set_grows_with_alpha(p, alpha, factor):
    cands = _cands_with_pvalues(p)
    for procedure in (Procedure.BONFERRONI, Procedure.BH):
        small = _run(cands, alpha, procedure)
        large = _run(cands, min(alpha * factor, 0.999), procedure)
        assert set(small.rejected.indices) <= set(large.rejected.indices)


def test_order_invariance():
    p = [0.03, 0.001, 0.2, 0.012, 0.9]
    forward = _run(_cands(p), 0.05, BH)
    backward = _run(_cands(p[::-1]), 0.05, BH)
    assert forward.num_rejected == backward.num_rejected
    assert forward.pvalue_cutoff[0] == backward.pvalue_cutoff[0]
    np.testing.assert_allclose(
        np.sort(forward.rejected.pvalues), np.sort(backward.rejected.pvalues)
    )


def test_empty_candidate_set():
    for proc in (Procedure.BONFERRONI, Procedure.BH):
        rep = _run(CandidateSet.empty(), 0.05, proc)
        assert rep.procedure is proc
        assert rep.num_candidates[0] == 0
        assert rep.num_rejected == 0
        assert rep.pvalue_cutoff[0] == 1.0
        assert rep.height_threshold[0] == -math.inf


def test_bh_rejecting_nothing():
    rep = _run(_cands([0.5, 0.8, 0.9]), 0.05, BH)
    assert rep.step_index[0] == 0
    assert rep.pvalue_cutoff[0] == 0.0
    assert rep.height_threshold[0] == math.inf
    assert rep.num_rejected == 0


def test_strict_inequality_at_cutoff():
    # a p-value exactly at alpha/m is not rejected
    rep = _run(_cands([0.05 / 2, 0.9]), 0.05, BON)
    assert rep.num_rejected == 0


def test_run_procedure_dispatch():
    cands = _cands([0.001])
    assert _run(cands, 0.05, Procedure.BONFERRONI).procedure is (
        Procedure.BONFERRONI
    )
    assert _run(cands, 0.05, Procedure.BH).procedure is Procedure.BH
    with pytest.raises(ValueError):
        _run(cands, 0.05, Procedure.SUPREMUM)


def test_report_serialization():
    rep = _run(_cands([0.001, 0.7]), 0.05, BH)
    data = json.loads(json.dumps(rep.to_json_dict(), allow_nan=False))
    assert data["procedure"] == "bh"
    assert data["num_candidates"] == 2
    assert data["num_rejected"] == 1
    assert len(data["rejected"]) == 1
    assert data["rejected"][0]["pvalue"] == pytest.approx(0.001)
    lines = rep.rejected_csv_lines()
    assert lines[0] == "index,time,height,pvalue"
    assert len(lines) == 2
    # infinities serialize as strings, not as invalid JSON tokens
    empty = _run(_cands([0.9]), 0.05, BH)
    assert json.loads(json.dumps(empty.to_json_dict(), allow_nan=False))[
        "height_threshold"
    ] == "inf"


def test_asymptotic_thresholds():
    density = expected_maxima_density(MOMENTS)
    bh, bonferroni_for_length = asymptotic_thresholds(0.05, 0.01, MOMENTS)
    want_bh = 0.05 * 0.01 / (0.01 + density * 0.95)
    assert palm_survival([MOMENTS], 0, bh) == pytest.approx(want_bh, rel=1e-9)
    # Bonferroni keeps climbing with the domain, BH does not move
    lengths = [1e2, 1e3, 1e4, 1e5]
    bons = [bonferroni_for_length(L) for L in lengths]
    assert all(b2 > b1 for b1, b2 in zip(bons, bons[1:]))
    assert all(b > bh for b in bons)
    with pytest.raises(ValueError):
        bonferroni_for_length(0.0)
    with pytest.raises(ValueError):
        asymptotic_thresholds(0.05, peak_rate=0.0, moments=MOMENTS)


def test_missing_pvalues_rejected():
    naked = CandidateSet(np.array([0]), np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        _run(naked, 0.05, BON)


def test_batch_refuses_one_bare_noise_moments():
    cands = _cands([0.01, 0.2])
    # the laws come as a sequence, with one law index per row and a
    # sequence of procedures
    with pytest.raises(ValueError, match="sequence of NoiseMoments"):
        run_procedure(cands, 0.05, MOMENTS, [0], [BH])
    with pytest.raises(ValueError, match="one law index per row"):
        run_procedure(cands, 0.05, [MOMENTS], 0, [BH])
    with pytest.raises(ValueError, match="sequence of Procedure"):
        run_procedure(cands, 0.05, [MOMENTS], [0], BH)
    with pytest.raises(ValueError, match=r"law indices must be integers in \[0, 1\)"):
        run_procedure(cands, 0.05, [MOMENTS], [1], [BH])
    # a set of no rows gives a report of no rows
    (none,) = run_procedure(CandidateSet.empty(), 0.05, [MOMENTS], [], [BH])
    assert none.num_candidates.shape == none.height_threshold.shape == (0,)
    rows = SampledRows(np.zeros((1, 5)), 1.0, 0.0, [1])
    with pytest.raises(ValueError, match="one NoiseMoments per row"):
        pointwise_pvalues(rows, MOMENTS)
    with pytest.raises(ValueError, match="one NoiseMoments per row"):
        pointwise_correct(cands, 0.05, Procedure.POINTWISE_BH, MOMENTS)
    with pytest.raises(ValueError, match="one NoiseMoments per row"):
        supremum_threshold(MOMENTS, 100.0, 0.05)
    # the other rows-only entries refuse a lone threshold, report or region set
    with pytest.raises(ValueError, match="one height threshold per row"):
        height_rule_report(cands, 1.0, 0.05, Procedure.SUPREMUM)
    report = height_rule_report(cands, np.array([1.0]), 0.05, Procedure.SUPREMUM)
    regions = compute_regions(SignalSpec((), 20.0), gaussian_kernel(1.0, 1.0))
    with pytest.raises(ValueError, match="one DetectionReport per row"):
        score_trial(report, cands, [regions])
    with pytest.raises(ValueError, match="one RegionSet per row"):
        score_trial([report], cands, regions)


@pytest.mark.parametrize("procedure", [BON, BH])
def test_underflowing_alpha_over_m_raises(procedure):
    cands = _cands([1e-310, 0.2, 0.5])
    message = r"^alpha / m underflows: alpha=5e-324, m=3$"
    with pytest.raises(ConfigurationError, match=message):
        _run(cands, 5e-324, procedure)
    # alpha / m at the smallest normal double still runs, as does no candidate
    tiny = np.finfo(np.float64).tiny
    report = _run(cands, 3 * tiny, procedure)
    assert report.pvalue_cutoff[0] == tiny and report.num_rejected == 1
    empty = _run(CandidateSet.empty(), 5e-324, procedure)
    assert empty.pvalue_cutoff[0] == 1.0


WIDE = closed_form_moments(GaussianAcvfParams(2.0, 1.0), 3.0)


@PROPERTY
@given(st.lists(PVALUES, max_size=6), st.floats(0.001, 0.5))
def test_multi_row_call_matches_single_set_calls(pvalue_lists, alpha):
    # every batch also holds an empty row (m = 0) and one on which BH
    # rejects nothing (k = 0), and alternates two sets of moments; the
    # rows are handed over shuffled, in one set
    cands = [_cands_with_pvalues(p) for p in pvalue_lists]
    cands += [CandidateSet.empty(), _cands_with_pvalues([0.5, 0.8, 0.9])]
    law = [i % 2 for i in range(len(cands))]
    fields = [
        np.concatenate([getattr(c, name) for c in cands])
        for name in ("indices", "locations", "heights", "pvalues")
    ]
    rows = np.repeat(np.arange(len(cands)), [len(c) for c in cands])
    order = np.random.default_rng(len(rows)).permutation(len(rows))
    batch = CandidateSet(*(f[order] for f in fields), rows=rows[order])
    procedures = (Procedure.BONFERRONI, Procedure.BH)
    batch_reports = run_procedure(batch, alpha, [MOMENTS, WIDE], law, procedures)
    for procedure, got in zip(procedures, batch_reports):
        assert got.procedure is procedure and got.alpha == alpha
        np.testing.assert_array_equal(got.num_candidates, [len(c) for c in cands])
        for row, (c, index) in enumerate(zip(cands, law)):
            (want,) = run_procedure(c, alpha, [(MOMENTS, WIDE)[index]], [0], [procedure])
            assert got.pvalue_cutoff[row].hex() == want.pvalue_cutoff[0].hex()
            assert got.height_threshold[row].hex() == want.height_threshold[0].hex()
            assert got.step_index[row] == want.step_index[0]
            rejected = got.rejected.select(got.rejected.rows == row)
            for name in ("indices", "locations", "heights", "pvalues"):
                np.testing.assert_array_equal(
                    getattr(rejected, name), getattr(want.rejected, name)
                )
    assert got.step_index[-1] == 0 and got.num_candidates[-2] == 0


def test_multi_row_report_writes_each_row_as_its_one_row_report():
    # two rows of one BH batch, each written on its own: the JSON and the
    # CSV of a row are those of the row's one-row report
    rng = np.random.default_rng(11)
    p = [rng.uniform(size=30) ** 3, rng.uniform(size=20) ** 2]
    singles = [_cands(x) for x in p]
    fields = [
        np.concatenate([getattr(c, name) for c in singles])
        for name in ("indices", "locations", "heights", "pvalues")
    ]
    rows = np.repeat([0, 1], [len(c) for c in singles])
    (batch,) = run_procedure(
        CandidateSet(*fields, rows=rows), 0.05, [MOMENTS], [0, 0], [BH]
    )
    for row, single in enumerate(singles):
        want = _run(single, 0.05, BH)
        assert want.num_rejected > 0
        assert batch.to_json_dict(row) == want.to_json_dict()
        assert batch.rejected_csv_lines(row) == want.rejected_csv_lines()
    for write in (batch.to_json_dict, batch.rejected_csv_lines):
        with pytest.raises(ValueError, match="the report has 2 rows"):
            write()
        for row in (2, -1):
            with pytest.raises(ValueError, match=f"row {row} is outside"):
                write(row)
    # a report holds arrays only, all of one length
    empty = CandidateSet.empty()
    for numbers in ((1.0, math.inf, 0, 0), ([1.0], [math.inf], [0], [0, 0])):
        with pytest.raises(ValueError, match="1-D arrays, one entry per row"):
            DetectionReport(BH, 0.05, empty, *map(np.array, numbers))
