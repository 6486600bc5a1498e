"""Bonferroni and step-up corrections checked against brute force."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stem1d import (
    CandidateSet,
    GaussianAcvfParams,
    PalmParams,
    Procedure,
    asymptotic_thresholds,
    benjamini_hochberg,
    bonferroni,
    closed_form_moments,
    expected_maxima_density,
    palm_quantile,
    palm_survival,
)
from stem1d.multitest import run_procedure

PARAMS = PalmParams(closed_form_moments(GaussianAcvfParams(1.0), 1.0))


def _cands(pvalues):
    p = np.asarray(pvalues, dtype=np.float64)
    n = p.size
    # heights consistent with the p-values so threshold checks line up,
    # solved in one batch
    heights = palm_quantile([PARAMS] * n, p)
    return CandidateSet(np.arange(n), np.arange(n, dtype=np.float64), heights, p)


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
    rep = bonferroni(_cands([0.001, 0.012, 0.6]), alpha=0.05, params=PARAMS)
    assert rep.num_candidates == 3
    assert rep.pvalue_cutoff == pytest.approx(0.05 / 3)
    assert rep.num_rejected == 2
    assert rep.step_index == 0
    np.testing.assert_array_equal(rep.rejected.indices, [0, 1])
    # the height threshold is the quantile of the cutoff
    assert palm_survival(PARAMS, rep.height_threshold) == pytest.approx(
        rep.pvalue_cutoff, rel=1e-9
    )
    assert np.all(rep.rejected.heights > rep.height_threshold)


def test_bh_step_up_textbook_case():
    p = [0.001, 0.008, 0.035, 0.039, 0.6]
    rep = benjamini_hochberg(_cands(p), alpha=0.05, params=PARAMS)
    # steps i alpha/m are .01, .02, .03, .04, .05; step 3 fails
    # (0.035 > 0.03) but step 4 passes, so the step-up keeps all four
    assert rep.step_index == 4
    assert rep.pvalue_cutoff == pytest.approx(4 * 0.05 / 5)
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
        rep = benjamini_hochberg(_cands(p), alpha=alpha, params=PARAMS)
        k = _bh_brute_force(p, alpha)
        assert rep.step_index == k
        want = int(np.sum(p < k * alpha / m)) if k else 0
        assert rep.num_rejected == want


def test_bonferroni_never_beats_bh():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = rng.uniform(size=int(rng.integers(1, 40))) ** 2
        cands = _cands(p)
        bon = bonferroni(cands, 0.05, PARAMS)
        bh = benjamini_hochberg(cands, 0.05, PARAMS)
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
        small = run_procedure(cands, alpha, PARAMS, procedure)
        large = run_procedure(cands, min(alpha * factor, 0.999), PARAMS, procedure)
        assert set(small.rejected.indices) <= set(large.rejected.indices)


def test_order_invariance():
    p = [0.03, 0.001, 0.2, 0.012, 0.9]
    forward = benjamini_hochberg(_cands(p), 0.05, PARAMS)
    backward = benjamini_hochberg(_cands(p[::-1]), 0.05, PARAMS)
    assert forward.num_rejected == backward.num_rejected
    assert forward.pvalue_cutoff == backward.pvalue_cutoff
    np.testing.assert_allclose(
        np.sort(forward.rejected.pvalues), np.sort(backward.rejected.pvalues)
    )


def test_empty_candidate_set():
    for fn, proc in ((bonferroni, Procedure.BONFERRONI), (benjamini_hochberg, Procedure.BH)):
        rep = fn(CandidateSet.empty(), 0.05, PARAMS)
        assert rep.procedure is proc
        assert rep.num_candidates == 0
        assert rep.num_rejected == 0
        assert rep.pvalue_cutoff == 1.0
        assert rep.height_threshold == -math.inf


def test_bh_rejecting_nothing():
    rep = benjamini_hochberg(_cands([0.5, 0.8, 0.9]), 0.05, PARAMS)
    assert rep.step_index == 0
    assert rep.pvalue_cutoff == 0.0
    assert rep.height_threshold == math.inf
    assert rep.num_rejected == 0


def test_strict_inequality_at_cutoff():
    # a p-value exactly at alpha/m is not rejected
    rep = bonferroni(_cands([0.05 / 2, 0.9]), alpha=0.05, params=PARAMS)
    assert rep.num_rejected == 0


def test_run_procedure_dispatch():
    cands = _cands([0.001])
    assert run_procedure(cands, 0.05, PARAMS, Procedure.BONFERRONI).procedure is (
        Procedure.BONFERRONI
    )
    assert run_procedure(cands, 0.05, PARAMS, Procedure.BH).procedure is Procedure.BH
    with pytest.raises(ValueError):
        run_procedure(cands, 0.05, PARAMS, Procedure.SUPREMUM)


def test_report_serialization():
    rep = benjamini_hochberg(_cands([0.001, 0.7]), 0.05, PARAMS)
    data = json.loads(rep.to_json())
    assert data["procedure"] == "bh"
    assert data["num_candidates"] == 2
    assert data["num_rejected"] == 1
    assert len(data["rejected"]) == 1
    assert data["rejected"][0]["pvalue"] == pytest.approx(0.001)
    lines = rep.rejected_csv_lines()
    assert lines[0] == "index,time,height,pvalue"
    assert len(lines) == 2
    # infinities serialize as strings, not as invalid JSON tokens
    empty = benjamini_hochberg(_cands([0.9]), 0.05, PARAMS)
    assert json.loads(empty.to_json())["height_threshold"] == "inf"


def test_asymptotic_thresholds():
    density = expected_maxima_density(PARAMS.moments)
    thr = asymptotic_thresholds(0.05, peak_rate=0.01, maxima_density=density, params=PARAMS)
    want_bh = 0.05 * 0.01 / (0.01 + density * 0.95)
    assert palm_survival(PARAMS, thr.bh) == pytest.approx(want_bh, rel=1e-9)
    # Bonferroni keeps climbing with the domain, BH does not move
    lengths = [1e2, 1e3, 1e4, 1e5]
    bons = [thr.bonferroni_for_length(L) for L in lengths]
    assert all(b2 > b1 for b1, b2 in zip(bons, bons[1:]))
    assert all(b > thr.bh for b in bons)
    with pytest.raises(ValueError):
        thr.bonferroni_for_length(0.0)
    with pytest.raises(ValueError):
        asymptotic_thresholds(0.05, peak_rate=0.0, maxima_density=density, params=PARAMS)


def test_missing_pvalues_rejected():
    naked = CandidateSet(np.array([0]), np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        bonferroni(naked, 0.05, PARAMS)


WIDE = PalmParams(closed_form_moments(GaussianAcvfParams(2.0, 1.0), 3.0))


def _assert_same_report(got, want):
    assert got.procedure is want.procedure
    assert got.alpha == want.alpha
    assert float.hex(got.pvalue_cutoff) == float.hex(want.pvalue_cutoff)
    assert float.hex(got.height_threshold) == float.hex(want.height_threshold)
    assert got.num_candidates == want.num_candidates
    assert got.step_index == want.step_index
    for name in ("indices", "locations", "heights", "pvalues"):
        np.testing.assert_array_equal(
            getattr(got.rejected, name), getattr(want.rejected, name)
        )


@PROPERTY
@given(st.lists(PVALUES, max_size=6), st.floats(0.001, 0.5))
def test_list_call_matches_single_set_calls(pvalue_lists, alpha):
    # every list also holds an empty set (m = 0) and one on which BH
    # rejects nothing (k = 0), and alternates two sets of moments
    cands = [_cands_with_pvalues(p) for p in pvalue_lists]
    cands += [CandidateSet.empty(), _cands_with_pvalues([0.5, 0.8, 0.9])]
    params = [(PARAMS, WIDE)[i % 2] for i in range(len(cands))]
    for procedure in (Procedure.BONFERRONI, Procedure.BH):
        reports = run_procedure(cands, alpha, params, procedure)
        assert len(reports) == len(cands)
        for c, p, report in zip(cands, params, reports):
            _assert_same_report(report, run_procedure(c, alpha, p, procedure))
    assert reports[-1].step_index == 0 and reports[-2].num_candidates == 0
