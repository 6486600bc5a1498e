"""Local-maxima extraction and the end-to-end detection pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stem1d import (
    GaussianAcvfParams,
    Procedure,
    SampledSequence,
    auto_bandwidth,
    closed_form_moments,
    find_local_maxima,
    gaussian_kernel,
    stem_detect,
)
from stem1d.errors import ConfigurationError, DegenerateSequenceError


def _seq(values, dt=1.0, margin=0):
    return SampledSequence(np.asarray(values, dtype=float), dt=dt, margin=margin)


def test_find_local_maxima_strict():
    cands = find_local_maxima(_seq([1.0, 3.0, 2.0, 5.0, 4.0]))
    np.testing.assert_array_equal(cands.indices, [1, 3])
    np.testing.assert_array_equal(cands.heights, [3.0, 5.0])
    np.testing.assert_array_equal(cands.locations, [1.0, 3.0])


def test_plateaus_are_not_maxima():
    assert len(find_local_maxima(_seq([0.0, 2.0, 2.0, 0.0]))) == 0
    cands = find_local_maxima(_seq([0.0, 2.0, 2.0, 3.0, 0.0]))
    np.testing.assert_array_equal(cands.indices, [3])
    assert len(find_local_maxima(_seq([1.0, 1.0, 1.0]))) == 0


def test_endpoints_never_qualify():
    cands = find_local_maxima(_seq([9.0, 1.0, 4.0, 1.0]))
    np.testing.assert_array_equal(cands.indices, [2])  # the 9.0 is at the edge
    assert len(find_local_maxima(_seq([5.0, 1.0]))) == 0


def test_margin_excludes_but_neighbours_participate():
    values = [0.0, 9.0, 0.0, 0.0, 4.0, 0.0, 0.0, 8.0, 0.0]
    no_margin = find_local_maxima(_seq(values))
    np.testing.assert_array_equal(no_margin.indices, [1, 4, 7])
    trimmed = find_local_maxima(_seq(values, margin=2))
    np.testing.assert_array_equal(trimmed.indices, [4])
    # explicit margin overrides the sequence's own
    wide = find_local_maxima(_seq(values, margin=2), margin=0)
    np.testing.assert_array_equal(wide.indices, [1, 4, 7])
    with pytest.raises(ValueError):
        find_local_maxima(_seq(values), margin=-1)
    assert len(find_local_maxima(_seq(values), margin=5)) == 0


def test_time_grid_respected():
    seq = SampledSequence([0.0, 1.0, 0.0, 2.0, 0.0], dt=0.5, t0=10.0)
    cands = find_local_maxima(seq)
    np.testing.assert_allclose(cands.locations, [10.5, 11.5])


def _spike_train(positions, n=400, dt=1.0):
    values = np.zeros(n)
    for p in positions:
        values[p] = 1.0
    return SampledSequence(values, dt=dt)


def test_stem_detect_finds_a_lone_spike():
    raw = _spike_train([200])
    kernel = gaussian_kernel(3.0, 1.0)
    moments = closed_form_moments(GaussianAcvfParams(sigma=0.01), 3.0)
    res = stem_detect(raw, kernel, moments, Procedure.BONFERRONI, alpha=0.05)
    assert res.report.num_rejected == 1
    assert res.report.rejected.indices[0] == 200
    assert res.smoothed.margin == kernel.half_support_samples
    assert res.candidates.pvalues is not None


def test_stem_detect_alpha_controls_rejection():
    # a bump at 3.5 noise sd clears alpha = 0.05 but not a tiny alpha
    raw = SampledSequence(0.08 * _spike_train([200]).values, dt=1.0)
    kernel = gaussian_kernel(3.0, 1.0)
    moments = closed_form_moments(GaussianAcvfParams(sigma=0.01), 3.0)
    loose = stem_detect(raw, kernel, moments, Procedure.BONFERRONI, alpha=0.05)
    strict = stem_detect(raw, kernel, moments, Procedure.BONFERRONI, alpha=1e-12)
    assert loose.report.num_rejected == 1
    assert strict.report.num_rejected == 0
    assert strict.report.num_candidates == loose.report.num_candidates


def test_stem_detect_scale_equivariance():
    rng = np.random.default_rng(3)
    noise = rng.standard_normal(600) * 0.05
    values = noise.copy()
    values[300] += 1.0
    raw = SampledSequence(values, dt=1.0)
    doubled = SampledSequence(2.0 * values, dt=1.0)
    kernel = gaussian_kernel(4.0, 1.0)
    moments = closed_form_moments(GaussianAcvfParams(sigma=0.05), 4.0)
    a = stem_detect(raw, kernel, moments, Procedure.BH)
    b = stem_detect(doubled, kernel, moments.scaled(2.0), Procedure.BH)
    np.testing.assert_array_equal(a.report.rejected.indices, b.report.rejected.indices)
    np.testing.assert_allclose(
        a.candidates.pvalues, b.candidates.pvalues, rtol=1e-9
    )


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.floats(-1e4, 1e4), st.sampled_from([Procedure.BONFERRONI, Procedure.BH]))
def test_stem_detect_invariant_to_time_shift(t0, procedure):
    rng = np.random.default_rng(5)
    values = rng.standard_normal(400) * 0.05
    values[[100, 250]] += 1.0
    kernel = gaussian_kernel(3.0, 0.5)
    moments = closed_form_moments(GaussianAcvfParams(sigma=0.05), 3.0)
    base = stem_detect(SampledSequence(values, dt=0.5), kernel, moments, procedure)
    shifted = stem_detect(
        SampledSequence(values, dt=0.5, t0=t0), kernel, moments, procedure
    )
    for field in ("indices", "heights", "pvalues"):
        np.testing.assert_array_equal(
            getattr(shifted.candidates, field), getattr(base.candidates, field)
        )
    np.testing.assert_array_equal(
        shifted.report.rejected.indices, base.report.rejected.indices
    )
    assert shifted.report.height_threshold == base.report.height_threshold
    np.testing.assert_allclose(
        shifted.candidates.locations, base.candidates.locations + t0, atol=1e-9
    )


def test_stem_detect_excludes_boundary_bumps():
    # a spike inside the kernel's reach of the edge never becomes a candidate
    kernel = gaussian_kernel(5.0, 1.0)  # 15-sample half support
    raw = _spike_train([7, 100], n=200)
    moments = closed_form_moments(GaussianAcvfParams(sigma=0.01), 5.0)
    res = stem_detect(raw, kernel, moments)
    assert np.all(res.report.rejected.indices >= kernel.half_support_samples)
    np.testing.assert_array_equal(res.report.rejected.indices, [100])


def test_stem_detect_rejects_series_without_testable_samples():
    kernel = gaussian_kernel(10.0, 1.0)  # 30-sample half support
    moments = closed_form_moments(GaussianAcvfParams(sigma=1.0), 10.0)
    with pytest.raises(DegenerateSequenceError):
        stem_detect(_spike_train([30], n=60), kernel, moments)
    # one sample clears both margins: it is the only candidate
    res = stem_detect(_spike_train([30], n=61), kernel, moments)
    assert res.report.num_candidates == 1


@pytest.mark.parametrize("procedure", [Procedure.BONFERRONI, Procedure.BH])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, math.nan])
def test_stem_detect_rejects_alpha_outside_unit_interval(alpha, procedure):
    # a series too short for the kernel: the alpha check must come first
    kernel = gaussian_kernel(10.0, 1.0)
    moments = closed_form_moments(GaussianAcvfParams(sigma=1.0), 10.0)
    with pytest.raises(ConfigurationError, match=r"^alpha must lie in \(0, 1\), got "):
        stem_detect(_spike_train([7], n=15), kernel, moments, procedure, alpha)


def test_auto_bandwidth_prefers_more_rejections():
    raw = _spike_train([190, 210])
    gammas = [3.0, 15.0]
    kernels = [gaussian_kernel(g, 1.0) for g in gammas]
    moments = [closed_form_moments(GaussianAcvfParams(sigma=0.01), g) for g in gammas]
    sel = auto_bandwidth(raw, kernels, moments)
    # the narrow kernel resolves both spikes, the wide one fuses them
    assert sel.rejection_counts == (2, 1)
    assert sel.chosen_index == 0
    assert sel.result.report.num_rejected == 2


def test_auto_bandwidth_tie_takes_smaller():
    raw = _spike_train([150, 250])
    gammas = [4.0, 3.0]  # wider listed first
    kernels = [gaussian_kernel(g, 1.0) for g in gammas]
    moments = [closed_form_moments(GaussianAcvfParams(sigma=0.01), g) for g in gammas]
    sel = auto_bandwidth(raw, kernels, moments)
    assert sel.rejection_counts == (2, 2)
    assert sel.chosen_index == 1
    assert kernels[sel.chosen_index].bandwidth == 3.0


def test_auto_bandwidth_validation():
    raw = _spike_train([100])
    with pytest.raises(ValueError):
        auto_bandwidth(raw, [], [])
    kernel = gaussian_kernel(3.0, 1.0)
    with pytest.raises(ValueError):
        auto_bandwidth(raw, [kernel], [])
