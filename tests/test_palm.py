"""Peak-height survivor function, its quantile and the maxima density."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from stem1d import (
    CandidateSet,
    GaussianAcvfParams,
    NoiseMoments,
    PalmParams,
    candidate_pvalues,
    closed_form_moments,
    expected_maxima_density,
    find_local_maxima,
    generate_noise,
    model_acvf,
    palm_quantile,
    palm_survival,
)

UNIT = GaussianAcvfParams(sigma=1.0, nu=0.0)


def _params(sigma=1.0, nu=0.0, gamma=1.0):
    return PalmParams(closed_form_moments(GaussianAcvfParams(sigma, nu), gamma))


def test_survival_at_zero_is_model_free_constant():
    # for this noise family lambda2^2/(lambda4 sigma2) = 1/3, which pins
    # F(0) = 1/2 + 1/(2 sqrt(3)) at every scale
    want = 0.5 + 0.5 / math.sqrt(3.0)
    for sigma, nu, gamma in [(1, 0, 1), (2, 0, 3), (1.5, 2.0, 0.5), (0.3, 0, 8)]:
        assert palm_survival(_params(sigma, nu, gamma), 0.0) == pytest.approx(
            want, abs=1e-9
        )


def test_survival_is_decreasing_and_bounded():
    params = _params(gamma=2.0)
    u = np.linspace(-6.0, 6.0, 241) * params.sigma
    out = palm_survival(params, u)
    assert out.shape == u.shape
    assert np.all(np.diff(out) < 0)
    assert np.all((out > 0) & (out < 1))
    with pytest.raises(ValueError):
        palm_survival(params, np.array([0.0, np.inf]))


def test_survival_dominates_marginal():
    # a randomly picked maximum sits higher than a randomly picked sample
    params = _params(gamma=3.0)
    u = np.linspace(-5.0, 5.0, 101) * params.sigma
    palm = palm_survival(params, u)
    marginal = stats.norm.sf(u / params.sigma)
    assert np.all(palm >= marginal - 1e-12)


def test_quantile_inverts_survival():
    params = _params(gamma=1.0)
    for v in (1e-10, 1e-6, 1e-3, 0.05, 0.5, 0.7886751, 0.99, 0.9999999):
        u = palm_quantile(params, v)
        assert palm_survival(params, u) == pytest.approx(v, rel=1e-9)
    assert palm_quantile(params, 1.0) == -math.inf
    for bad in (0.0, -0.1, 1.0000001):
        with pytest.raises(ValueError):
            palm_quantile(params, bad)


# Property tests run a fixed example sequence, so the suite stays
# deterministic.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)


@st.composite
def moments(draw):
    """Moments with sigma2 and lambda2 over six decades, and
    Delta = sigma2 * lambda4 - lambda2^2 a fraction ``eps`` of lambda2^2,
    from 1e-9 (nearly degenerate) to 1e2."""
    sigma2 = 10.0 ** draw(st.floats(-3.0, 3.0))
    lambda2 = 10.0 ** draw(st.floats(-3.0, 3.0))
    eps = 10.0 ** draw(st.floats(-9.0, 2.0))
    return NoiseMoments(sigma2, lambda2, lambda2**2 / sigma2 * (1.0 + eps))


@PROPERTY
@given(moments(), st.floats(-60.0, 60.0))
def test_survival_scalar_path_matches_array_path_bitwise(m, z):
    params = PalmParams(m)
    u = z * params.sigma
    scalar = palm_survival(params, u)
    assert isinstance(scalar, float)
    assert scalar.hex() == float(palm_survival(params, np.array([u]))[0]).hex()
    assert scalar.hex() == palm_survival(params, np.array(u)).hex()


@PROPERTY
@given(moments(), st.floats(0.0, 300.0))
def test_survival_inverts_quantile(m, decades):
    v = 10.0 ** -decades
    assume(v < 1.0)
    params = PalmParams(m)
    assert palm_survival(params, palm_quantile(params, v)) == pytest.approx(
        v, rel=1e-9
    )


@PROPERTY
@given(moments(), st.floats(0.0, 300.0), st.floats(1e-6, 1.0))
def test_quantile_strictly_decreasing(m, decades, gap):
    v_low = 10.0 ** -decades
    v_high = v_low * (1.0 + gap)
    assume(v_high < 1.0)
    params = PalmParams(m)
    assert palm_quantile(params, v_low) > palm_quantile(params, v_high)


@PROPERTY
@given(moments(), st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=30))
def test_pvalues_inside_unit_interval_and_fall_with_height(m, z):
    params = PalmParams(m)
    heights = np.unique(np.asarray(z)) * params.sigma
    n = heights.size
    cands = CandidateSet(np.arange(n), np.arange(n, dtype=np.float64), heights)
    p = candidate_pvalues(cands, params).pvalues
    assert np.all((p > 0.0) & (p < 1.0))
    assert np.all(np.diff(p) <= 0.0)


def test_scale_equivariance():
    base = closed_form_moments(UNIT, 2.0)
    params = PalmParams(base)
    scaled = PalmParams(base.scaled(2.0))
    u = np.linspace(-3.0, 4.0, 29)
    np.testing.assert_allclose(
        palm_survival(scaled, 2.0 * u), palm_survival(params, u), rtol=1e-12
    )
    assert palm_quantile(scaled, 0.01) == pytest.approx(
        2.0 * palm_quantile(params, 0.01), rel=1e-9
    )


def test_expected_maxima_density_closed_form():
    m = closed_form_moments(UNIT, 1.0)
    want = math.sqrt(1.5) / (2.0 * math.pi)
    assert expected_maxima_density(m) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(0.1949, abs=5e-5)
    # bandwidth stretches space, so the density scales like 1/gamma
    assert expected_maxima_density(closed_form_moments(UNIT, 4.0)) == pytest.approx(
        want / 4.0, rel=1e-12
    )


def test_density_matches_discrete_orthant_probability():
    # P(sample is a strict max) from the trivariate Gaussian of
    # (v[i-1], v[i], v[i+1]) reduces to an orthant probability of the two
    # differences; per unit time it must approach the continuum density
    gamma, dt = 1.0, 0.2
    c = model_acvf(UNIT, gamma, np.array([0.0, dt, 2.0 * dt]))
    var_d = 2.0 * (c[0] - c[1])
    cov_d1d2 = 2.0 * c[1] - c[0] - c[2]
    rho = cov_d1d2 / var_d
    orthant = 0.25 + math.asin(-rho) / (2.0 * math.pi)
    continuum = expected_maxima_density(closed_form_moments(UNIT, gamma))
    assert orthant / dt == pytest.approx(continuum, rel=5e-3)


def test_empirical_maxima_density_and_pvalue_uniformity():
    gamma, dt, horizon = 1.0, 0.2, 20_000.0
    n = int(round(horizon / dt))
    seq = generate_noise(UNIT, gamma, n, dt, seed=17)
    cands = find_local_maxima(seq)
    got_density = len(cands) / ((n - 1) * dt)
    assert got_density == pytest.approx(0.19493, rel=0.02)
    # under the null the heights' p-values are uniform
    params = PalmParams(closed_form_moments(UNIT, gamma))
    pvals = candidate_pvalues(cands, params).pvalues
    ks = stats.kstest(pvals, "uniform").statistic
    assert ks < 0.03


def test_candidate_pvalues_clamped_and_attached():
    params = _params(gamma=1.0)
    cands = CandidateSet(
        indices=np.array([5, 1]),
        locations=np.array([5.0, 1.0]),
        heights=np.array([100.0, -100.0]),
    )
    out = candidate_pvalues(cands, params)
    assert out.locations[0] == 1.0  # canonical ordering by location
    assert 0.0 < out.pvalues[1] < 1e-300
    assert out.pvalues[0] < 1.0
    empty = candidate_pvalues(CandidateSet.empty(), params)
    assert len(empty) == 0


def test_candidate_set_validation():
    with pytest.raises(ValueError):
        CandidateSet(np.array([0, 1]), np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        CandidateSet(np.array([0]), np.array([1.0]), np.array([np.nan]))
    cands = CandidateSet(
        np.array([3, 1, 2]),
        np.array([3.0, 1.0, 2.0]),
        np.array([30.0, 10.0, 20.0]),
    )
    np.testing.assert_array_equal(cands.indices, [1, 2, 3])
    np.testing.assert_array_equal(cands.heights, [10.0, 20.0, 30.0])
    picked = cands.select(cands.heights > 15.0)
    assert picked.count == 2
    np.testing.assert_array_equal(picked.locations, [2.0, 3.0])
    assert picked.pvalues is None
    assert not picked.locations.flags.writeable
    with pytest.raises(ValueError):
        cands.with_pvalues(np.array([0.5, 1.0, 0.5]))
    with pytest.raises(ValueError):
        cands.with_pvalues(np.array([0.5, 0.5]))
    given_p = np.array([0.1, 0.2, 0.3])
    attached = cands.with_pvalues(given_p)
    np.testing.assert_array_equal(attached.pvalues, given_p)
    assert not attached.pvalues.flags.writeable
    assert given_p.flags.writeable  # the caller's array is copied, not frozen
    sub = attached.select(np.array([True, False, True]))
    np.testing.assert_array_equal(sub.indices, [1, 3])
    np.testing.assert_array_equal(sub.pvalues, [0.1, 0.3])
