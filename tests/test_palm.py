"""Peak-height survivor function, its quantile and the maxima density."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from stem1d import (
    CandidateSet,
    GaussianAcvfParams,
    NoiseMoments,
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
    return closed_form_moments(GaussianAcvfParams(sigma, nu), gamma)


def test_survival_at_zero_is_model_free_constant():
    # for this noise family lambda2^2/(lambda4 sigma2) = 1/3, which pins
    # F(0) = 1/2 + 1/(2 sqrt(3)) at every scale
    want = 0.5 + 0.5 / math.sqrt(3.0)
    for sigma, nu, gamma in [(1, 0, 1), (2, 0, 3), (1.5, 2.0, 0.5), (0.3, 0, 8)]:
        assert palm_survival([_params(sigma, nu, gamma)], 0, 0.0) == pytest.approx(
            want, abs=1e-9
        )


def test_survival_is_decreasing_and_bounded():
    params = _params(gamma=2.0)
    u = np.linspace(-6.0, 6.0, 241) * params.sigma
    out = palm_survival([params], 0, u)
    assert out.shape == u.shape
    assert np.all(np.diff(out) < 0)
    assert np.all((out > 0) & (out < 1))
    with pytest.raises(ValueError):
        palm_survival([params], 0, np.array([0.0, np.inf]))


def test_survival_of_huge_finite_heights_needs_no_overflow():
    # past about 1e154 sigma, phi(u / sigma) squares to inf and exp(-inf)
    # is exactly 0; the suite turns an overflow warning into an error
    params = _params()
    assert palm_survival([params], 0, 1e200) == 0.0
    huge = np.array([1e200, -1e300, np.finfo(np.float64).max])
    np.testing.assert_array_equal(palm_survival([params], 0, huge), [0.0, 1.0, 0.0])


def test_survival_dominates_marginal():
    # a randomly picked maximum sits higher than a randomly picked sample
    params = _params(gamma=3.0)
    u = np.linspace(-5.0, 5.0, 101) * params.sigma
    palm = palm_survival([params], 0, u)
    marginal = stats.norm.sf(u / params.sigma)
    assert np.all(palm >= marginal - 1e-12)


def test_quantile_inverts_survival():
    params = _params(gamma=1.0)
    v = np.array([1e-10, 1e-6, 1e-3, 0.05, 0.5, 0.7886751, 0.99, 0.9999999])
    u = palm_quantile([params], 0, v)
    np.testing.assert_allclose(palm_survival([params], 0, u), v, rtol=1e-9)
    assert palm_quantile([params], 0, [1.0]).tolist() == [-math.inf]
    for bad in (0.0, -0.1, 1.0000001):
        with pytest.raises(ValueError):
            palm_quantile([params], 0, [bad])


def _quantile(m, v):
    """The quantile of one level under one law, as a Python float."""
    return palm_quantile([m], 0, [v]).item()


PROPERTY = settings(max_examples=200)


@st.composite
def moments(draw):
    """Moments with sigma2 and lambda2 over six decades, and
    Delta = sigma2 * lambda4 - lambda2^2 a fraction ``eps`` of lambda2^2,
    from 1e-9 (nearly degenerate) to 1e2."""
    sigma2 = 10.0 ** draw(st.floats(-3.0, 3.0))
    lambda2 = 10.0 ** draw(st.floats(-3.0, 3.0))
    eps = 10.0 ** draw(st.floats(-9.0, 2.0))
    return NoiseMoments(sigma2, lambda2, lambda2**2 / sigma2 * (1.0 + eps))


# moment values from subnormal to near the largest double: the pool
# tests/test_cli.py's moments files draw from, and powers of ten between
_EXTREMES = (1e-320, 1e-300, 1e-160, 1e-150, 1e-5, 1.0, 3.0, 1e150, 1e160, 1e300, 1.7e308)
_EXTREME = st.sampled_from(_EXTREMES) | st.floats(-323.0, 308.25).map(lambda e: 10.0**e)


@st.composite
def extreme_moments(draw):
    """Moments NoiseMoments accepts, each value from ``_EXTREME``, or
    lambda2 a power of ten below its bound sqrt(sigma2 * lambda4)."""
    sigma2, lambda4 = draw(_EXTREME), draw(_EXTREME)
    bound = math.sqrt(sigma2) * math.sqrt(lambda4)
    lambda2 = draw(_EXTREME | st.floats(-30.0, -1e-3).map(lambda e: 10.0**e * bound))
    try:
        return NoiseMoments(sigma2, lambda2, lambda4)
    except ValueError:
        assume(False)


@PROPERTY
@given(extreme_moments())
def test_survival_at_the_lower_bracket_is_one(m):
    # palm_quantile's lower bracket, -10 sigma, lies above every target for
    # any moments NoiseMoments accepts: the ndtr term's argument is
    # 10 a1 sigma > 10, and the other term at most sqrt(2 pi) phi(10) = e^-50
    assert palm_survival([m], 0, -10.0 * m.sigma) == 1.0


@PROPERTY
@given(moments(), st.floats(-60.0, 60.0))
def test_survival_scalar_path_matches_array_path_bitwise(m, z):
    u = z * m.sigma
    scalar = palm_survival([m], 0, u)
    assert isinstance(scalar, float)
    assert scalar.hex() == float(palm_survival([m], 0, np.array([u]))[0]).hex()
    assert scalar.hex() == palm_survival([m], 0, np.array(u)).hex()


@PROPERTY
@given(moments(), st.floats(0.0, 300.0))
def test_survival_inverts_quantile(m, decades):
    v = 10.0 ** -decades
    assume(v < 1.0)
    assert palm_survival([m], 0, _quantile(m, v)) == pytest.approx(v, rel=1e-9)


def _scalar_quantile(params, v):
    """Reference solve, one level at a time with Python floats: a bracket
    expanded by doubling from +-10 sigma, then bisection until the
    midpoint equals an end."""
    if v == 1.0:
        return float("-inf")
    sigma = params.sigma
    hi = 10.0 * sigma
    for _ in range(200):
        if palm_survival([params], 0, hi) < v:
            break
        hi *= 2.0
    lo = -10.0 * sigma
    for _ in range(200):
        if palm_survival([params], 0, lo) > v:
            break
        lo *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if palm_survival([params], 0, mid) > v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@PROPERTY
@given(
    st.lists(
        st.tuples(moments(), st.floats(0.0, 300.0, exclude_min=True)), max_size=20
    )
)
# levels just below 1, where the lower end of the starting bracket
# decides the last bits; random draws rarely come this close
@example(
    [
        (NoiseMoments(1.0, 0.5, 0.75), 1e-3),
        (NoiseMoments(0.0939, 0.0052, 0.00087), 1e-4),
        (NoiseMoments(2.5, 0.02, 0.0009), 1e-6),
    ]
)
def test_batched_quantile_matches_float_calls_bitwise(entries):
    # levels v in [1e-300, 1), then exactly 1, which must give -inf; the
    # batch, each entry under its own law, and each one-entry call must
    # all land on the reference's bits
    params = [m for m, _ in entries] + [_params()]
    v = [10.0 ** -decades for _, decades in entries] + [1.0]
    got = palm_quantile(params, np.arange(len(v)), np.array(v))
    assert got.shape == (len(v),)
    assert got[-1] == -math.inf
    for p, level, u in zip(params, v, got.tolist()):
        want = _scalar_quantile(p, level).hex()
        assert u.hex() == want
        assert _quantile(p, level).hex() == want


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.5, math.nan])
def test_batched_quantile_rejects_levels_as_float_call(bad):
    params = _params()
    with pytest.raises(ValueError) as single:
        palm_quantile([params], 0, [bad])
    with pytest.raises(ValueError) as batched:
        palm_quantile([params, _params(gamma=3.0)], [0, 1, 0], np.array([0.5, bad, 0.1]))
    assert str(batched.value) == str(single.value)


def test_batched_quantile_refuses_one_bare_noise_moments():
    # the laws come as a sequence, and every index must name one of them
    m = _params()
    cands = CandidateSet(np.arange(2), np.arange(2.0), np.array([0.5, 1.5]))
    lone = "moments must be a sequence of NoiseMoments"
    with pytest.raises(ValueError, match=lone):
        palm_quantile(m, 0, np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match=lone):
        palm_survival(m, 0, 1.0)
    with pytest.raises(ValueError, match=lone):
        candidate_pvalues(cands, m, [0])
    outside = r"law indices must be integers in \[0, 2\)"
    with pytest.raises(ValueError, match=outside):
        palm_quantile([m, m], [0, 2], np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match=outside):
        palm_survival([m, m], -1, 1.0)
    with pytest.raises(ValueError, match=outside):
        candidate_pvalues(cands, [m, m], [2])
    with pytest.raises(ValueError, match=outside):
        palm_quantile([m, m], [0.0, 1.0], np.array([0.1, 0.2]))
    # no rows, given as an empty list: nothing to index, nothing raised
    assert len(candidate_pvalues(CandidateSet.empty(), [m], [])) == 0
    assert palm_quantile([m], [], []).shape == (0,)
    with pytest.raises(ValueError, match="one index per row"):
        candidate_pvalues(cands, [m], 0)


@PROPERTY
@given(moments(), st.floats(0.0, 300.0), st.floats(1e-6, 1.0))
def test_quantile_strictly_decreasing(m, decades, gap):
    v_low = 10.0 ** -decades
    v_high = v_low * (1.0 + gap)
    assume(v_high < 1.0)
    low, high = palm_quantile([m], 0, [v_low, v_high])
    assert low > high


@PROPERTY
@given(moments(), st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=30))
def test_pvalues_inside_unit_interval_and_fall_with_height(m, z):
    heights = np.unique(np.asarray(z)) * m.sigma
    n = heights.size
    cands = CandidateSet(np.arange(n), np.arange(n, dtype=np.float64), heights)
    p = candidate_pvalues(cands, [m], [0]).pvalues
    assert np.all((p > 0.0) & (p < 1.0))
    assert np.all(np.diff(p) <= 0.0)


def test_scale_equivariance():
    base = closed_form_moments(UNIT, 2.0)
    # the moments of the process doubled pointwise
    scaled = NoiseMoments(4.0 * base.sigma2, 4.0 * base.lambda2, 4.0 * base.lambda4)
    u = np.linspace(-3.0, 4.0, 29)
    np.testing.assert_allclose(
        palm_survival([scaled], 0, 2.0 * u), palm_survival([base], 0, u), rtol=1e-12
    )
    assert _quantile(scaled, 0.01) == pytest.approx(2.0 * _quantile(base, 0.01), rel=1e-9)


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
    pvals = candidate_pvalues(cands, [closed_form_moments(UNIT, gamma)], [0]).pvalues
    ks = stats.kstest(pvals, "uniform").statistic
    assert ks < 0.03


def test_candidate_pvalues_clamped_and_attached():
    params = _params(gamma=1.0)
    cands = CandidateSet(
        indices=np.array([5, 1]),
        locations=np.array([5.0, 1.0]),
        heights=np.array([100.0, -100.0]),
    )
    out = candidate_pvalues(cands, [params], [0])
    assert out.locations[0] == 1.0  # canonical ordering by location
    assert 0.0 < out.pvalues[1] < 1e-300
    assert out.pvalues[0] < 1.0
    empty = candidate_pvalues(CandidateSet.empty(), [params], [0])
    assert len(empty) == 0


@pytest.mark.parametrize("bad", [math.nan, 0.0, 1.0, -0.5, 2.0])
def test_candidate_set_rejects_pvalues_outside_unit_interval(bad):
    # NaN included: both constructors must refuse it, not carry it into
    # a correction that would silently reject nothing
    fields = (np.arange(2), np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    message = r"pvalues must lie strictly inside \(0, 1\)"
    for p in (np.array([0.5, bad]), np.array([bad, bad])):
        with pytest.raises(ValueError, match=message):
            CandidateSet(*fields, p)
        with pytest.raises(ValueError, match=message):
            CandidateSet(*fields).with_pvalues(p)


def test_candidate_set_validation():
    with pytest.raises(ValueError):
        CandidateSet(np.array([0, 1]), np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        CandidateSet(np.array([0]), np.array([1.0]), np.array([np.nan]))
    with pytest.raises(ValueError, match="rows must be non-negative"):
        CandidateSet(np.array([0]), np.array([1.0]), np.array([0.0]), rows=[-1])
    cands = CandidateSet(
        np.array([3, 1, 2]),
        np.array([3.0, 1.0, 2.0]),
        np.array([30.0, 10.0, 20.0]),
    )
    np.testing.assert_array_equal(cands.indices, [1, 2, 3])
    np.testing.assert_array_equal(cands.heights, [10.0, 20.0, 30.0])
    picked = cands.select(cands.heights > 15.0)
    assert len(picked) == 2
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


def test_candidate_set_rows():
    # shuffled entries of three rows come back sorted by (row, location);
    # a location may repeat across rows but not within one
    rows = np.array([2, 0, 1, 0, 2])
    locations = np.array([1.0, 5.0, 1.0, 1.0, 0.5])
    cands = CandidateSet(np.arange(5), locations, np.arange(5.0), rows=rows)
    np.testing.assert_array_equal(cands.rows, [0, 0, 1, 2, 2])
    np.testing.assert_array_equal(cands.locations, [1.0, 5.0, 1.0, 0.5, 1.0])
    np.testing.assert_array_equal(cands.indices, [3, 1, 2, 4, 0])
    assert not cands.rows.flags.writeable
    np.testing.assert_array_equal(cands.select(cands.heights > 1.5).rows, [0, 1, 2])
    with pytest.raises(ValueError, match="distinct within a row"):
        CandidateSet(np.arange(2), np.array([1.0, 1.0]), np.zeros(2), rows=[3, 3])
    with pytest.raises(ValueError, match="equal length"):
        CandidateSet(np.arange(2), np.array([1.0, 2.0]), np.zeros(2), rows=[0])
    # no rows given: every entry in row 0
    np.testing.assert_array_equal(
        CandidateSet(np.arange(2), np.array([2.0, 1.0]), np.zeros(2)).rows, [0, 0]
    )


def test_candidate_set_in_canonical_order_is_copied_not_frozen():
    # input already sorted by (row, location) is checked, not sorted: the
    # set holds copies, and the caller's arrays stay writable and unshared
    fields = (np.arange(4), np.array([1.0, 2.0, 0.5, 3.0]), np.arange(4.0), None,
              np.array([0, 0, 1, 1]))
    cands = CandidateSet(*fields)
    for name, given in zip(("indices", "locations", "heights", "pvalues", "rows"), fields):
        if given is not None:
            held = getattr(cands, name)
            np.testing.assert_array_equal(held, given)
            assert not held.flags.writeable and given.flags.writeable
            assert not np.shares_memory(held, given)
    # the same entries shuffled come back in the same order
    order = np.array([3, 0, 2, 1])
    shuffled = CandidateSet(*(None if f is None else f[order] for f in fields))
    for name in ("indices", "locations", "heights", "rows"):
        np.testing.assert_array_equal(getattr(shuffled, name), getattr(cands, name))
    # a location repeated within a row is refused, in order or shuffled
    for rows, locations in (([0, 1, 1], [5.0, 1.0, 1.0]), ([1, 0, 1], [1.0, 5.0, 1.0])):
        with pytest.raises(ValueError, match="distinct within a row"):
            CandidateSet(np.arange(3), np.array(locations), np.zeros(3), rows=rows)


def test_candidate_set_take_rows_and_row_counts():
    # rows in any order, one twice and one with no entries, renumbered in
    # the order asked; the counts come from the sorted rows
    cands = CandidateSet(
        np.arange(6), np.array([1.0, 2.0, 1.0, 0.5, 2.5, 3.0]), np.arange(6.0),
        rows=np.array([0, 0, 1, 3, 3, 3]),
    )
    np.testing.assert_array_equal(cands.row_counts(5), [2, 1, 0, 3, 0])
    with pytest.raises(ValueError, match="candidates span 4 rows, but 3 per-row"):
        cands.row_counts(3)
    taken, at = cands.take_rows(np.array([3, 2, 0, 3]))
    np.testing.assert_array_equal(taken.rows, [0, 0, 0, 2, 2, 3, 3, 3])
    np.testing.assert_array_equal(taken.indices, [3, 4, 5, 0, 1, 3, 4, 5])
    np.testing.assert_array_equal(at, [3, 4, 5, 0, 1, 3, 4, 5])  # positions here
    np.testing.assert_array_equal(taken.row_counts(4), [3, 0, 2, 3])
    taken, at = cands.take_rows(np.array([2, 4], dtype=np.int64))
    assert len(taken) == 0 and at.size == 0


def test_candidate_pvalues_per_row_coefficients_match_single_rows():
    # a mixed-law batch, two rows sharing a law and one law unused: each
    # row's p-values are those of a one-law call on that row, bit for bit
    rng = np.random.default_rng(5)
    params = [_params(gamma=g) for g in (1.0, 2.5, 6.0, 9.0)]
    law = [2, 0, 2, 1]
    sizes = (4, 0, 7, 5)
    rows = np.repeat(np.arange(len(sizes)), sizes)
    heights = rng.normal(0.0, 2.0, size=rows.size)
    locations = np.concatenate([np.arange(n, dtype=float) for n in sizes])
    batch = candidate_pvalues(
        CandidateSet(np.arange(rows.size), locations, heights, rows=rows), params, law
    )
    for row, index in enumerate(law):
        one = batch.select(batch.rows == row)
        single = CandidateSet(one.indices, one.locations, one.heights)
        want = candidate_pvalues(single, [params[index]], [0]).pvalues
        assert one.pvalues.tobytes() == want.tobytes()


def _three_rows():
    heights = np.array([0.5, 1.5, -0.5, 2.0])
    return CandidateSet(np.arange(4), np.arange(4.0), heights, rows=[0, 1, 2, 2])


@pytest.mark.parametrize("given", [1, 2])
def test_candidate_pvalues_refuses_fewer_moments_than_rows(given):
    # one law index per row is needed, however many laws there are
    moments = [_params(gamma=g) for g in (1.0, 2.5)]
    with pytest.raises(ValueError, match=f"span 3 rows, but {given} per-row"):
        candidate_pvalues(_three_rows(), moments, [0, 1][:given])


def test_candidate_pvalues_single_row_call_unchanged():
    # a set of one row keeps the bits these heights had when the
    # coefficients had a type of their own, whichever index names its law
    m = _params(gamma=2.5)
    one_row = CandidateSet(np.arange(2), np.arange(2.0), np.array([-0.5, 2.0]))
    for moments, law in (([m], [0]), ([_params(), m], [1])):
        got = candidate_pvalues(one_row, moments, law).pvalues.tolist()
        assert [p.hex() for p in got] == ["0x1.fccbfb4917b58p-1", "0x1.8df13c33aaea8p-27"]
