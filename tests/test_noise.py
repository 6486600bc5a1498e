"""Noise generation, closed-form moments and empirical moment estimation."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stem1d import (
    GaussianAcvfParams,
    NoiseMoments,
    SampledSequence,
    closed_form_moments,
    estimate_moments,
    generate_noise,
    model_acvf,
)
from stem1d.errors import DegenerateSequenceError, InputFileError
from stem1d.noise import noise_rows, smoothing_taps
from stem1d.seriesio import read_moments_json, write_moments_json

SQRT_PI = math.sqrt(math.pi)


def test_closed_form_moments_unit_scale():
    m = closed_form_moments(GaussianAcvfParams(sigma=1.0, nu=0.0), gamma=1.0)
    assert m.sigma2 == pytest.approx(0.2820947917738781, abs=1e-12)
    assert m.lambda2 == pytest.approx(0.14104739588693905, abs=1e-12)
    assert m.lambda4 == pytest.approx(0.21157109383040857, abs=1e-12)
    assert m.delta == pytest.approx(m.sigma2 * m.lambda4 - m.lambda2**2)
    assert m.sigma == pytest.approx(math.sqrt(m.sigma2))


def test_closed_form_moments_combined_scale():
    # smoothing correlated noise only changes the effective scale
    a = closed_form_moments(GaussianAcvfParams(sigma=2.0, nu=3.0), gamma=4.0)
    b = closed_form_moments(GaussianAcvfParams(sigma=2.0, nu=0.0), gamma=5.0)
    assert a.sigma2 == pytest.approx(b.sigma2)
    assert a.lambda2 == pytest.approx(b.lambda2)
    assert a.lambda4 == pytest.approx(b.lambda4)
    with pytest.raises(ValueError):
        closed_form_moments(GaussianAcvfParams(sigma=1.0, nu=0.0), gamma=0.0)
    closed_form_moments(GaussianAcvfParams(sigma=1.0, nu=0.5), gamma=0.0)


def test_moments_validation_and_scaling(tmp_path):
    with pytest.raises(ValueError):
        NoiseMoments(sigma2=1.0, lambda2=1.001, lambda4=1.0)  # delta <= 0
    with pytest.raises(ValueError):
        NoiseMoments(sigma2=0.0, lambda2=1.0, lambda4=1.0)
    m = NoiseMoments(sigma2=2.0, lambda2=1.0, lambda4=3.0)
    path = tmp_path / "moments.json"
    write_moments_json(m, path)
    again = read_moments_json(path)
    assert (again.sigma2, again.lambda2, again.lambda4) == (2.0, 1.0, 3.0)
    path.write_text(json.dumps({"sigma2": 1.0, "lambda2": 1.0}))
    with pytest.raises(InputFileError, match="missing key 'lambda4'"):
        read_moments_json(path)


@pytest.mark.parametrize(
    "values, message",
    [
        ((1.0, 1e200, 1e300), "moments overflow: lambda2^2 is not finite"),
        ((3.0, 1e-320, 1.7e308), "overflow: sigma2 * lambda4 - lambda2^2 is not finite"),
        ((1e-300, 1e-153, 1.0), "underflow: Delta * sigma2 or lambda4 * sigma2 rounds"),
        ((1e-300, 1e-320, 1e300), "underflow: lambda2^2 / (Delta sigma2) rounds to 0"),
        ((1e-300, 1e-160, 1.7e308), "underflow: 2 pi lambda2^2 / (lambda4 sigma2)"),
    ],
    ids=["lambda2-squared", "delta", "delta-sigma2", "a2", "c1"],
)
def test_moments_that_overflow_or_underflow_are_refused(values, message):
    # each finite and positive, but Delta or the height law's coefficients
    # are not, in doubles: OverflowError and ZeroDivisionError used to
    # escape from Delta and from palm's coefficients
    with pytest.raises(ValueError) as info:
        NoiseMoments(*values)
    assert message in str(info.value)


@pytest.mark.parametrize(
    "params, gamma, message",
    [
        (GaussianAcvfParams(1e200), 3.0, "overflow: sigma=1e+200, xi=3.0"),
        (GaussianAcvfParams(1.0, nu=1e100), 3.0, "overflow: sigma=1.0, xi=1e+100"),
        (GaussianAcvfParams(1.0), 1e-70, "underflow: xi=1e-70"),
    ],
    ids=["sigma", "nu", "gamma"],
)
def test_closed_form_moments_refuse_an_overflow(params, gamma, message):
    with pytest.raises(ValueError, match=f"^closed-form moments {re.escape(message)}$"):
        closed_form_moments(params, gamma)


def test_generate_noise_deterministic():
    params = GaussianAcvfParams(sigma=1.0, nu=0.5)
    a = generate_noise(params, gamma=2.0, length=500, dt=0.5, seed=11)
    b = generate_noise(params, gamma=2.0, length=500, dt=0.5, seed=11)
    c = generate_noise(params, gamma=2.0, length=500, dt=0.5, seed=12)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.dt == 0.5 and a.margin == 0


def test_generate_noise_sigma_is_pure_scale():
    for gamma in (0.0, 2.0):
        one = generate_noise(
            GaussianAcvfParams(sigma=1.0), gamma, length=400, dt=1.0, seed=5
        )
        three = generate_noise(
            GaussianAcvfParams(sigma=3.0), gamma, length=400, dt=1.0, seed=5
        )
        np.testing.assert_array_equal(three.values, 3.0 * one.values)


def test_generate_noise_unsmoothed_is_white():
    seq = generate_noise(GaussianAcvfParams(sigma=2.0), 0.0, length=200_000, dt=1.0, seed=3)
    v = seq.values
    assert float(np.var(v)) == pytest.approx(4.0, rel=0.02)
    lag1 = float(np.mean(v[:-1] * v[1:]))
    assert lag1 == pytest.approx(0.0, abs=0.05)


def test_generate_noise_matches_model_acvf():
    params = GaussianAcvfParams(sigma=1.5, nu=1.0)
    gamma, dt = 2.0, 0.5
    seq = generate_noise(params, gamma, length=400_000, dt=dt, seed=21)
    v = seq.values
    lags = np.array([0, 2, 4, 8, 16])
    got = np.array([np.mean(v[: v.size - k] * v[k:]) for k in lags])
    want = model_acvf(params, gamma, lags * dt)
    np.testing.assert_allclose(got, want, rtol=0.03, atol=0.003)


def test_model_acvf_shape_and_errors():
    params = GaussianAcvfParams(sigma=2.0, nu=0.0)
    out = model_acvf(params, 1.0, [0.0, 2.0])
    assert out[0] == pytest.approx(4.0 / (2.0 * SQRT_PI))
    assert out[1] == pytest.approx(out[0] * math.exp(-1.0))
    with pytest.raises(ValueError):
        model_acvf(params, 0.0, 0.0)


@pytest.mark.parametrize(
    "params,gamma,message",
    [
        (GaussianAcvfParams(1e200), 3.0, "overflow: sigma=1e+200, xi=3.0"),
        (GaussianAcvfParams(1.0), 1e200, "overflow: sigma=1.0, xi=1e+200"),
        (GaussianAcvfParams(1e150), 1e-10, "overflow: sigma=1e+150, xi=1e-10"),
        (GaussianAcvfParams(1.0), 1e-200, "underflow: xi=1e-200"),
    ],
    ids=["sigma", "xi", "variance", "width"],
)
def test_model_acvf_refuses_an_overflow(params, gamma, message):
    with pytest.raises(ValueError, match=f"^autocovariance {re.escape(message)}$"):
        model_acvf(params, gamma, [0.0, 1.0])


def test_estimate_moments_coarse_grid():
    # at dt=1 the variance and lambda2 land within 3 percent, while the
    # second-difference estimate of lambda4 is attenuated by a predictable
    # factor near 0.956 for xi=3
    params = GaussianAcvfParams(sigma=1.0, nu=0.0)
    gamma, dt = 3.0, 1.0
    seq = generate_noise(params, gamma, length=600_000, dt=dt, seed=9)
    est = estimate_moments(seq)
    true = closed_form_moments(params, gamma)
    q = dt**2 / (4.0 * gamma**2)
    lam2_factor = (1.0 - math.exp(-q)) / q
    lam4_factor = (6.0 - 8.0 * math.exp(-q) + 2.0 * math.exp(-4.0 * q)) / (12.0 * q**2)
    assert est.sigma2 / true.sigma2 == pytest.approx(1.0, abs=0.03)
    assert est.lambda2 / true.lambda2 == pytest.approx(1.0, abs=0.03)
    assert est.lambda2 / true.lambda2 == pytest.approx(lam2_factor, abs=0.02)
    assert est.lambda4 / true.lambda4 == pytest.approx(lam4_factor, abs=0.02)
    assert lam4_factor < 0.97  # the coarse grid really does not reach 3 percent


def test_estimate_moments_fine_grid():
    params = GaussianAcvfParams(sigma=1.0, nu=0.0)
    gamma, dt = 3.0, 0.2
    seq = generate_noise(params, gamma, length=1_000_000, dt=dt, seed=9)
    est = estimate_moments(seq)
    true = closed_form_moments(params, gamma)
    assert est.sigma2 / true.sigma2 == pytest.approx(1.0, abs=0.03)
    assert est.lambda2 / true.lambda2 == pytest.approx(1.0, abs=0.03)
    assert est.lambda4 / true.lambda4 == pytest.approx(1.0, abs=0.03)


def test_estimate_moments_zero_mean_flag():
    rng = np.random.default_rng(2)
    base = rng.standard_normal(5000)
    shifted = SampledSequence(base + 10.0, dt=1.0)
    centered = estimate_moments(shifted)
    raw = estimate_moments(shifted, zero_mean=True)
    assert raw.sigma2 == pytest.approx(centered.sigma2 + 100.0, rel=0.05)
    # differences kill the offset, so the derivative moments agree closely
    assert raw.lambda2 == pytest.approx(centered.lambda2, rel=0.01)
    plain = SampledSequence(base, dt=1.0)
    assert estimate_moments(plain, zero_mean=True).sigma2 == pytest.approx(
        float(np.mean(base * base))
    )


def test_estimate_moments_uses_interior_only():
    rng = np.random.default_rng(4)
    core = rng.standard_normal(300)
    wild = np.concatenate([np.full(20, 1e6), core, np.full(20, -1e6)])
    a = estimate_moments(SampledSequence(wild, dt=0.5, margin=20))
    b = estimate_moments(SampledSequence(core, dt=0.5))
    assert a.sigma2 == pytest.approx(b.sigma2)
    assert a.lambda4 == pytest.approx(b.lambda4)


def test_estimate_moments_degenerate_inputs():
    with pytest.raises(DegenerateSequenceError):
        estimate_moments(SampledSequence(np.ones(100), dt=1.0))
    with pytest.raises(DegenerateSequenceError):
        estimate_moments(SampledSequence(np.arange(8.0), dt=1.0))
    with pytest.raises(DegenerateSequenceError):
        estimate_moments(SampledSequence(np.arange(30.0), dt=1.0, margin=12))
    # lambda4 past the largest double, as dt**4 underflows to 0: refused,
    # with no divide-by-zero warning
    noise = np.random.default_rng(2).standard_normal(100)
    with pytest.raises(DegenerateSequenceError, match="no usable variation"):
        estimate_moments(SampledSequence(noise, dt=1e-100))
    # finite moments whose product sigma2 * lambda4 overflows: inf - inf
    # is nan, which is not an incompatibility of the moments
    signs = np.where(np.arange(400) % 2, 1.0, -1.0)
    wild = signs * np.random.default_rng(3).uniform(0.5, 1.0, 400) * 1e150
    with pytest.raises(DegenerateSequenceError, match="^moments overflow"):
        estimate_moments(SampledSequence(wild, dt=1.0))


def test_estimate_moments_array_without_dt():
    # refused before the runs are looked at: these are also too short
    with pytest.raises(ValueError, match="array of runs needs its sample spacing dt"):
        estimate_moments(np.zeros((2, 5)))
    runs = np.random.default_rng(1).random((2, 50))
    assert estimate_moments(runs, dt=1.0).shape == (2, 3)
    # a sequence carries its own dt and margin, so neither may be passed
    seq = SampledSequence(runs[0], dt=1.0, margin=2)
    for extra in ({"dt": 2.0}, {"margin": 10}, {"margin": 0}):
        with pytest.raises(ValueError, match="sequence carries its own dt and margin"):
            estimate_moments(seq, **extra)


def test_estimate_moments_one_dimensional_array():
    # refused before the runs are looked at: this one is also not finite
    with pytest.raises(ValueError, match="a 2-D array, not 1-D"):
        estimate_moments(np.full(50, np.nan), dt=1.0)


def test_generate_noise_argument_checks():
    params = GaussianAcvfParams(sigma=1.0)
    with pytest.raises(ValueError):
        generate_noise(params, -1.0, 100, 1.0, seed=0)
    with pytest.raises(ValueError):
        generate_noise(params, 1.0, 0, 1.0, seed=0)
    with pytest.raises(ValueError):
        generate_noise(params, 1.0, 100, 0.0, seed=0)
    with pytest.raises(ValueError):
        # shorter than the smoothing filter
        generate_noise(params, 10.0, 50, 1.0, seed=0)


def _seed_id(seed):
    # a generator's repr holds its memory address, which would change the test's name each run
    return type(seed).__name__ if isinstance(seed, np.random.Generator) else repr(seed)


@pytest.mark.parametrize(
    "seed", [None, -1, 1.5, np.random.default_rng(0), (1, -2), [1, 2]], ids=_seed_id
)
def test_noise_seeds_are_non_negative_ints_or_tuples_of_them(seed):
    params = GaussianAcvfParams(sigma=1.0)
    message = f"^seed must be a non-negative int or a tuple of them, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=message):
        generate_noise(params, 0.0, 10, 1.0, seed)
    with pytest.raises(ValueError, match=message):
        noise_rows(params, 0.0, 10, 1.0, [3, seed])


WORDS = st.sampled_from([0, 2**32 - 1, 2**32, 2**64, 2**70]) | st.integers(0, 2**80)
KEYS = WORDS | st.tuples(WORDS) | st.lists(WORDS, min_size=2, max_size=6).map(tuple)


@settings(max_examples=60)
@given(keys=st.lists(KEYS, min_size=1, max_size=6), driven=st.booleans())
@example(keys=[0, (2**70, 1), (1, 2, 3, 4, 5, 6), 2**64, (2**32 - 1,) * 6], driven=False)
@example(keys=[(7, 1, 2, 0), 2**70, (2**64, 0, 2**32)], driven=True)
def test_keyed_rows_are_default_rng_streams(keys, driven):
    # each row is the stream numpy's default_rng(key) gives, bit for bit,
    # whatever the word counts of the other keys in the call
    params = GaussianAcvfParams(sigma=1.5, nu=0.5 if driven else 0.0)
    rows = noise_rows(params, 0.0, 16, 1.0, keys)
    taps = smoothing_taps(0.5, 1.0)
    for row, key in zip(rows, keys):
        rng = np.random.default_rng(key)
        if driven:
            driving = rng.standard_normal(16 + taps.size - 1)
            want = 1.5 * np.convolve(driving, taps, mode="valid")
        else:
            want = rng.standard_normal(16)
            want *= 1.5
        assert row.tobytes() == want.tobytes()
