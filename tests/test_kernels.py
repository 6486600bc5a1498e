"""Analytic kernels, convolution and template estimation."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from stem1d import (
    Kernel,
    KernelFamily,
    SampledSequence,
    convolve,
    estimate_template,
    gaussian_kernel,
    load_kernel_csv,
    quartic_kernel,
    save_kernel_csv,
)
from stem1d.errors import (
    BandwidthTooSmallError,
    ConfigurationError,
    DegenerateSequenceError,
    GridMismatchError,
    InputFileError,
    NoQualifyingPeaksError,
)
from stem1d.kernels import convolve_rows


def test_gaussian_kernel_layout():
    k = gaussian_kernel(gamma=2.0, dt=0.5, trunc=3.0)
    m = int(2.0 * 3.0 / 0.5)
    assert len(k) == 2 * m + 1
    assert k.center_index == m
    assert k.family is KernelFamily.GAUSSIAN
    assert k.bandwidth == 2.0
    assert k.support == (-6.0, 6.0)
    assert k.half_support_samples == m
    np.testing.assert_allclose(k.weights, k.weights[::-1])
    assert k.weights.sum() * k.dt == pytest.approx(1.0, abs=1e-12)
    assert np.argmax(k.weights) == m


def _offsets(k):
    """Time offset of each weight relative to the center."""
    return (np.arange(k.weights.size) - k.center_index) * k.dt


def test_gaussian_kernel_second_moment():
    # after truncation at 3 sigma the variance shrinks by a known factor
    gamma = 1.0
    k = gaussian_kernel(gamma, dt=0.005)
    got = np.sum(k.weights * _offsets(k) ** 2) * k.dt
    z = 3.0
    shrink = 1.0 - 2.0 * z * stats.norm.pdf(z) / (2.0 * stats.norm.cdf(z) - 1.0)
    assert got == pytest.approx(gamma**2 * shrink, rel=3e-4)


def test_gaussian_trunc_parameter():
    wide = gaussian_kernel(1.0, 0.1, trunc=5.0)
    narrow = gaussian_kernel(1.0, 0.1, trunc=2.0)
    assert wide.support == (-5.0, 5.0)
    assert narrow.support == (-2.0, 2.0)
    with pytest.raises(ValueError):
        gaussian_kernel(1.0, 0.1, trunc=0.0)


def test_quartic_kernel_closed_form():
    gamma = 4.0
    k = quartic_kernel(gamma, dt=0.02)
    assert k.family is KernelFamily.QUARTIC
    assert k.support == (-4.0, 4.0)
    # peak weight 15/(16 gamma), second moment gamma^2/7
    assert k.weights[k.center_index] == pytest.approx(15.0 / (16.0 * gamma), rel=1e-4)
    got = np.sum(k.weights * _offsets(k) ** 2) * k.dt
    assert got == pytest.approx(gamma**2 / 7.0, rel=5e-4)
    assert k.weights[0] == pytest.approx(0.0, abs=1e-12)


def test_bandwidth_below_spacing_rejected():
    with pytest.raises(BandwidthTooSmallError):
        gaussian_kernel(0.5, dt=1.0)
    with pytest.raises(BandwidthTooSmallError):
        quartic_kernel(0.9, dt=1.0)
    gaussian_kernel(1.0, dt=1.0)  # equality is allowed
    # on a subnormal grid the weights, of order 1 / dt, would overflow
    for make in (gaussian_kernel, quartic_kernel):
        with pytest.raises(ConfigurationError, match="grid spacing 1e-320 is subnormal"):
            make(3e-320, dt=1e-320)
    assert np.isfinite(gaussian_kernel(3e-308, dt=sys.float_info.min).weights).all()


def test_kernel_validation():
    with pytest.raises(ValueError):
        Kernel(np.array([0.5, -0.1, 0.6]), 1.0, 1, 1.0, KernelFamily.GAUSSIAN)
    with pytest.raises(ValueError):
        Kernel(np.array([0.2, 0.2, 0.2]), 1.0, 5, 1.0, KernelFamily.TEMPLATE)
    # bimodal weights cannot pose as an analytic kernel
    with pytest.raises(ValueError):
        Kernel(np.array([0.4, 0.1, 0.5]), 1.0, 1, 1.0, KernelFamily.QUARTIC)
    # templates may carry negative lobes
    Kernel(np.array([-0.2, 1.0, -0.2]), 1.0, 1, 0.0, KernelFamily.TEMPLATE)


def test_convolve_impulse_recovers_weights():
    kernel = quartic_kernel(2.0, dt=0.5)
    values = np.zeros(41)
    values[20] = 1.0
    out = convolve(SampledSequence(values, dt=0.5), kernel)
    m = kernel.half_support_samples
    np.testing.assert_allclose(
        out.values[20 - m:20 + m + 1], kernel.weights * 0.5, rtol=1e-15
    )
    assert out.margin == m
    assert out.values[0] == 0.0


def test_convolve_margin_accumulates_and_grid_checked():
    seq = SampledSequence(np.zeros(100), dt=0.5, margin=4)
    kernel = gaussian_kernel(2.0, dt=0.5)
    out = convolve(seq, kernel)
    assert out.margin == 4 + kernel.half_support_samples
    assert (out.dt, out.t0) == (seq.dt, seq.t0)
    with pytest.raises(GridMismatchError):
        convolve(SampledSequence(np.zeros(100), dt=0.25), kernel)


_CONTRACT_KERNELS = (
    gaussian_kernel(1.5, 0.5),
    quartic_kernel(2.0, 0.5),
    # off-centre, with negative lobes
    Kernel(np.array([-0.3, 1.0, 0.6, -0.2, 0.1, 0.05]), 0.5, 1, 0.0, KernelFamily.TEMPLATE),
)


@settings(max_examples=120)
@given(
    kernel=st.sampled_from(_CONTRACT_KERNELS),
    extra=st.integers(-3, 3) | st.integers(-5, 60),  # lengths near the kernel's size
    writeable=st.booleans(),
    margin=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_convolve_is_numpy_convolve_times_dt(kernel, extra, writeable, margin, seed):
    # the kept slice of np.convolve's full output, times dt, bit for bit,
    # from a read-only result that shares no memory with the input; and
    # writing to the caller's array afterwards changes no sequence
    n = max(1, len(kernel) + extra)
    x = np.random.default_rng(seed).normal(size=n) * 10.0 ** (seed % 7 - 3)
    src = x.copy()
    src.setflags(write=writeable)
    seq = SampledSequence(src, dt=0.5, t0=-1.25, margin=margin)
    out = convolve(seq, kernel)
    c = kernel.center_index
    want = np.convolve(x, kernel.weights)[c:c + n] * 0.5
    assert out.values.tobytes() == want.tobytes()
    assert (out.dt, out.t0, out.margin) == (0.5, -1.25, margin + kernel.half_support_samples)
    assert not out.values.flags.writeable
    with pytest.raises(ValueError):
        out.values[0] = 1.0
    assert not np.shares_memory(out.values, seq.values)
    assert not np.shares_memory(out.values, src)
    if writeable:
        src[:] = 7.0
    assert seq.values.tobytes() == x.tobytes()
    assert out.values.tobytes() == want.tobytes()


def test_convolve_rows_matches_each_row():
    # a batch smooths each row as convolve smooths it alone
    kernel = _CONTRACT_KERNELS[2]
    rows = np.random.default_rng(3).normal(size=(3, 20))
    got = convolve_rows(rows, kernel, 0.5)
    for row, values in zip(rows, got):
        want = convolve(SampledSequence(row, dt=0.5), kernel).values
        assert values.tobytes() == want.tobytes()


def test_convolve_sinusoid_attenuation():
    # smoothing cos(wt) with a Gaussian of scale g scales it by exp(-g^2 w^2 / 2)
    dt = 0.01
    t = np.arange(-40.0, 40.0 + dt / 2, dt)
    seq = SampledSequence(np.cos(t), dt=dt, t0=t[0])
    out = convolve(seq, gaussian_kernel(1.0, dt))
    inner = slice(out.margin, len(out) - out.margin)
    np.testing.assert_allclose(
        out.values[inner], math.exp(-0.5) * np.cos(t[inner]), atol=5e-3
    )


def test_convolve_white_noise_variance():
    # unit white noise smoothed at gamma=3 has variance 1/(2 sqrt(pi) 3)
    rng = np.random.default_rng(7)
    seq = SampledSequence(rng.standard_normal(100_000), dt=1.0)
    out = convolve(seq, gaussian_kernel(3.0, dt=1.0))
    got = float(np.var(out.interior))
    assert got == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi) * 3.0), rel=0.05)


def _training_with_triangles(centers, n=400, dt=0.5, height=3.0, halfwidth=5):
    values = np.zeros(n)
    profile = height * (1.0 - np.abs(np.arange(-halfwidth, halfwidth + 1)) / halfwidth)
    for c in centers:
        lo = c - halfwidth
        values[lo:lo + profile.size] += profile
    return SampledSequence(values, dt=dt)


def test_estimate_template_averages_aligned_windows():
    train = _training_with_triangles([50, 150, 250, 350])
    kernel = estimate_template(train, height_threshold=1.0, window=11)
    assert kernel.family is KernelFamily.TEMPLATE
    assert kernel.center_index == 5
    assert kernel.bandwidth == 0.0
    expected = 1.0 - np.abs(np.arange(-5, 6)) / 5.0
    np.testing.assert_allclose(kernel.weights, expected, atol=1e-12)


def test_estimate_template_skips_clipped_peaks():
    # a spike flush against the start cannot fill a window and is dropped
    train = _training_with_triangles([5, 200])
    kernel = estimate_template(train, height_threshold=1.0, window=21)
    expected = np.zeros(21)
    expected[5:16] = 1.0 - np.abs(np.arange(-5, 6)) / 5.0
    np.testing.assert_allclose(kernel.weights, expected, atol=1e-12)


def test_estimate_template_failure_modes():
    quiet = SampledSequence(np.zeros(100), dt=1.0)
    with pytest.raises(NoQualifyingPeaksError) as info:
        estimate_template(quiet, height_threshold=0.5, window=5)
    assert str(info.value) == "no usable spikes found (count=0)"
    with pytest.raises(ValueError):
        estimate_template(quiet, height_threshold=0.5, window=2)
    # maxima exist but the averaged window never rises above zero
    dipped = SampledSequence(-_training_with_triangles([50]).values, dt=1.0)
    shifted = SampledSequence(dipped.values + 0.0, dt=1.0)
    vals = shifted.values.copy()
    vals[50] = -0.5  # local max among -3.0 neighbours, still negative
    vals[49] = vals[51] = -1.0
    with pytest.raises(DegenerateSequenceError):
        estimate_template(SampledSequence(vals, dt=1.0), height_threshold=-0.7, window=5)


def test_kernel_csv_roundtrip(tmp_path):
    train = _training_with_triangles([50, 150])
    kernel = estimate_template(train, height_threshold=1.0, window=9)
    path = tmp_path / "template.csv"
    save_kernel_csv(kernel, path, extra_header=("# source=unit-test",))
    text = path.read_text()
    assert text.startswith("# source=unit-test\n# dt=0.5 center=")
    loaded = load_kernel_csv(path)
    np.testing.assert_array_equal(loaded.weights, kernel.weights)
    assert loaded.dt == kernel.dt
    assert loaded.center_index == kernel.center_index
    assert loaded.family is KernelFamily.TEMPLATE


def test_kernel_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.5\n1.0\n")  # no header
    with pytest.raises(ValueError):
        load_kernel_csv(path)
    # center= given twice must repeat itself, or the last would be kept
    path.write_text("# dt=1.0 center=1\n# center=1\n0.5\n1.0\n0.5\n")
    assert load_kernel_csv(path).center_index == 1
    path.write_text("# dt=1.0 center=1\n# center=2\n0.5\n1.0\n0.5\n")
    with pytest.raises(InputFileError, match="line 2: center=2 conflicts with center=1"):
        load_kernel_csv(path)
