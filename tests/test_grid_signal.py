"""Sequence container, peak shapes, signal synthesis and region accounting."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stem1d import (
    CauchyShape,
    EpanechnikovShape,
    LaplaceShape,
    PeakSpec,
    SampledSequence,
    SignalSpec,
    TriangularShape,
    TruncatedGaussianShape,
    compute_regions,
    gaussian_kernel,
    synthesize_signal,
)


# ---------------------------------------------------------------------------
# SampledSequence


def test_sequence_basic_grid():
    seq = SampledSequence([1.0, 2.0, 3.0, 4.0], dt=0.5, t0=-1.0)
    assert len(seq) == 4
    assert (seq.dt, seq.t0) == (0.5, -1.0)
    assert seq.t0 + seq.dt * (len(seq) - 1) == pytest.approx(0.5)


def test_sequence_values_are_read_only_copies():
    src = np.array([1.0, 2.0, 3.0])
    seq = SampledSequence(src, dt=1.0)
    src[0] = 99.0
    assert seq.values[0] == 1.0
    with pytest.raises(ValueError):
        seq.values[0] = 5.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(values=[], dt=1.0),
        dict(values=[[1.0, 2.0]], dt=1.0),
        dict(values=[1.0, float("nan")], dt=1.0),
        dict(values=[1.0, float("inf")], dt=1.0),
        dict(values=[1.0, 2.0], dt=0.0),
        dict(values=[1.0, 2.0], dt=-1.0),
        dict(values=[1.0, 2.0], dt=1.0, t0=float("nan")),
        dict(values=[1.0, 2.0], dt=1.0, margin=-1),
    ],
)
def test_sequence_rejects_bad_input(kwargs):
    with pytest.raises(ValueError):
        SampledSequence(**kwargs)


def test_sequence_values_view_a_private_writeable_buffer():
    # the constructor and with_values copy; an adopted array is the buffer
    src = np.array([1.0, 2.0, 3.0])
    seq = SampledSequence(src, dt=1.0)
    assert seq.values.base is seq._data and seq._data.flags.writeable
    assert not np.shares_memory(seq.values, src)
    other = seq.with_values(src)
    assert not np.shares_memory(other.values, src)
    adopted = SampledSequence._adopt(src, 1.0, 2.0, 1)
    assert adopted._data is src and not adopted.values.flags.writeable
    assert (adopted.dt, adopted.t0, adopted.margin) == (1.0, 2.0, 1)
    with pytest.raises(ValueError, match="values must be finite"):
        SampledSequence._adopt(np.array([1.0, np.nan]), 1.0)


@pytest.mark.parametrize(
    "n,dt,t0",
    [
        (100, 1e-20, 1.0),  # dt below an ulp of 1: times collide
        (100, 1e307, 0.0),  # the last time overflows
        (2, 1.0, 1e20),
        (3, 1e308, -1e308),  # finite ends, but dt * 2 overflows
        (2, 1.0, -1.7e308),
        (1, 5e-324, 0.0),
    ],
)
def test_sequence_refuses_colliding_or_overflowing_times(n, dt, t0):
    with pytest.raises(ValueError, match="sample times collide or overflow"):
        SampledSequence(np.zeros(n), dt=dt, t0=t0)


def test_sequence_takes_a_grid_of_a_few_ulps():
    # microseconds on a Unix-time clock: 1e-6 is 4.2 ulps of 1.7e9
    seq = SampledSequence(np.zeros(1000), dt=1e-6, t0=1.7e9)
    assert np.all(np.diff(seq.t0 + seq.dt * np.arange(1000)) > 0)


_T0 = st.sampled_from([0.0, -0.0, 1.0, -3.5, 1e-320, 5e-324, 1e20, -1e300, 1e308]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@settings(max_examples=300)
@given(
    t0=_T0,
    shift=st.integers(45, 55) | st.integers(-60, 1100),  # 50 is about 4 ulps
    mantissa=st.floats(1.0, 2.0),
    n=st.integers(1, 200),
)
@example(t0=1.0, shift=66, mantissa=1.0, n=100)
@example(t0=0.0, shift=-1020, mantissa=1.0, n=100)
@example(t0=-1e308, shift=0, mantissa=1.0, n=2)
def test_accepted_grids_have_distinct_finite_times(t0, shift, mantissa, n):
    # dt from far above the times' scale to far below an ulp of it: every
    # grid the constructor accepts has finite, strictly increasing times,
    # computed as find_local_maxima computes them
    scale = max(abs(t0), 1.0)
    dt = min(scale * mantissa * 2.0**-shift, 1.7e308)
    if not dt > 0.0:
        dt = 5e-324
    try:
        seq = SampledSequence(np.zeros(n), dt=dt, t0=t0)
    except ValueError as exc:
        # or, for a spacing below the smallest normal double, a subnormal one
        subnormal = dt < np.finfo(np.float64).tiny and "is subnormal" in str(exc)
        assert "sample times collide or overflow" in str(exc) or subnormal
        return
    times = seq.t0 + seq.dt * np.arange(n)
    assert np.isfinite(times).all()
    assert np.all(np.diff(times) > 0)


def test_interior_strips_margins():
    seq = SampledSequence(np.arange(10.0), dt=1.0, margin=3)
    np.testing.assert_allclose(seq.interior, [3.0, 4.0, 5.0, 6.0])
    assert SampledSequence(np.arange(4.0), dt=1.0, margin=2).interior.size == 0
    assert SampledSequence(np.arange(4.0), dt=1.0, margin=0).interior.size == 4


def test_with_values_keeps_grid_and_margin():
    seq = SampledSequence([1.0, 2.0, 3.0], dt=0.25, t0=4.0, margin=1)
    out = seq.with_values([5.0, 6.0, 7.0])
    assert (out.dt, out.t0, out.margin) == (0.25, 4.0, 1)
    assert seq.with_values([0.0, 0.0, 0.0], margin=0).margin == 0


# ---------------------------------------------------------------------------
# peak shapes


def _trapezoid_mass(shape, dt):
    h = shape.half_support
    t = np.arange(-h, h + dt / 2, dt)
    return np.trapezoid(shape.density(t), dx=dt)


def test_truncated_gaussian_shape():
    shape = TruncatedGaussianShape(b=3.0, c=3.0)
    assert shape.half_support == pytest.approx(9.0)
    assert shape.density(np.array([0.0]))[0] == pytest.approx(
        1.0 / (3.0 * math.sqrt(2.0 * math.pi))
    )
    assert shape.density(np.array([9.0001]))[0] == 0.0
    # truncated mass is erf(c / sqrt(2)), not renormalized away
    assert _trapezoid_mass(shape, 0.001) == pytest.approx(
        math.erf(3.0 / math.sqrt(2.0)), abs=1e-6
    )


def test_compact_shapes_have_unit_mass():
    for shape in (EpanechnikovShape(5.0), TriangularShape(4.0)):
        assert _trapezoid_mass(shape, 0.0005) == pytest.approx(1.0, abs=1e-6)


def test_epanechnikov_profile():
    shape = EpanechnikovShape(halfwidth=2.0)
    assert shape.density(np.array([0.0]))[0] == pytest.approx(0.375)
    assert shape.density(np.array([2.0]))[0] == 0.0
    assert shape.density(np.array([1.0]))[0] == pytest.approx(0.375 * 0.75)


def test_laplace_and_cauchy_truncated_mass():
    lap = LaplaceShape(b=2.0, c=4.0)
    assert lap.half_support == pytest.approx(8.0)
    assert _trapezoid_mass(lap, 0.0005) == pytest.approx(1.0 - math.exp(-4.0), abs=1e-5)
    cau = CauchyShape(b=1.5, c=4.0)
    assert cau.half_support == pytest.approx(6.0)
    assert _trapezoid_mass(cau, 0.0005) == pytest.approx(
        2.0 / math.pi * math.atan(4.0), abs=1e-5
    )


@pytest.mark.parametrize(
    "factory",
    [
        lambda: TruncatedGaussianShape(b=-1.0),
        lambda: EpanechnikovShape(0.0),
        lambda: TriangularShape(-2.0),
        lambda: LaplaceShape(b=1.0, c=0.0),
        lambda: CauchyShape(b=0.0, c=1.0),
    ],
)
def test_shapes_reject_bad_scales(factory):
    with pytest.raises(ValueError):
        factory()


# ---------------------------------------------------------------------------
# peak and signal specs


def test_peak_spec_support_and_evaluate():
    peak = PeakSpec(shape=TriangularShape(2.0), amplitude=3.0, center=5.0)
    assert peak.support == (3.0, 7.0)
    assert peak.evaluate(np.array([5.0]))[0] == pytest.approx(1.5)
    assert peak.evaluate(np.array([7.5]))[0] == 0.0
    with pytest.raises(ValueError):
        PeakSpec(shape=TriangularShape(2.0), amplitude=0.0, center=0.0)


def test_signal_spec_rejects_peak_outside_domain():
    peak = PeakSpec(shape=TriangularShape(2.0), amplitude=1.0, center=9.5)
    with pytest.raises(ValueError):
        SignalSpec(peaks=(peak,), domain_length=20.0)
    SignalSpec(peaks=(peak,), domain_length=23.0)  # fits


def test_synthesize_two_disjoint_peaks_mass():
    # the integral over the grid recovers the sum of the amplitudes
    shape = EpanechnikovShape(5.0)
    spec = SignalSpec(
        peaks=(
            PeakSpec(shape=shape, amplitude=2.0, center=-20.0),
            PeakSpec(shape=shape, amplitude=3.0, center=20.0),
        ),
        domain_length=100.0,
    )
    dt = 2.0 * shape.half_support / 100.0
    seq = synthesize_signal(spec, dt)
    mass = np.trapezoid(seq.values, dx=dt)
    assert mass == pytest.approx(5.0, rel=0.01)
    assert seq.t0 == pytest.approx(-50.0)
    assert seq.t0 + seq.dt * (len(seq) - 1) == pytest.approx(50.0)


def test_synthesize_rejects_unresolved_peak():
    spec = SignalSpec(
        peaks=(PeakSpec(shape=TriangularShape(0.4), amplitude=1.0, center=0.0),),
        domain_length=10.0,
    )
    with pytest.raises(ValueError):
        synthesize_signal(spec, dt=1.0)
    synthesize_signal(spec, dt=0.25)  # resolves


# ---------------------------------------------------------------------------
# regions


def test_compute_regions_dilates_by_kernel_support():
    spec = SignalSpec(
        peaks=(PeakSpec(shape=TriangularShape(3.0), amplitude=1.0, center=0.0),),
        domain_length=60.0,
    )
    kernel = gaussian_kernel(gamma=2.0, dt=1.0, trunc=3.0)
    regions = compute_regions(spec, kernel)
    assert regions.signal == ((-3.0, 3.0),)
    assert regions.smoothed_signal == ((-9.0, 9.0),)


def test_overlapping_peaks_merge_in_regions():
    shape = TriangularShape(4.0)
    spec = SignalSpec(
        peaks=(
            PeakSpec(shape=shape, amplitude=1.0, center=-2.0),
            PeakSpec(shape=shape, amplitude=1.0, center=2.0),
        ),
        domain_length=40.0,
    )
    regions = compute_regions(spec, gaussian_kernel(1.0, 0.5))
    assert regions.signal == ((-6.0, 6.0),)
    assert len(regions.peak_supports) == 2


def test_regions_sort_and_merge_peaks_listed_out_of_order():
    # the last two supports overlap, the first lies apart until smoothing
    shape = TriangularShape(4.0)
    spec = SignalSpec(
        peaks=tuple(
            PeakSpec(shape=shape, amplitude=1.0, center=c) for c in (20.0, -2.0, 2.0)
        ),
        domain_length=80.0,
    )
    kernel = gaussian_kernel(gamma=2.0, dt=1.0, trunc=3.0)
    assert kernel.support == (-6.0, 6.0)
    regions = compute_regions(spec, kernel)
    assert regions.peak_supports == ((16.0, 24.0), (-6.0, 2.0), (-2.0, 6.0))
    assert regions.signal == ((-6.0, 6.0), (16.0, 24.0))
    assert regions.smoothed_signal == ((-12.0, 30.0),)
