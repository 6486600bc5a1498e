"""Trial scoring, SNR helpers and the Monte Carlo sweep driver."""

import math

import numpy as np
import pytest
from scipy import stats

from stem1d import (
    CandidateSet,
    GaussianAcvfParams,
    KernelFamily,
    PeakSpec,
    Procedure,
    SignalSpec,
    SimulationDesign,
    TruncatedGaussianShape,
    closed_form_moments,
    compute_regions,
    gaussian_kernel,
    height_rule_report,
    optimal_bandwidth,
    preset_design,
    run_sweep,
    score_trial,
    smoothed_peak_height,
    snr,
    snr_general,
    synthesize_signal,
    theoretical_power,
)
from stem1d.evaluation import PRESET_NAMES


def _toy_regions():
    shape = TruncatedGaussianShape(b=2.0, c=2.0)  # support half-width 4
    spec = SignalSpec(
        peaks=(
            PeakSpec(shape=shape, amplitude=1.0, center=-30.0),
            PeakSpec(shape=shape, amplitude=1.0, center=30.0),
        ),
        domain_length=100.0,
    )
    kernel = gaussian_kernel(2.0, 1.0)  # dilates supports by 6
    return compute_regions(spec, kernel)


def _cands_at(locations, heights=None):
    locations = np.asarray(locations, dtype=float)
    if heights is None:
        heights = np.ones_like(locations)
    return CandidateSet(
        np.arange(locations.size), locations, np.asarray(heights, dtype=float)
    )


def test_score_trial_classifies_rejections():
    regions = _toy_regions()
    # one inside each peak support, one in the transition ring, two far out
    cands = _cands_at([-30.0, 30.5, 35.0, 0.0, 10.0])
    report = height_rule_report(cands, -math.inf, 0.05, Procedure.SUPREMUM)
    outcome = score_trial(report, cands, regions)
    assert outcome.rejected_in_signal == 2
    assert outcome.rejected_in_transition == 1
    assert outcome.rejected_in_null_core == 2
    assert outcome.false_rejections == 3
    assert outcome.total_rejections == 5
    assert outcome.rejected_in_smoothed_signal == 3
    assert outcome.false_discovery_proportion == pytest.approx(3 / 5)
    np.testing.assert_array_equal(outcome.detected_flags, [True, True])
    assert outcome.detected_fraction == 1.0
    np.testing.assert_array_equal(outcome.locmax_per_peak, [1, 1])


def test_score_trial_counts_all_candidates_per_support():
    regions = _toy_regions()
    cands = _cands_at([-31.0, -30.0, -29.0, 28.0], heights=[5.0, 1.0, 5.0, 5.0])
    # threshold cuts out the middle candidate but locmax still counts it
    report = height_rule_report(cands, 2.0, 0.05, Procedure.SUPREMUM)
    outcome = score_trial(report, cands, regions)
    np.testing.assert_array_equal(outcome.locmax_per_peak, [3, 1])
    assert outcome.rejected_in_signal == 3
    assert outcome.detected_fraction == 1.0


def test_score_trial_zero_rejections():
    regions = _toy_regions()
    cands = _cands_at([0.0])
    report = height_rule_report(cands, math.inf, 0.05, Procedure.SUPREMUM)
    outcome = score_trial(report, cands, regions)
    assert outcome.total_rejections == 0
    assert outcome.false_discovery_proportion == 0.0  # 0/max(0,1)
    assert outcome.detected_fraction == 0.0


def test_score_trial_converts_pointwise_reports_to_height_rule():
    regions = _toy_regions()
    cands = _cands_at([-30.0, 10.0], heights=[4.0, 1.0])
    # a sample-level report whose rejected set is empty; only its height
    # threshold matters for peak-level scoring
    report = height_rule_report(
        _cands_at([0.0]), 3.0, 0.05, Procedure.POINTWISE_BONFERRONI
    )
    outcome = score_trial(report, cands, regions)
    assert outcome.rejected_in_signal == 1
    assert outcome.rejected_in_null_core == 0
    np.testing.assert_array_equal(outcome.detected_flags, [True, False])


def _per_support_count(locations, supports):
    """Reference count of ``locations`` in each closed support, one by one."""
    return np.array(
        [np.count_nonzero((locations >= lo) & (locations <= hi)) for lo, hi in supports],
        dtype=np.int64,
    )


@pytest.mark.parametrize("threshold", ["random", "inf", "-inf"])
@pytest.mark.parametrize("seed", range(8))
def test_score_trial_matches_per_support_count(seed, threshold):
    rng = np.random.default_rng(seed)
    shape = TruncatedGaussianShape(b=2.0, c=2.0)  # support half-width 4
    # seed 0 has no peaks at all; the others have overlapping supports
    # listed in random (not sorted) order
    centers = rng.uniform(-40.0, 40.0, size=seed % 6)
    spec = SignalSpec(
        peaks=tuple(PeakSpec(shape=shape, amplitude=1.0, center=c) for c in centers),
        domain_length=100.0,
    )
    regions = compute_regions(spec, gaussian_kernel(2.0, 1.0))
    edges = np.array(regions.peak_supports).ravel()
    # random locations plus every support edge and its two float neighbours
    locations = np.unique(
        np.concatenate(
            [
                rng.uniform(-50.0, 50.0, size=40),
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
            ]
        )
    )
    heights = rng.normal(size=locations.size)
    cands = CandidateSet(np.arange(locations.size), locations, heights)
    cut = {"random": rng.normal(), "inf": math.inf, "-inf": -math.inf}[threshold]
    report = height_rule_report(cands, cut, 0.05, Procedure.SUPREMUM)
    outcome = score_trial(report, cands, regions)
    rejected = locations[heights > cut]
    want_detected = _per_support_count(rejected, regions.peak_supports) > 0
    want_locmax = _per_support_count(locations, regions.peak_supports)
    assert outcome.detected_flags.dtype == bool
    assert outcome.locmax_per_peak.dtype == np.int64
    np.testing.assert_array_equal(outcome.detected_flags, want_detected)
    np.testing.assert_array_equal(outcome.locmax_per_peak, want_locmax)
    assert outcome.total_rejections == rejected.size
    if threshold == "inf":
        assert not outcome.detected_flags.any()
    if seed == 0:
        assert outcome.detected_flags.shape == (0,)
        assert math.isnan(outcome.detected_fraction)


def test_smoothed_peak_height_gaussian_closed_form():
    # Gaussian bump smoothed by a Gaussian kernel has height
    # a / sqrt(2 pi (b^2 + gamma^2)) when truncation is negligible
    peak = PeakSpec(shape=TruncatedGaussianShape(b=3.0, c=6.0), amplitude=10.0, center=0.0)
    kernel = gaussian_kernel(2.0, 0.05, trunc=5.0)
    got = smoothed_peak_height(peak, kernel)
    want = 10.0 / math.sqrt(2.0 * math.pi * 13.0)
    assert got == pytest.approx(want, rel=1e-3)


def test_theoretical_power_is_gaussian_tail():
    peak = PeakSpec(shape=TruncatedGaussianShape(b=3.0, c=3.0), amplitude=12.0, center=0.0)
    kernel = gaussian_kernel(3.0, 0.5)
    moments = closed_form_moments(GaussianAcvfParams(1.0), 3.0)
    thr = 1.0
    mean = smoothed_peak_height(peak, kernel)
    want = stats.norm.cdf((mean - thr) / moments.sigma)
    assert theoretical_power(peak, kernel, moments, thr) == pytest.approx(want, rel=1e-12)


def test_snr_closed_form_value():
    # a = 15, sigma = 1, b = gamma = 3, white noise
    got = snr(15.0, 1.0, 3.0, 0.0, 3.0)
    want = 15.0 / (math.pi**0.25 * math.sqrt(2.0) * math.sqrt(3.0))
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(4.600, abs=1e-3)


def test_snr_is_maximized_at_optimal_bandwidth():
    b, nu = 3.0, 1.0
    star = optimal_bandwidth(b, nu)
    assert star == pytest.approx(math.sqrt(7.0))
    grid = np.linspace(0.0, 10.0, 401)
    values = [snr(1.0, 1.0, b, nu, g) for g in grid]
    assert snr(1.0, 1.0, b, nu, star) >= max(values)
    # heavily correlated noise wants no smoothing at all
    assert optimal_bandwidth(3.0, 3.0) == 0.0
    assert optimal_bandwidth(3.0, 0.0) == 3.0
    with pytest.raises(ValueError):
        optimal_bandwidth(-1.0)


def test_snr_general_matches_closed_form_for_gaussian_pair():
    b, gamma, sigma, amp = 3.0, 2.0, 2.0, 10.0
    peak = PeakSpec(
        shape=TruncatedGaussianShape(b=b, c=6.0), amplitude=amp, center=0.0
    )
    kernel = gaussian_kernel(gamma, 0.05, trunc=5.0)
    got = snr_general(kernel, peak, sigma)
    want = snr(amp, sigma, b, 0.0, gamma)
    assert got == pytest.approx(want, rel=0.01)
    with pytest.raises(ValueError):
        snr_general(kernel, peak, 0.0)


# ---------------------------------------------------------------------------
# design validation


def _tiny_signal():
    shape = TruncatedGaussianShape(b=3.0, c=3.0)
    return SignalSpec(
        peaks=(
            PeakSpec(shape=shape, amplitude=1.0, center=-50.0),
            PeakSpec(shape=shape, amplitude=1.0, center=50.0),
        ),
        domain_length=200.0,
    )


def _tiny_design(**overrides):
    base = dict(
        name="tiny",
        signal=_tiny_signal(),
        dt=1.0,
        noise=GaussianAcvfParams(sigma=1.0, nu=0.0),
        kernel_family=KernelFamily.GAUSSIAN,
        gamma_grid=(2.0, 4.0),
        amplitude_grid=(9.0, 15.0),
        procedures=(Procedure.BONFERRONI, Procedure.BH),
        replications=40,
    )
    base.update(overrides)
    return SimulationDesign(**base)


def test_design_validation():
    with pytest.raises(ValueError):
        _tiny_design(gamma_grid=())
    with pytest.raises(ValueError):
        _tiny_design(gamma_grid=(0.5,))  # below dt
    with pytest.raises(ValueError):
        _tiny_design(amplitude_grid=(0.0,))
    with pytest.raises(ValueError):
        _tiny_design(alpha=1.0)
    with pytest.raises(ValueError):
        _tiny_design(replications=0)
    with pytest.raises(ValueError):
        _tiny_design(moments_mode="oracle")
    with pytest.raises(ValueError):
        _tiny_design(kernel_family=KernelFamily.QUARTIC)  # closed form unavailable
    _tiny_design(kernel_family=KernelFamily.QUARTIC, moments_mode="estimated")
    with pytest.raises(ValueError):
        _tiny_design(kernel_family=KernelFamily.TEMPLATE, moments_mode="estimated")
    with pytest.raises(ValueError):
        _tiny_design(auto_bandwidth=True, procedures=(Procedure.SUPREMUM,))
    with pytest.raises(ValueError):
        _tiny_design(rice_convention="tight")


def test_with_options_replaces_and_revalidates():
    design = _tiny_design()
    faster = design.with_options(replications=5, alpha=0.1)
    assert faster.replications == 5
    assert faster.alpha == 0.1
    assert design.replications == 40  # original untouched
    with pytest.raises(ValueError):
        design.with_options(alpha=2.0)


def test_preset_designs_load():
    for name in PRESET_NAMES:
        design = preset_design(name)
        assert design.name == name
        assert design.replications == 10000
    assert preset_design("sim32").moments_mode == "estimated"
    assert preset_design("sim32").kernel_family is KernelFamily.QUARTIC
    assert len(preset_design("sim31").gamma_grid) == 10
    assert preset_design("sim34").procedures[-1] is Procedure.SUPREMUM
    assert preset_design("sim35").auto_bandwidth
    with pytest.raises(ValueError):
        preset_design("sim99")


# ---------------------------------------------------------------------------
# the sweep driver


def test_run_sweep_deterministic():
    design = _tiny_design(
        procedures=(
            Procedure.BONFERRONI,
            Procedure.BH,
            Procedure.POINTWISE_BH,
            Procedure.SUPREMUM,
        ),
        replications=30,
    )
    one = run_sweep(design, seed=5)
    again = run_sweep(design, seed=5)
    assert one.csv_lines() == again.csv_lines()
    other = run_sweep(design, seed=6)
    assert one.csv_lines() != other.csv_lines()


def test_run_sweep_cell_layout_and_lookup():
    design = _tiny_design(replications=10)
    res = run_sweep(design, seed=1)
    # 2 gammas x 2 amplitudes x (2 procedures + candidates row)
    assert len(res.cells) == 2 * 2 * 3
    power, se = res.lookup("power", "bh", gamma=4.0, amplitude=15.0)
    assert 0.0 <= power <= 1.0
    locmax, _ = res.lookup("locmax_per_peak", "candidates", gamma=2.0, amplitude=9.0)
    assert locmax >= 1.0 or math.isnan(locmax)
    with pytest.raises(KeyError):
        res.lookup("power", "supremum")
    rows = res.to_rows()
    header = res.csv_lines()[0]
    assert header == "gamma,amplitude,procedure,metric,value,se,replications"
    assert len(res.csv_lines()) == len(rows) + 1


def test_run_sweep_detects_strong_signal():
    design = _tiny_design(amplitude_grid=(15.0,), gamma_grid=(3.0,), replications=60)
    res = run_sweep(design, seed=11)
    power, se = res.lookup("power", "bonferroni", gamma=3.0, amplitude=15.0)
    assert power > 0.9
    fwer, _ = res.lookup("fwer", "bonferroni", gamma=3.0, amplitude=15.0)
    assert fwer <= 0.2
    locmax, _ = res.lookup("locmax_per_peak", "candidates", gamma=3.0, amplitude=15.0)
    assert locmax == pytest.approx(1.0, abs=0.2)


def test_run_sweep_auto_bandwidth_layout():
    design = _tiny_design(
        auto_bandwidth=True,
        gamma_grid=(2.0, 3.0, 4.0),
        amplitude_grid=(15.0,),
        replications=25,
    )
    res = run_sweep(design, seed=3)
    same = run_sweep(design, seed=3)
    assert res.csv_lines() == same.csv_lines()
    # per procedure: one summary cell with NaN gamma + one fraction per gamma
    assert len(res.cells) == 2 * (1 + 3)
    mean_gamma, _ = res.lookup("chosen_gamma_mean", "bh", amplitude=15.0)
    assert 2.0 <= mean_gamma <= 4.0
    fracs = [
        res.lookup("chosen_fraction", "bh", gamma=g, amplitude=15.0)[0]
        for g in (2.0, 3.0, 4.0)
    ]
    assert sum(fracs) == pytest.approx(1.0)
    summary = [c for c in res.cells if "chosen_gamma_mean" in c.metrics]
    assert all(math.isnan(c.gamma) for c in summary)


def test_run_sweep_estimated_moments_close_to_closed_form():
    design = _tiny_design(
        gamma_grid=(3.0,),
        amplitude_grid=(12.0,),
        replications=12,
        moments_mode="estimated",
        moments_length=2000.0,
        moments_reps=30,
    )
    est = run_sweep(design, seed=2)
    ref = run_sweep(design.with_options(moments_mode="closed_form"), seed=2)
    p_est, _ = est.lookup("power", "bh", gamma=3.0, amplitude=12.0)
    p_ref, _ = ref.lookup("power", "bh", gamma=3.0, amplitude=12.0)
    # same noise stream, near-identical moments: decisions mostly agree
    assert p_est == pytest.approx(p_ref, abs=0.1)

