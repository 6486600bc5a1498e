"""Trial scoring and the Monte Carlo sweep driver."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stem1d import (
    CandidateSet,
    GaussianAcvfParams,
    KernelFamily,
    PeakSpec,
    Procedure,
    SampledRows,
    SampledSequence,
    SignalSpec,
    SimulationDesign,
    SweepRow,
    TriangularShape,
    TrialOutcome,
    TruncatedGaussianShape,
    candidate_pvalues,
    compute_regions,
    convolve,
    estimate_moments,
    find_local_maxima,
    gaussian_kernel,
    generate_noise,
    height_rule_report,
    pointwise_correct,
    pointwise_pvalues,
    preset_design,
    run_sweep,
    score_trial,
    supremum_threshold,
    synthesize_signal,
)
from stem1d import evaluation
from stem1d.errors import DegenerateSequenceError
from stem1d.evaluation import (
    _CALIBRATION_BLOCK,
    _CALIBRATION_STREAM,
    _TRIAL_BLOCK,
    _TRIAL_STREAM,
    PRESET_NAMES,
    _Band,
    _block,
    _cell_moments,
    _cell_stats,
    most_rejections,
)
from stem1d.multitest import run_procedure


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


def _first(outcome):
    """The score of the first report on the first row, as its own outcome."""
    counts = (
        outcome.rejected_in_signal,
        outcome.rejected_in_transition,
        outcome.rejected_in_null_core,
        outcome.detected_flags,
    )
    return TrialOutcome(*(x[0, 0] for x in counts), outcome.locmax_per_peak[0])


def _score_height_rule(cands, threshold, regions):
    """One height rule scored on a one-row set, as a batch of one."""
    report = height_rule_report(cands, np.array([threshold]), 0.05, Procedure.SUPREMUM)
    return _first(score_trial([report], cands, [regions]))


def test_score_trial_classifies_rejections():
    regions = _toy_regions()
    # one inside each peak support, one in the transition ring, two far out
    cands = _cands_at([-30.0, 30.5, 35.0, 0.0, 10.0])
    outcome = _score_height_rule(cands, -math.inf, regions)
    assert outcome.rejected_in_signal == 2
    assert outcome.rejected_in_transition == 1
    assert outcome.rejected_in_null_core == 2
    assert outcome.false_rejections == 3
    assert outcome.total_rejections == 5
    assert outcome.false_discovery_proportion == pytest.approx(3 / 5)
    np.testing.assert_array_equal(outcome.detected_flags, [True, True])
    assert outcome.detected_fraction == 1.0
    np.testing.assert_array_equal(outcome.locmax_per_peak, [1, 1])


def test_score_trial_boundary_precedence():
    # one triangular peak of half-width 3, smoothed with a reach of 6: the
    # support is [-3, 3] and the smoothed support [-9, 9]
    spec = SignalSpec(
        peaks=(PeakSpec(shape=TriangularShape(3.0), amplitude=1.0, center=0.0),),
        domain_length=60.0,
    )
    regions = compute_regions(spec, gaussian_kernel(2.0, 1.0))
    signal, transition, null_core = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    expected = {
        0.0: signal,
        3.0: signal,  # a support edge counts as signal
        -3.0: signal,
        np.nextafter(3.0, 4.0): transition,
        5.0: transition,
        9.0: transition,  # a smoothed edge counts as transition
        -9.0: transition,
        np.nextafter(9.0, 10.0): null_core,
        9.5: null_core,
        -25.0: null_core,
    }
    for t, where in expected.items():
        cands = _cands_at([t])
        outcome = _score_height_rule(cands, -math.inf, regions)
        got = (
            outcome.rejected_in_signal,
            outcome.rejected_in_transition,
            outcome.rejected_in_null_core,
        )
        assert got == where, t


def test_score_trial_counts_all_candidates_per_support():
    regions = _toy_regions()
    cands = _cands_at([-31.0, -30.0, -29.0, 28.0], heights=[5.0, 1.0, 5.0, 5.0])
    # threshold cuts out the middle candidate but locmax still counts it
    outcome = _score_height_rule(cands, 2.0, regions)
    np.testing.assert_array_equal(outcome.locmax_per_peak, [3, 1])
    assert outcome.rejected_in_signal == 3
    assert outcome.detected_fraction == 1.0


def test_score_trial_zero_rejections():
    regions = _toy_regions()
    cands = _cands_at([0.0])
    outcome = _score_height_rule(cands, math.inf, regions)
    assert outcome.total_rejections == 0
    assert outcome.false_discovery_proportion == 0.0  # 0/max(0,1)
    assert outcome.detected_fraction == 0.0


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
    outcome = _score_height_rule(cands, cut, regions)
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


@pytest.mark.parametrize(
    "options,message",
    [
        (dict(gamma_grid=(3.0, 3.0, 4.0)), "gamma_grid[0] and gamma_grid[1] repeat 3.0"),
        (dict(gamma_grid=(2.0, 4.0, 2.0 + 1e-9)), "gamma_grid[0] and gamma_grid[2]"),
        (dict(gamma_grid=(3.0, 3.0), auto_bandwidth=True), "gamma_grid[0] and"),
        (dict(amplitude_grid=(9.0, 15.0, 9.0)), "amplitude_grid[0] and amplitude_grid[2]"),
    ],
)
def test_design_refuses_repeated_grid_values(options, message):
    # a repeated bandwidth would be counted twice by chosen_fraction, and
    # either repeat writes cells that lookup cannot tell apart
    with pytest.raises(ValueError) as info:
        _tiny_design(**options)
    assert message in str(info.value)
    # values just past the tolerance are distinct cells
    _tiny_design(gamma_grid=(2.0, 2.0 + 3e-9), amplitude_grid=(9.0, 9.0 + 1e-8))


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


def test_run_sweep_refuses_a_negative_seed():
    design = _tiny_design(replications=2)
    message = "seed must be a non-negative integer, got -1"
    with mock.patch.object(evaluation, "synthesize_signal") as synthesize:
        with pytest.raises(ValueError, match=message):
            run_sweep(design, seed=-1)
    synthesize.assert_not_called()  # refused before any set-up


def test_run_sweep_cell_layout_and_lookup():
    design = _tiny_design(replications=10)
    res = run_sweep(design, seed=1)
    # 2 gammas x 2 amplitudes x (2 procedures x 3 metrics + candidates row)
    assert len(res.rows) == 2 * 2 * (2 * 3 + 1)
    assert all(isinstance(row, SweepRow) for row in res.rows)
    power, se = res.lookup("power", "bh", gamma=4.0, amplitude=15.0)
    assert 0.0 <= power <= 1.0
    locmax, _ = res.lookup("locmax_per_peak", "candidates", gamma=2.0, amplitude=9.0)
    assert locmax >= 1.0 or math.isnan(locmax)
    with pytest.raises(KeyError):
        res.lookup("power", "supremum")
    header = res.csv_lines()[0]
    assert header == "gamma,amplitude,procedure,metric,value,se,replications"
    assert len(res.csv_lines()) == len(res.rows) + 1


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
    # per procedure: four summary rows with NaN gamma + one fraction per gamma
    assert len(res.rows) == 2 * (4 + 3)
    mean_gamma, _ = res.lookup("chosen_gamma_mean", "bh", amplitude=15.0)
    assert 2.0 <= mean_gamma <= 4.0
    fracs = [
        res.lookup("chosen_fraction", "bh", gamma=g, amplitude=15.0)[0]
        for g in (2.0, 3.0, 4.0)
    ]
    assert sum(fracs) == pytest.approx(1.0)
    summary = [row for row in res.rows if row.metric == "chosen_gamma_mean"]
    assert len(summary) == 2
    assert all(math.isnan(row.gamma) for row in summary)


def test_most_rejections_prefers_more_then_the_smaller_bandwidth():
    assert most_rejections([2, 1], [3.0, 15.0]) == 0
    assert most_rejections([1, 2], [3.0, 15.0]) == 1
    # a tie, the wider bandwidth listed first
    assert most_rejections([2, 2], [4.0, 3.0]) == 1
    assert most_rejections([0, 3, 3, 1], [5.0, 4.0, 2.0, 1.0]) == 2


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


def _ref_proportion_stats(flags):
    n = flags.size
    p = float(np.mean(flags))
    return p, math.sqrt(p * (1.0 - p) / n)


def _ref_mean_stats(x):
    x = x[~np.isnan(x)]
    if x.size == 0:
        return float("nan"), float("nan")
    if x.size == 1:
        return float(x[0]), float("nan")
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(x.size))


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 7, 8, 9, 127, 128, 129, 1000]),
    kind=st.sampled_from(["flags", "fractions", "reals"]),
)
def test_cell_stats_match_per_cell_reductions_bitwise(seed, n, kind):
    # every cell of one reduction equals the reduction of that cell alone,
    # across numpy's 8- and 128-element pairwise-summation blocks; a cell
    # is all NaN, as power is on a signal with no peaks
    rng = np.random.default_rng(seed)
    shape = (2, 3, 4, n)
    if kind == "flags":
        x = (rng.random(shape) < rng.random((*shape[:-1], 1))).astype(float)
    elif kind == "fractions":
        m = rng.integers(1, 12, (*shape[:-1], 1))
        x = rng.integers(0, m + 1, shape) / m
    else:
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, (*shape[:-1], 1))
    x[1, 2, 0] = np.nan
    checks = [(False, _ref_mean_stats)]
    if kind == "flags":
        checks.append((True, _ref_proportion_stats))
    for proportion, ref in checks:
        got = _cell_stats(x, proportion=proportion)
        for index in np.ndindex(shape[:-1]):
            cell = got[index[0]][index[1]][index[2]]
            assert all(type(v) is float for v in cell)
            want = ref(x[index])
            assert [v.hex() for v in cell] == [v.hex() for v in want], (index, proportion)


# ---------------------------------------------------------------------------
# estimated moments: the block calibration against one run at a time


def _per_run_moments(design, kernel, kernel_index, seed):
    """Reference calibration: each run through the sequence-level calls,
    summed in run order."""
    acc = np.zeros(3)
    for rep in range(design.moments_reps):
        raw = generate_noise(
            design.noise,
            0.0,
            design.calibration_samples,
            design.dt,
            seed=(seed, _CALIBRATION_STREAM, kernel_index, rep),
        )
        m = estimate_moments(convolve(raw, kernel), zero_mean=True)
        acc += (m.sigma2, m.lambda2, m.lambda4)
    acc /= design.moments_reps
    return tuple(acc.tolist())


@pytest.mark.parametrize(
    "reps", [1, _CALIBRATION_BLOCK, _CALIBRATION_BLOCK + 1, 2 * _CALIBRATION_BLOCK + 3]
)
@pytest.mark.parametrize("family", [KernelFamily.GAUSSIAN, KernelFamily.QUARTIC])
@pytest.mark.parametrize("dt", [1.0, 0.5])
@pytest.mark.parametrize("nu", [0.0, 1.5])
@settings(max_examples=4)
@given(
    seed=st.integers(0, 2**32),
    gamma=st.floats(1.0, 4.0),
    length=st.floats(60.0, 300.0),
)
def test_block_calibration_matches_per_run_bits(nu, dt, family, reps, seed, gamma, length):
    design = _tiny_design(
        noise=GaussianAcvfParams(sigma=1.3, nu=nu),
        dt=dt,
        kernel_family=family,
        gamma_grid=(gamma,),
        moments_mode="estimated",
        moments_length=length,
        moments_reps=reps,
    )
    kernel = design.build_kernel(gamma)
    try:
        want = _per_run_moments(design, kernel, 3, seed)
    except DegenerateSequenceError:  # a short, smooth run can fail delta > 0
        with pytest.raises(DegenerateSequenceError):
            _cell_moments(design, kernel, 3, seed, gamma)
        return
    got = _cell_moments(design, kernel, 3, seed, gamma)
    assert (got.sigma2, got.lambda2, got.lambda4) == want


@pytest.mark.parametrize("zero_mean", [False, True])
def test_block_moments_match_each_sequence(zero_mean):
    rng = np.random.default_rng(5)
    block = rng.standard_normal((5, 300)).cumsum(axis=1) + 2.0
    rows = estimate_moments(block, zero_mean=zero_mean, dt=0.5, margin=7)
    assert rows.shape == (5, 3)
    for values, row in zip(block, rows):
        m = estimate_moments(SampledSequence(values, dt=0.5, margin=7), zero_mean)
        assert (m.sigma2, m.lambda2, m.lambda4) == tuple(row.tolist())


def test_degenerate_calibration_run_raises():
    block = np.random.default_rng(6).standard_normal((4, 50))
    block[2] = 1.0  # constant: zero derivative variance
    with pytest.raises(DegenerateSequenceError, match="run 2"):
        estimate_moments(block, zero_mean=True, dt=1.0, margin=0)
    block[2, 10] = np.inf
    with pytest.raises(DegenerateSequenceError, match="run 2: values must be finite"):
        estimate_moments(block, dt=1.0, margin=0)
    with pytest.raises(DegenerateSequenceError, match="interior samples"):
        estimate_moments(block[:, :29], dt=1.0, margin=10)
    # noise so small that every square underflows to zero
    design = _tiny_design(
        noise=GaussianAcvfParams(sigma=1e-200),
        gamma_grid=(2.0,),
        moments_mode="estimated",
        moments_length=100.0,
        moments_reps=_CALIBRATION_BLOCK + 1,
    )
    with pytest.raises(DegenerateSequenceError):
        _cell_moments(design, design.build_kernel(2.0), 0, 1, 2.0)


# ---------------------------------------------------------------------------
# the block of replications against the per-view trial it replaced


class _RefView:
    """One realization smoothed at one bandwidth, as the rules see it."""

    def __init__(self, band, smoothed):
        self.band = band
        self.smoothed = smoothed
        self.cands = candidate_pvalues(find_local_maxima(smoothed), [band.moments], [0])

    @property
    def samples(self):
        z = self.smoothed
        rows = SampledRows(z.values[np.newaxis], z.dt, z.t0, [z.margin])
        return pointwise_pvalues(rows, [self.band.moments])


def _ref_candidate_rule(views, proc, design):
    return [
        run_procedure(view.cands, design.alpha, [view.band.moments], [0], [proc])[0]
        for view in views
    ]


def _ref_pointwise_rule(views, proc, design):
    # each view's sample-level correction, scored as its height rule
    alpha = design.alpha
    reports = [
        pointwise_correct(v.samples, alpha, proc, [v.band.moments]) for v in views
    ]
    return [
        height_rule_report(view.cands, r.height_threshold, alpha, proc)
        for view, r in zip(views, reports)
    ]


def _ref_supremum_rule(views, proc, design):
    length, alpha = design.signal.domain_length, design.alpha
    thresholds = [supremum_threshold([v.band.moments], length, alpha) for v in views]
    return [
        height_rule_report(view.cands, u, alpha, proc)
        for view, u in zip(views, thresholds)
    ]


_REF_RULES = {
    Procedure.BONFERRONI: _ref_candidate_rule,
    Procedure.BH: _ref_candidate_rule,
    Procedure.POINTWISE_BONFERRONI: _ref_pointwise_rule,
    Procedure.POINTWISE_BH: _ref_pointwise_rule,
    Procedure.SUPREMUM: _ref_supremum_rule,
}


def _reference_trial(design, seed, base_mu, bands, rep):
    """The per-view trial loop, one report and one score per view and
    procedure, each view a batch of one."""
    noise = generate_noise(
        design.noise,
        0.0,
        base_mu.values.size,
        design.dt,
        seed=(seed, _TRIAL_STREAM, rep),
    )
    sn = SampledSequence(noise.values, design.dt, t0=base_mu.t0)
    smoothed_noise = [convolve(sn, band.kernel) for band in bands]
    columns = 1 if design.auto_bandwidth else len(bands)
    shape = (columns, len(design.amplitude_grid), len(design.procedures))
    record = {name: np.empty(shape) for name in ("fwer", "fdr", "power")}
    if design.auto_bandwidth:
        record["chosen"] = np.empty(shape, dtype=int)
    else:
        record["locmax_per_peak"] = np.empty(shape[:2])
    # every amplitude's views, amplitude-major, so each rule runs once
    views = [
        _RefView(band, z.with_values(amp * band.smoothed_mu.values + z.values))
        for amp in design.amplitude_grid
        for band, z in zip(bands, smoothed_noise)
    ]
    for p, proc in enumerate(design.procedures):
        all_reports = _REF_RULES[proc](views, proc, design)
        for a in range(len(design.amplitude_grid)):
            row = slice(a * len(bands), (a + 1) * len(bands))
            reports, row_views = all_reports[row], views[row]
            if design.auto_bandwidth:
                counts = [report.num_rejected for report in reports]
                scored = [most_rejections(counts, design.gamma_grid)]
            else:
                scored = range(len(bands))
            for c, k in enumerate(scored):
                outcome = _first(
                    score_trial([reports[k]], row_views[k].cands, [bands[k].regions])
                )
                locmax = outcome.locmax_per_peak
                record["fwer"][c, a, p] = outcome.false_rejections > 0
                record["fdr"][c, a, p] = outcome.false_discovery_proportion
                record["power"][c, a, p] = outcome.detected_fraction
                if design.auto_bandwidth:
                    record["chosen"][c, a, p] = k
                else:
                    record["locmax_per_peak"][c, a] = (
                        locmax.mean() if locmax.size else float("nan")
                    )
    return record


def _trial_design(family, dt, gammas, amplitudes, procedures, auto):
    shape = TruncatedGaussianShape(b=2.0, c=3.0)
    centers = (-40.0, -1.5, 30.0)
    signal = SignalSpec(
        peaks=tuple(PeakSpec(shape=shape, amplitude=1.0, center=c) for c in centers),
        domain_length=120.0,
    )
    estimated = family is KernelFamily.QUARTIC
    return SimulationDesign(
        name="trial",
        signal=signal,
        dt=dt,
        noise=GaussianAcvfParams(sigma=1.0, nu=0.5 if estimated else 0.0),
        kernel_family=family,
        gamma_grid=gammas,
        amplitude_grid=amplitudes,
        procedures=procedures,
        moments_mode="estimated" if estimated else "closed_form",
        moments_length=200.0,
        moments_reps=2,
        auto_bandwidth=auto,
        replications=3,
    )


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**31 - 1),
    first=st.integers(0, 20),
    family=st.sampled_from([KernelFamily.GAUSSIAN, KernelFamily.QUARTIC]),
    dt=st.sampled_from([1.0, 0.5]),
    gammas=st.lists(st.sampled_from([1.0, 1.5, 2.5, 4.0, 7.0, 20.0]), min_size=1,
                    max_size=4, unique=True),
    amplitudes=st.lists(st.sampled_from([0.01, 2.0, 5.0, 9.0]), min_size=1,
                        max_size=3, unique=True),
    procedures=st.lists(st.sampled_from(list(Procedure)), min_size=1, unique=True),
    auto=st.booleans(),
)
def test_batched_trial_matches_per_view_trial_bitwise(
    seed, first, family, dt, gammas, amplitudes, procedures, auto
):
    # a Gaussian gamma=20 kernel leaves one testable sample of the grid
    # (a margin of 60 of 121 samples at dt=1, 120 of 241 at dt=0.5), so
    # rows of zero or one candidate occur; amplitude 0.01 gives rows on
    # which BH rejects nothing
    if auto:
        procedures = [p for p in procedures if p in (Procedure.BONFERRONI, Procedure.BH)]
        procedures = procedures or [Procedure.BH]
    design = _trial_design(family, dt, tuple(gammas), tuple(amplitudes),
                           tuple(procedures), auto)
    base_mu = synthesize_signal(design.signal, design.dt)
    bands = [
        _Band(design, index, gamma, base_mu, seed)
        for index, gamma in enumerate(design.gamma_grid)
    ]
    # one batched solve for every band, as run_sweep makes
    length = design.signal.domain_length
    sup = supremum_threshold([band.moments for band in bands], length, design.alpha)
    # one block of several replications, starting anywhere in the stream
    reps = range(first, first + design.replications)
    block = _block(design, seed, base_mu, bands, sup, reps)
    for i, rep in enumerate(reps):
        want = _reference_trial(design, seed, base_mu, bands, rep)
        assert sorted(block) == sorted(want)
        for name in want:
            got = block[name][..., i]
            assert got.shape == want[name].shape, name
            assert got.dtype == want[name].dtype, name
            assert got.tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize(
    "reps", [1, _TRIAL_BLOCK, _TRIAL_BLOCK + 1, 2 * _TRIAL_BLOCK + 3]
)
@pytest.mark.parametrize("auto", [False, True])
@settings(max_examples=3)
@given(seed=st.integers(0, 2**32))
def test_sweep_bits_do_not_depend_on_the_block_size(auto, reps, seed):
    # all five procedures (two of them pointwise), or auto-bandwidth
    procedures = (Procedure.BONFERRONI, Procedure.BH) if auto else tuple(Procedure)
    design = _tiny_design(
        procedures=procedures,
        auto_bandwidth=auto,
        gamma_grid=(2.0, 3.0, 4.0),
        replications=reps,
    )
    want = run_sweep(design, seed=seed).csv_lines()
    with mock.patch.object(evaluation, "_TRIAL_BLOCK", 1):
        got = run_sweep(design, seed=seed).csv_lines()
    assert got == want


def test_score_trial_batch_matches_single_reports():
    # three rows scored against two region sets (two kernels), with one
    # rejected-set report and one height-rule (pointwise-style) report:
    # every (procedure, row) equals the score of the row alone, a batch of one
    rng = np.random.default_rng(8)
    shape = TruncatedGaussianShape(b=2.0, c=2.0)
    spec = SignalSpec(
        peaks=tuple(
            PeakSpec(shape=shape, amplitude=1.0, center=c) for c in (-30.0, -26.0, 20.0)
        ),
        domain_length=100.0,
    )
    regions = [compute_regions(spec, gaussian_kernel(g, 1.0)) for g in (1.0, 4.0, 1.0)]
    sizes = (25, 0, 40)
    rows = np.repeat(np.arange(3), sizes)
    grid = np.arange(-50.0, 51.0)
    locations = np.concatenate([np.sort(rng.choice(grid, n, False)) for n in sizes])
    heights = rng.normal(size=rows.size)
    cands = CandidateSet(np.arange(rows.size), locations, heights, rows=rows)
    thresholds = np.array([0.3, 0.0, -0.4])
    reports = [
        height_rule_report(cands, thresholds, 0.05, Procedure.SUPREMUM),
        height_rule_report(cands, -thresholds, 0.05, Procedure.POINTWISE_BH),
    ]
    batch = score_trial(reports, cands, regions)
    for p, report in enumerate(reports):
        for row in range(3):
            one = cands.select(cands.rows == row)
            single = CandidateSet(one.indices, one.locations, one.heights)
            threshold = report.height_threshold[row:row + 1]
            rule = height_rule_report(single, threshold, 0.05, report.procedure)
            want = _first(score_trial([rule], single, [regions[row]]))
            got_fdr = batch.false_discovery_proportion[p, row]
            assert batch.rejected_in_signal[p, row] == want.rejected_in_signal
            assert batch.rejected_in_transition[p, row] == want.rejected_in_transition
            assert batch.rejected_in_null_core[p, row] == want.rejected_in_null_core
            assert (batch.detected_flags[p, row] == want.detected_flags).all()
            assert (batch.locmax_per_peak[row] == want.locmax_per_peak).all()
            assert got_fdr == want.false_discovery_proportion
            if np.isnan(want.detected_fraction):
                assert np.isnan(batch.detected_fraction[p, row])
            else:
                assert batch.detected_fraction[p, row] == want.detected_fraction
