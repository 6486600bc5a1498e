"""Monte Carlo evaluation of detection procedures on synthetic signals.

A trial draws fresh noise, adds the signal, runs one or more procedures
and scores the rejections against the known regions.  Error accounting
is peak-level for every method: rejections of sample-level procedures
are converted to the equivalent height rule on the local maxima, so all
methods are compared in the same units.

A rejection is counted as false when it falls anywhere outside the union
of true peak supports, including the transition region created by
smoothing.  A peak counts as detected when at least one rejection lands
inside its support; several significant maxima inside one support still
count as a single detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.special import ndtr

from .candidates import CandidateSet
from .grid import SampledSequence, nearly_equal
from .kernels import Kernel, KernelFamily, convolve, gaussian_kernel, quartic_kernel
from .multitest import DetectionReport, Procedure, check_alpha, run_procedure
from .noise import (
    GaussianAcvfParams,
    NoiseMoments,
    closed_form_moments,
    estimate_moments,
    generate_noise,
)
from .palm import PalmParams, candidate_pvalues
from .pipeline import find_local_maxima, most_rejections
from .baselines import (
    height_rule_report,
    pointwise_correct,
    pointwise_pvalues,
    supremum_threshold,
)
from .signals import (
    CauchyShape,
    EpanechnikovShape,
    LaplaceShape,
    PeakSpec,
    RegionSet,
    SignalSpec,
    TriangularShape,
    TruncatedGaussianShape,
    compute_regions,
    synthesize_signal,
)

# Stream tags keep per-trial noise and calibration noise on independent
# substreams of the master seed.
_TRIAL_STREAM = 0
_CALIBRATION_STREAM = 1


# ---------------------------------------------------------------------------
# scoring


@dataclass(frozen=True, eq=False)
class TrialOutcome:
    """Peak-level score of one detection report against known regions."""

    rejected_in_signal: int
    rejected_in_transition: int
    rejected_in_null_core: int
    detected_flags: np.ndarray
    locmax_per_peak: np.ndarray

    @property
    def false_rejections(self) -> int:
        """Rejections anywhere outside the true supports (V)."""
        return self.rejected_in_transition + self.rejected_in_null_core

    @property
    def total_rejections(self) -> int:
        return (
            self.rejected_in_signal
            + self.rejected_in_transition
            + self.rejected_in_null_core
        )

    @property
    def rejected_in_smoothed_signal(self) -> int:
        return self.rejected_in_signal + self.rejected_in_transition

    @property
    def false_discovery_proportion(self) -> float:
        return self.false_rejections / max(self.total_rejections, 1)

    @property
    def detected_fraction(self) -> float:
        flags = self.detected_flags
        if flags.size == 0:
            return float("nan")
        return float(np.count_nonzero(flags)) / flags.size


def _count_within(sorted_locs: np.ndarray, los: np.ndarray, his: np.ndarray):
    """Entries of ``sorted_locs`` inside each closed interval [lo, hi]."""
    return sorted_locs.searchsorted(his, side="right") - sorted_locs.searchsorted(
        los, side="left"
    )


def score_trial(
    report: DetectionReport,
    candidates: CandidateSet,
    regions: RegionSet,
) -> TrialOutcome:
    """Classify each rejection by region and tally per-peak detections.

    Sample-level reports (pointwise procedures) are first converted to
    the equivalent height rule on ``candidates`` so that all procedures
    are scored on peaks.  ``locmax_per_peak`` counts every candidate
    inside each support, significant or not.
    """
    if report.procedure in (Procedure.POINTWISE_BONFERRONI, Procedure.POINTWISE_BH):
        rejected = candidates.select(candidates.heights > report.height_threshold)
    else:
        rejected = report.rejected
    locs = rejected.locations
    in_signal = regions.signal.contains(locs)
    in_smoothed = regions.smoothed_signal.contains(locs)
    n_signal = int(np.count_nonzero(in_signal))
    n_transition = int(np.count_nonzero(in_smoothed & ~in_signal))
    n_null_core = int(np.count_nonzero(~in_smoothed))
    los, his = regions.support_edges
    n_rejected = _count_within(locs, los, his)
    locmax = _count_within(candidates.locations, los, his)
    return TrialOutcome(
        rejected_in_signal=n_signal,
        rejected_in_transition=n_transition,
        rejected_in_null_core=n_null_core,
        detected_flags=n_rejected > 0,
        locmax_per_peak=locmax,
    )


# ---------------------------------------------------------------------------
# power and SNR helpers


def smoothed_peak_height(peak: PeakSpec, kernel: Kernel) -> float:
    """Mean of the smoothed signal at the peak center."""
    offsets = kernel.offsets
    shape_vals = peak.shape.density(-offsets)
    return peak.amplitude * float(np.sum(kernel.weights * shape_vals)) * kernel.dt


def theoretical_power(
    peak: PeakSpec,
    kernel: Kernel,
    moments: NoiseMoments,
    threshold: float,
) -> float:
    """Gaussian approximation of the detection probability at ``threshold``.

    The smoothed observation at the peak center is Gaussian with mean
    ``smoothed_peak_height`` and standard deviation sigma of the
    smoothed noise, so the exceedance probability is a normal tail.
    """
    mean = smoothed_peak_height(peak, kernel)
    return float(ndtr((mean - threshold) / moments.sigma))


def snr(amplitude: float, sigma: float, b: float, nu: float, gamma: float) -> float:
    """Matched-filter SNR for a Gaussian-shaped peak of scale ``b``.

    Closed form for Gaussian-correlated noise of scale ``nu`` smoothed by
    a Gaussian kernel of bandwidth ``gamma`` (truncation ignored).
    """
    if not (b > 0 and sigma > 0):
        raise ValueError("b and sigma must be positive")
    if gamma < 0 or nu < 0:
        raise ValueError("gamma and nu must be non-negative")
    ratio = (gamma**2 + nu**2) / (gamma**2 + b**2) ** 2
    return amplitude / (sigma * math.pi**0.25) * ratio**0.25


def optimal_bandwidth(b: float, nu: float = 0.0) -> float:
    """Bandwidth maximizing :func:`snr`; 0 when the noise is too coarse."""
    if not (b > 0):
        raise ValueError("b must be positive")
    if nu < 0:
        raise ValueError("nu must be non-negative")
    if nu < b / math.sqrt(2.0):
        return math.sqrt(b**2 - 2.0 * nu**2)
    return 0.0


def snr_general(kernel: Kernel, peak: PeakSpec, sigma: float) -> float:
    """Matched-filter SNR of an arbitrary peak/kernel pair on the grid.

    ``sigma`` is the scale of the *unsmoothed* white noise; the smoothed
    noise standard deviation is sigma * sqrt(integral of the squared
    kernel).
    """
    if not (sigma > 0):
        raise ValueError("sigma must be positive")
    numerator = smoothed_peak_height(peak, kernel)
    denom = sigma * math.sqrt(float(np.sum(kernel.weights**2)) * kernel.dt)
    return numerator / denom


# ---------------------------------------------------------------------------
# simulation designs


@dataclass(frozen=True)
class SimulationDesign:
    """Declarative description of one Monte Carlo sweep.

    The base signal's peak amplitudes are multiplied by each value of
    ``amplitude_grid``, and a kernel is built for each ``gamma_grid``
    value, so the sweep runs over the full grid product.  With
    ``auto_bandwidth`` the bandwidth grid is scanned within each trial
    instead, and cells are amplitude-only.

    ``moments_mode`` chooses how the smoothed-noise moments handed to
    the height tests are obtained: "closed_form" (Gaussian kernels over
    the Gaussian-correlated noise model) or "estimated" (empirically,
    from ``moments_reps`` independent calibration runs of duration
    ``moments_length``, smoothed with the same kernel).
    """

    name: str
    signal: SignalSpec
    dt: float
    noise: GaussianAcvfParams
    kernel_family: KernelFamily
    gamma_grid: tuple[float, ...]
    amplitude_grid: tuple[float, ...] = (1.0,)
    kernel_trunc: float = 3.0
    procedures: tuple[Procedure, ...] = (Procedure.BONFERRONI, Procedure.BH)
    alpha: float = 0.05
    replications: int = 1000
    moments_mode: str = "closed_form"
    moments_length: float = 1000.0
    moments_reps: int = 1
    auto_bandwidth: bool = False
    rice_convention: str = "paper"

    def __post_init__(self):
        object.__setattr__(self, "gamma_grid", tuple(float(g) for g in self.gamma_grid))
        object.__setattr__(
            self, "amplitude_grid", tuple(float(a) for a in self.amplitude_grid)
        )
        object.__setattr__(self, "procedures", tuple(self.procedures))
        self.validate()

    def validate(self) -> None:
        lengths = ("dt", "kernel_trunc")
        if self.moments_mode == "estimated":
            lengths += ("moments_length",)
        for name in lengths:
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not self.gamma_grid:
            raise ValueError("gamma_grid must be non-empty")
        if any(g < self.dt for g in self.gamma_grid):
            raise ValueError("every bandwidth must be at least the grid spacing")
        if not self.amplitude_grid or any(a <= 0 for a in self.amplitude_grid):
            raise ValueError("amplitude_grid values must be positive")
        if not self.procedures:
            raise ValueError("procedures must be non-empty")
        check_alpha(self.alpha)
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if self.moments_mode not in ("closed_form", "estimated"):
            raise ValueError(f"unknown moments_mode {self.moments_mode!r}")
        if (
            self.moments_mode == "closed_form"
            and self.kernel_family is not KernelFamily.GAUSSIAN
        ):
            raise ValueError(
                "closed-form moments are only available for Gaussian kernels"
            )
        if self.moments_mode == "estimated" and self.moments_reps < 1:
            raise ValueError("moments_reps must be positive")
        if self.kernel_family is KernelFamily.TEMPLATE:
            raise ValueError("sweeps support gaussian and quartic kernels only")
        if self.auto_bandwidth:
            allowed = (Procedure.BONFERRONI, Procedure.BH)
            if any(p not in allowed for p in self.procedures):
                raise ValueError(
                    "auto-bandwidth sweeps support bonferroni and bh only"
                )
        if self.rice_convention not in ("paper", "classical"):
            raise ValueError(f"unknown rice_convention {self.rice_convention!r}")

    def build_kernel(self, gamma: float) -> Kernel:
        if self.kernel_family is KernelFamily.GAUSSIAN:
            return gaussian_kernel(gamma, self.dt, self.kernel_trunc)
        return quartic_kernel(gamma, self.dt)

    def with_options(self, **kwargs) -> "SimulationDesign":
        return replace(self, **kwargs)


# ---------------------------------------------------------------------------
# sweep results


@dataclass(frozen=True, eq=False)
class CellStats:
    """Aggregated metrics for one (gamma, amplitude, procedure) cell.

    ``metrics`` maps metric name to (value, standard error).  ``gamma``
    is NaN for auto-bandwidth cells, where no single bandwidth applies.
    """

    gamma: float
    amplitude: float
    procedure: str
    replications: int
    metrics: dict[str, tuple[float, float]]


@dataclass(frozen=True, eq=False)
class SweepResult:
    design: SimulationDesign
    seed: int
    cells: tuple[CellStats, ...]

    def lookup(self, metric: str, procedure: str, gamma=None, amplitude=None):
        """(value, se) of a metric, selecting cells by coordinates."""
        for cell in self.cells:
            if cell.procedure != procedure or metric not in cell.metrics:
                continue
            if gamma is not None and not nearly_equal(cell.gamma, gamma):
                continue
            if amplitude is not None and not nearly_equal(cell.amplitude, amplitude):
                continue
            return cell.metrics[metric]
        raise KeyError(
            f"no cell with metric={metric!r} procedure={procedure!r} "
            f"gamma={gamma!r} amplitude={amplitude!r}"
        )

    def to_rows(self) -> list[dict]:
        """Tidy rows: one per cell x procedure x metric."""
        rows = []
        for cell in self.cells:
            for metric, (value, se) in sorted(cell.metrics.items()):
                rows.append(
                    {
                        "gamma": cell.gamma,
                        "amplitude": cell.amplitude,
                        "procedure": cell.procedure,
                        "metric": metric,
                        "value": value,
                        "se": se,
                        "replications": cell.replications,
                    }
                )
        return rows

    def csv_lines(self) -> list[str]:
        lines = ["gamma,amplitude,procedure,metric,value,se,replications"]
        for row in self.to_rows():
            gamma = "" if math.isnan(row["gamma"]) else repr(row["gamma"])
            value = "" if math.isnan(row["value"]) else repr(row["value"])
            se = "" if math.isnan(row["se"]) else repr(row["se"])
            lines.append(
                f"{gamma},{row['amplitude']!r},{row['procedure']},"
                f"{row['metric']},{value},{se},{row['replications']}"
            )
        return lines


def _proportion_stats(flags: np.ndarray) -> tuple[float, float]:
    n = flags.size
    p = float(np.mean(flags))
    return p, math.sqrt(p * (1.0 - p) / n)


def _mean_stats(x: np.ndarray) -> tuple[float, float]:
    x = x[~np.isnan(x)]
    if x.size == 0:
        return float("nan"), float("nan")
    if x.size == 1:
        return float(x[0]), float("nan")
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(x.size))


# ---------------------------------------------------------------------------
# the sweep itself


def _cell_moments(
    design: SimulationDesign, kernel: Kernel, kernel_index: int, seed: int, gamma: float
) -> NoiseMoments:
    if design.moments_mode == "closed_form":
        return closed_form_moments(design.noise, gamma)
    n = int(round(design.moments_length / design.dt)) + 1
    acc = np.zeros(3)
    for rep in range(design.moments_reps):
        raw = generate_noise(
            design.noise,
            0.0,
            n,
            design.dt,
            seed=(seed, _CALIBRATION_STREAM, kernel_index, rep),
        )
        m = estimate_moments(convolve(raw, kernel), zero_mean=True)
        acc += (m.sigma2, m.lambda2, m.lambda4)
    acc /= design.moments_reps
    return NoiseMoments(*acc)


class _Band:
    """Per-bandwidth constants of a sweep, shared by every replication."""

    def __init__(
        self,
        design: SimulationDesign,
        index: int,
        gamma: float,
        base_mu: SampledSequence,
        seed: int,
    ):
        self.design = design
        self.gamma = gamma
        self.kernel = design.build_kernel(gamma)
        self.moments = _cell_moments(design, self.kernel, index, seed, gamma)
        self.palm = PalmParams(self.moments)
        self.regions = compute_regions(design.signal, self.kernel)
        self.smoothed_mu = convolve(base_mu, self.kernel)

    @cached_property
    def sup_threshold(self) -> float:
        d = self.design
        return supremum_threshold(
            self.moments, d.signal.domain_length, d.alpha, d.rice_convention
        )


class _Smoothed:
    """One realization smoothed at one bandwidth, as the rules see it."""

    def __init__(self, band: _Band, smoothed: SampledSequence):
        self.band = band
        self.smoothed = smoothed
        self.cands = candidate_pvalues(find_local_maxima(smoothed), band.palm)

    @cached_property
    def samples(self) -> CandidateSet:
        return pointwise_pvalues(self.smoothed, self.band.moments)


def _candidate_rule(views: list[_Smoothed], proc: Procedure, alpha: float):
    cands = [view.cands for view in views]
    return run_procedure(cands, alpha, [view.band.palm for view in views], proc)


def _pointwise_rule(views: list[_Smoothed], proc: Procedure, alpha: float):
    return [
        pointwise_correct(view.samples, alpha, proc, view.band.moments)
        for view in views
    ]


def _supremum_rule(views: list[_Smoothed], proc: Procedure, alpha: float):
    return [
        height_rule_report(view.cands, view.band.sup_threshold, alpha, proc)
        for view in views
    ]


# Procedure -> rule giving its reports on a list of smoothed realizations,
# one report per realization.
_RULES = {
    Procedure.BONFERRONI: _candidate_rule,
    Procedure.BH: _candidate_rule,
    Procedure.POINTWISE_BONFERRONI: _pointwise_rule,
    Procedure.POINTWISE_BH: _pointwise_rule,
    Procedure.SUPREMUM: _supremum_rule,
}


def run_sweep(design: SimulationDesign, seed: int) -> SweepResult:
    """Execute a design: one noise draw per replication, scored in every cell.

    Each replication derives its generator stream from (seed, stream tag,
    replication index) and reuses the same noise realization across all
    bandwidth and amplitude cells, so comparisons between cells are
    paired.
    """
    base_mu = synthesize_signal(design.signal, design.dt)
    bands = [
        _Band(design, index, gamma, base_mu, seed)
        for index, gamma in enumerate(design.gamma_grid)
    ]
    records = [
        _trial(design, seed, base_mu, bands, rep)
        for rep in range(design.replications)
    ]
    cells = tuple(_aggregate(design, records))
    return SweepResult(design=design, seed=seed, cells=cells)


def _trial(
    design: SimulationDesign,
    seed: int,
    base_mu: SampledSequence,
    bands: list[_Band],
    rep: int,
) -> dict[str, np.ndarray]:
    """Metrics of one replication, by name.

    Arrays are indexed [column, amplitude, procedure], and
    ``locmax_per_peak`` by [column, amplitude].  Columns are the
    bandwidths; an auto-bandwidth design has one column, scoring in each
    cell the bandwidth with the most rejections.
    """
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
    record = {
        name: np.empty(shape) for name in ("fwer", "fdr", "power", "chosen_gamma")
    }
    record["locmax_per_peak"] = np.empty(shape[:2])
    # every amplitude's views, amplitude-major, so each rule runs once
    views = [
        _Smoothed(band, z.with_values(amp * band.smoothed_mu.values + z.values))
        for amp in design.amplitude_grid
        for band, z in zip(bands, smoothed_noise)
    ]
    for p, proc in enumerate(design.procedures):
        all_reports = _RULES[proc](views, proc, design.alpha)
        for a in range(len(design.amplitude_grid)):
            row = slice(a * len(bands), (a + 1) * len(bands))
            reports, row_views = all_reports[row], views[row]
            if design.auto_bandwidth:
                counts = [report.num_rejected for report in reports]
                scored = [most_rejections(counts, design.gamma_grid)]
            else:
                scored = range(len(bands))
            for c, k in enumerate(scored):
                outcome = score_trial(reports[k], row_views[k].cands, bands[k].regions)
                locmax = outcome.locmax_per_peak
                record["fwer"][c, a, p] = outcome.false_rejections > 0
                record["fdr"][c, a, p] = outcome.false_discovery_proportion
                record["power"][c, a, p] = outcome.detected_fraction
                record["chosen_gamma"][c, a, p] = bands[k].gamma
                record["locmax_per_peak"][c, a] = (
                    locmax.mean() if locmax.size else float("nan")
                )
    return record


def _aggregate(
    design: SimulationDesign, records: list[dict[str, np.ndarray]]
) -> list[CellStats]:
    """Cells in output order, each reduced from its slot's per-replication series."""
    stacked = {name: np.array([rec[name] for rec in records]) for name in records[0]}

    def series(name: str, *index: int) -> np.ndarray:
        return np.ascontiguousarray(stacked[name][(slice(None), *index)])

    def cell(gamma: float, amp: float, procedure: str, metrics: dict) -> CellStats:
        return CellStats(
            gamma=gamma,
            amplitude=amp,
            procedure=procedure,
            replications=design.replications,
            metrics=metrics,
        )

    auto = design.auto_bandwidth
    cells = []
    for c, gamma in enumerate((float("nan"),) if auto else design.gamma_grid):
        for a, amp in enumerate(design.amplitude_grid):
            for p, proc in enumerate(design.procedures):
                metrics = {
                    "fwer": _proportion_stats(series("fwer", c, a, p)),
                    "fdr": _mean_stats(series("fdr", c, a, p)),
                    "power": _mean_stats(series("power", c, a, p)),
                }
                if not auto:
                    cells.append(cell(gamma, amp, proc.value, metrics))
                    continue
                chosen = series("chosen_gamma", c, a, p)
                metrics["chosen_gamma_mean"] = _mean_stats(chosen)
                cells.append(cell(gamma, amp, proc.value, metrics))
                for g in design.gamma_grid:
                    frac = _proportion_stats((np.abs(chosen - g) < 1e-9).astype(float))
                    cells.append(cell(g, amp, proc.value, {"chosen_fraction": frac}))
            if not auto:
                locmax = _mean_stats(series("locmax_per_peak", c, a))
                metrics = {"locmax_per_peak": locmax}
                cells.append(cell(gamma, amp, "candidates", metrics))
    return cells


# ---------------------------------------------------------------------------
# built-in designs


def _equispaced_centers(num: int, domain_length: float) -> list[float]:
    spacing = domain_length / num
    return [(j + 0.5) * spacing - domain_length / 2.0 for j in range(num)]


def _sim31_signal(num_peaks: int = 10, domain_length: float = 1000.0) -> SignalSpec:
    shape = TruncatedGaussianShape(b=3.0, c=3.0)
    peaks = tuple(
        PeakSpec(shape=shape, amplitude=1.0, center=c)
        for c in _equispaced_centers(num_peaks, domain_length)
    )
    return SignalSpec(peaks=peaks, domain_length=domain_length)


def _sim32_signal(domain_length: float = 1000.0) -> SignalSpec:
    # Five unequal shapes whose half-supports average exactly 24, each
    # scaled to a common raw height.  The widths and the height constant
    # are calibrated so the quartic-kernel sweep on white unit noise
    # peaks at bandwidth 18 with Bonferroni power near 0.81 and BH power
    # near 0.88, with error rates controlled through bandwidth 40.
    height = 1.38
    shapes = (
        EpanechnikovShape(halfwidth=13.6),
        TriangularShape(halfwidth=15.8),
        TruncatedGaussianShape(b=6.8, c=4.5),
        LaplaceShape(b=5.8, c=6.0),
        CauchyShape(b=5.25, c=4.8),
    )
    centers = _equispaced_centers(len(shapes), domain_length)
    peaks = tuple(
        PeakSpec(
            shape=shape,
            amplitude=height / float(shape.density(np.array([0.0]))[0]),
            center=c,
        )
        for shape, c in zip(shapes, centers)
    )
    return SignalSpec(peaks=peaks, domain_length=domain_length)


def preset_design(name: str) -> SimulationDesign:
    """Built-in sweep configurations.

    sim31: ten equal Gaussian-shaped peaks, Gaussian kernels, bandwidth
        and amplitude grids, error and power of the peak procedures.
    sim32: five unequal peak shapes, quartic kernels, empirically
        estimated moments.
    sim34: sim31 signal compared across peak, pointwise and supremum
        procedures.
    sim35: sim31 signal with per-trial automatic bandwidth selection.
    """
    if name == "sim31":
        return SimulationDesign(
            name="sim31",
            signal=_sim31_signal(),
            dt=1.0,
            noise=GaussianAcvfParams(sigma=1.0, nu=0.0),
            kernel_family=KernelFamily.GAUSSIAN,
            gamma_grid=tuple(float(g) for g in range(1, 11)),
            amplitude_grid=(9.0, 12.0, 15.0),
            procedures=(Procedure.BONFERRONI, Procedure.BH),
            replications=10000,
        )
    if name == "sim32":
        return SimulationDesign(
            name="sim32",
            signal=_sim32_signal(),
            dt=1.0,
            noise=GaussianAcvfParams(sigma=1.0, nu=0.0),
            kernel_family=KernelFamily.QUARTIC,
            gamma_grid=(6.0, 12.0, 18.0, 24.0, 30.0, 40.0),
            amplitude_grid=(1.0,),
            procedures=(Procedure.BONFERRONI, Procedure.BH),
            replications=10000,
            moments_mode="estimated",
            moments_length=1000.0,
            moments_reps=500,
        )
    if name == "sim34":
        return SimulationDesign(
            name="sim34",
            signal=_sim31_signal(),
            dt=1.0,
            noise=GaussianAcvfParams(sigma=1.0, nu=0.0),
            kernel_family=KernelFamily.GAUSSIAN,
            gamma_grid=tuple(float(g) for g in range(1, 9)),
            amplitude_grid=(9.0, 12.0, 15.0),
            procedures=(
                Procedure.BONFERRONI,
                Procedure.BH,
                Procedure.POINTWISE_BONFERRONI,
                Procedure.POINTWISE_BH,
                Procedure.SUPREMUM,
            ),
            replications=10000,
        )
    if name == "sim35":
        return SimulationDesign(
            name="sim35",
            signal=_sim31_signal(),
            dt=1.0,
            noise=GaussianAcvfParams(sigma=1.0, nu=0.0),
            kernel_family=KernelFamily.GAUSSIAN,
            gamma_grid=tuple(1.5 + 0.5 * i for i in range(10)),
            amplitude_grid=(9.0, 12.0, 15.0),
            procedures=(Procedure.BONFERRONI, Procedure.BH),
            replications=10000,
            auto_bandwidth=True,
        )
    raise ValueError(f"unknown preset {name!r}")


PRESET_NAMES = ("sim31", "sim32", "sim34", "sim35")
