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

import numpy as np
from scipy.special import ndtr

from .candidates import CandidateSet
from .errors import positive_finite
from .grid import SampledRows, SampledSequence, nearly_equal
from .kernels import (
    Kernel,
    KernelFamily,
    convolve,
    convolve_rows,
    gaussian_kernel,
    kernel_reach,
    quartic_kernel,
)
from .multitest import DetectionReport, Procedure, check_alpha, run_procedure
from .noise import (
    MIN_INTERIOR_SAMPLES,
    GaussianAcvfParams,
    NoiseMoments,
    closed_form_moments,
    estimate_moments,
    generate_noise,
    noise_rows,
)
from .palm import PalmParams, candidate_pvalues
from .pipeline import find_local_maxima, most_rejections
from .baselines import (
    _POINTWISE_RULES,
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
# calibration runs drawn, smoothed and reduced together; small, so the
# block's arrays stay a few hundred KiB
_CALIBRATION_BLOCK = 32
# replications drawn and scored together; small, so a block of sim35's 30
# views per replication stays a few MiB
_TRIAL_BLOCK = 8


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
    def false_discovery_proportion(self) -> float:
        return self.false_rejections / np.maximum(self.total_rejections, 1)

    @property
    def detected_fraction(self) -> float:
        flags = self.detected_flags
        if flags.shape[-1] == 0:
            return np.full(flags.shape[:-1], np.nan)[()]
        return np.count_nonzero(flags, axis=-1) / flags.shape[-1]


def score_trial(
    report: DetectionReport | list[DetectionReport],
    candidates: CandidateSet,
    regions: RegionSet | list[RegionSet],
) -> TrialOutcome:
    """Classify each rejection by region and tally per-peak detections.

    Sample-level reports (pointwise procedures) are first converted to
    the equivalent height rule on ``candidates`` so that all procedures
    are scored on peaks.  ``locmax_per_peak`` counts every candidate
    inside each support, significant or not.

    ``report`` may also be a list of batch reports on the rows of
    ``candidates``, one per procedure, with one :class:`RegionSet` (of
    one signal) per row: every (procedure, row) is scored in one pass,
    each count a (procedure, row) array, and the peak flags and
    ``locmax_per_peak`` have a last axis over the peaks.
    """
    single = isinstance(report, DetectionReport)
    reports, regions = ([report], [regions]) if single else (report, regions)
    candidates.row_counts(len(regions))  # checks the rows before they index
    rows, heights = candidates.rows, candidates.heights
    sets = [
        candidates.select(heights > np.reshape(r.height_threshold, -1)[rows])
        if r.procedure in _POINTWISE_RULES
        else r.rejected
        for r in reports
    ]
    # each (row, location) as an exact integer key: row * G + the rank of
    # the location among the G distinct values compared
    intervals = [r.scored_intervals for r in regions]
    los, his, columns = (np.concatenate(x) for x in zip(*intervals))
    edge_rows = np.repeat(np.arange(len(regions)), [c.size for _, _, c in intervals])
    compared = [los, his, *(s.locations for s in [candidates, *sets])]
    ranks = np.unique(np.concatenate(compared))

    def keys(rows, locations):
        return rows * ranks.size + ranks.searchsorted(locations)

    lo_keys, hi_keys = keys(edge_rows, los), keys(edge_rows, his)

    def tally(cands: CandidateSet) -> np.ndarray:
        """Per row: entries in each column's intervals, then in all."""
        counts = np.zeros((len(regions), 3 + len(regions[0].peak_supports)), np.int64)
        at = keys(cands.rows, cands.locations)
        inside = at.searchsorted(hi_keys, "right") - at.searchsorted(lo_keys, "left")
        np.add.at(counts, (edge_rows, columns), inside)
        counts[:, -1] = cands.row_counts(len(regions))
        return counts

    n = np.array([tally(s) for s in sets])
    # the smoothed signal holds the signal: transition = smoothed - signal
    fields = [n[..., 0], n[..., 1] - n[..., 0], n[..., -1] - n[..., 1], n[..., 2:-1] > 0]
    locmax = tally(candidates)[:, 2:-1]
    if single:
        fields = [*(int(f[0, 0]) for f in fields[:3]), fields[3][0, 0]]
        locmax = locmax[0]
    return TrialOutcome(*fields, locmax)


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
    positive_finite("b", b)
    positive_finite("sigma", sigma)
    if gamma < 0 or nu < 0:
        raise ValueError("gamma and nu must be non-negative")
    ratio = (gamma**2 + nu**2) / (gamma**2 + b**2) ** 2
    return amplitude / (sigma * math.pi**0.25) * ratio**0.25


def optimal_bandwidth(b: float, nu: float = 0.0) -> float:
    """Bandwidth maximizing :func:`snr`; 0 when the noise is too coarse."""
    positive_finite("b", b)
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
    positive_finite("sigma", sigma)
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
            positive_finite(name, getattr(self, name))
        for name in ("gamma_grid", "amplitude_grid"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be non-empty")
            for i, value in enumerate(values):
                positive_finite(f"{name}[{i}]", value)
                for j in range(i):  # repeats make cells lookup cannot tell apart
                    if nearly_equal(values[j], value):
                        raise ValueError(f"{name}[{j}] and {name}[{i}] repeat {value!r}")
        if any(g < self.dt for g in self.gamma_grid):
            raise ValueError("every bandwidth must be at least the grid spacing")
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
        # the widest kernel has the widest margins
        gamma = max(self.gamma_grid)
        margin = kernel_reach(self.kernel_family, gamma, self.dt, self.kernel_trunc)
        samples = int(round(self.signal.domain_length / self.dt)) + 1
        if samples <= 2 * margin:
            raise ValueError(
                f"gamma_grid: the gamma={gamma} kernel's margins of {margin} "
                f"samples leave no sample of the {samples}-sample signal grid"
            )
        if self.moments_mode == "estimated":
            if self.calibration_samples - 2 * margin < MIN_INTERIOR_SAMPLES:
                raise ValueError(
                    f"moments_length must leave at least {MIN_INTERIOR_SAMPLES} "
                    f"calibration samples inside the margins of the gamma={gamma} "
                    f"kernel, got {self.moments_length!r}"
                )
        if self.auto_bandwidth:
            allowed = (Procedure.BONFERRONI, Procedure.BH)
            if any(p not in allowed for p in self.procedures):
                raise ValueError(
                    "auto-bandwidth sweeps support bonferroni and bh only"
                )
        if self.rice_convention not in ("paper", "classical"):
            raise ValueError(f"unknown rice_convention {self.rice_convention!r}")

    @property
    def calibration_samples(self) -> int:
        """Samples in each calibration run of estimated moments."""
        return int(round(self.moments_length / self.dt)) + 1

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


def _cell_stats(x: np.ndarray, proportion: bool = False) -> list:
    """(value, standard error) of every cell of ``x`` over its last axis, the
    replications, as nested lists of Python floats.  ``x`` is C-contiguous,
    so numpy sums each cell with the pairwise loop of a 1-D call, and each
    cell has the bits of its reduction alone (along a leading axis, the rows
    would add in sequence).  A proportion's error is sqrt(p (1 - p) / n), a
    mean's the sample standard deviation over sqrt(n), NaN at one
    replication.  No NaN is filtered: ``power`` and ``locmax_per_peak`` are
    NaN in every replication exactly when the signal has no peaks, and the
    others never are, so a cell is all NaN (its result NaN) or free of NaN.
    """
    n = x.shape[-1]
    value = x.mean(axis=-1)
    if proportion:
        se = np.sqrt(value * (1.0 - value) / n)
    elif n > 1:
        se = x.std(axis=-1, ddof=1) / math.sqrt(n)
    else:
        se = np.full_like(value, np.nan)
    return np.stack([value, se], axis=-1).tolist()


# ---------------------------------------------------------------------------
# the sweep itself


def _cell_moments(
    design: SimulationDesign, kernel: Kernel, kernel_index: int, seed: int, gamma: float
) -> NoiseMoments:
    if design.moments_mode == "closed_form":
        return closed_form_moments(design.noise, gamma)
    reps = design.moments_reps
    acc = np.zeros(3)
    for start in range(0, reps, _CALIBRATION_BLOCK):
        seeds = [
            (seed, _CALIBRATION_STREAM, kernel_index, rep)
            for rep in range(start, min(start + _CALIBRATION_BLOCK, reps))
        ]
        raw = noise_rows(design.noise, 0.0, design.calibration_samples, design.dt, seeds)
        smoothed = convolve_rows(raw, kernel, design.dt)
        block = estimate_moments(
            smoothed, zero_mean=True, dt=design.dt, margin=kernel.half_support_samples
        )
        for m in block:  # in run order, so the bits do not depend on the block size
            acc += m
    acc /= reps
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
        self.gamma = gamma
        self.kernel = design.build_kernel(gamma)
        self.moments = _cell_moments(design, self.kernel, index, seed, gamma)
        self.palm = PalmParams(self.moments)
        self.regions = compute_regions(design.signal, self.kernel)
        self.smoothed_mu = convolve(base_mu, self.kernel)


def run_sweep(design: SimulationDesign, seed: int) -> SweepResult:
    """Execute a design: one noise draw per replication, scored in every cell.

    Each replication derives its generator stream from (seed, stream tag,
    replication index) and reuses the same noise realization across all
    bandwidth and amplitude cells, so comparisons between cells are
    paired.  Replications are drawn and scored in blocks of
    ``_TRIAL_BLOCK``; every row of a block is computed on its own, so no
    result depends on the block size.
    """
    base_mu = synthesize_signal(design.signal, design.dt)
    bands = [
        _Band(design, index, gamma, base_mu, seed)
        for index, gamma in enumerate(design.gamma_grid)
    ]
    sup = None
    if Procedure.SUPREMUM in design.procedures:
        sup = supremum_threshold(
            [band.moments for band in bands],
            design.signal.domain_length,
            design.alpha,
            design.rice_convention,
        )
    reps = design.replications
    blocks = [
        _block(design, seed, base_mu, bands, sup, range(r, min(r + _TRIAL_BLOCK, reps)))
        for r in range(0, reps, _TRIAL_BLOCK)
    ]
    cells = tuple(_aggregate(design, blocks))
    return SweepResult(design=design, seed=seed, cells=cells)


def _block(
    design: SimulationDesign,
    seed: int,
    base_mu: SampledSequence,
    bands: list[_Band],
    sup: np.ndarray | None,
    reps: range,
) -> dict[str, np.ndarray]:
    """Metrics of the replications ``reps``, by name; ``sup`` holds each
    band's supremum threshold when the design runs that procedure.

    Arrays are indexed [replication, column, amplitude, procedure], and
    ``locmax_per_peak`` by [replication, column, amplitude].  Columns are
    the bandwidths; an auto-bandwidth design has one column, scoring in
    each cell the bandwidth with the most rejections.  Every
    (replication, amplitude, bandwidth) view is a row of one array, and
    each stage runs once, except the pointwise corrections: their sets
    hold every sample, so they run one replication's rows at a time.
    """
    n, dt = base_mu.values.size, design.dt
    seeds = [(seed, _TRIAL_STREAM, rep) for rep in reps]
    noise = np.stack([generate_noise(design.noise, 0.0, n, dt, s).values for s in seeds])
    amps = np.array(design.amplitude_grid)[:, np.newaxis, np.newaxis]
    mu = np.stack([band.smoothed_mu.values for band in bands])
    z = np.stack([convolve_rows(noise, band.kernel, dt) for band in bands], axis=1)
    views = (amps * mu + z[:, np.newaxis]).reshape(-1, n)
    if not np.isfinite(views).all():
        raise ValueError("smoothed values must be finite")
    rep_bands = bands * len(design.amplitude_grid)  # the rows of one replication
    row_bands = rep_bands * len(reps)
    margins = [band.kernel.half_support_samples for band in rep_bands]
    grid = SampledRows(views, dt, base_mu.t0, margins * len(reps))
    palms = [band.palm for band in row_bands]
    cands = candidate_pvalues(find_local_maxima(grid), palms)
    procs, alpha = design.procedures, design.alpha
    peak = [p for p in procs if p in (Procedure.BONFERRONI, Procedure.BH)]
    reports = dict(zip(peak, run_procedure(cands, alpha, palms, peak))) if peak else {}
    # the other rules are scored as height rules, by each row's threshold
    thresholds = {p: [] for p in procs if p in _POINTWISE_RULES}
    if thresholds:
        moments = [band.moments for band in rep_bands]
        for values in views.reshape(len(reps), -1, n):
            rows = SampledRows(values, dt, base_mu.t0, margins)
            samples = pointwise_pvalues(rows, moments)
            for p, per_rep in thresholds.items():
                report = pointwise_correct(samples, alpha, p, moments)
                per_rep.append(report.height_threshold)
    if sup is not None:
        thresholds[Procedure.SUPREMUM] = [np.tile(sup, len(views) // len(bands))]
    for p, per_rep in thresholds.items():
        reports[p] = height_rule_report(cands, np.concatenate(per_rep), alpha, p)
    reports = [reports[p] for p in procs]
    outcome = score_trial(reports, cands, [band.regions for band in row_bands])

    # each metric as a [procedure, replication, amplitude, bandwidth] array
    shape = (len(procs), len(reps), len(design.amplitude_grid), len(bands))
    locmax = outcome.locmax_per_peak
    locmax = locmax.mean(axis=1) if locmax.shape[1] else np.full(len(locmax), np.nan)
    metrics = {
        "fwer": outcome.false_rejections > 0,
        "fdr": outcome.false_discovery_proportion,
        "power": outcome.detected_fraction,
        "chosen_gamma": np.broadcast_to([band.gamma for band in bands], shape),
        "locmax_per_peak": np.broadcast_to(locmax.reshape(shape[1:]), shape),
    }
    metrics = {name: np.reshape(x, shape).astype(float) for name, x in metrics.items()}
    if design.auto_bandwidth:
        # per procedure, replication and amplitude: the most rejecting band
        counts = [r.rejected.row_counts(len(views)) for r in reports]
        counts = np.reshape(counts, (-1, len(bands)))
        chosen = [most_rejections(c, design.gamma_grid) for c in counts]
        chosen = np.reshape(chosen, (*shape[:3], 1))
        metrics = {
            name: np.take_along_axis(x, chosen, axis=3) for name, x in metrics.items()
        }
    block = {name: x.transpose(1, 3, 2, 0) for name, x in metrics.items()}
    # by [replication, column, amplitude], in the last procedure's column (an
    # auto design's choice may differ between procedures)
    block["locmax_per_peak"] = block["locmax_per_peak"][..., -1]
    return block


def _aggregate(
    design: SimulationDesign, blocks: list[dict[str, np.ndarray]]
) -> list[CellStats]:
    """Cells in output order.  Each metric is reduced once for every cell,
    laid out [column, amplitude, procedure, replication] (``locmax_per_peak``
    without the procedure axis)."""
    joined = {name: np.concatenate([b[name] for b in blocks]) for name in blocks[0]}
    x = {name: np.ascontiguousarray(np.moveaxis(v, 0, -1)) for name, v in joined.items()}
    names = ("fwer", "fdr", "power")
    stats = {name: _cell_stats(x[name], proportion=name == "fwer") for name in names}
    locmax = _cell_stats(x["locmax_per_peak"])
    auto = design.auto_bandwidth
    if auto:
        stats["chosen_gamma_mean"] = _cell_stats(x["chosen_gamma"])
        grid = np.array(design.gamma_grid)[:, np.newaxis]
        # [column, amplitude, procedure, bandwidth, replication]
        hits = np.abs(x["chosen_gamma"][..., np.newaxis, :] - grid) < 1e-9
        fractions = _cell_stats(hits.astype(float), proportion=True)
    cells = []  # (gamma, amplitude, procedure, metrics)
    for c, gamma in enumerate((float("nan"),) if auto else design.gamma_grid):
        for a, amp in enumerate(design.amplitude_grid):
            for p, proc in enumerate(design.procedures):
                metrics = {name: tuple(v[c][a][p]) for name, v in stats.items()}
                cells.append((gamma, amp, proc.value, metrics))
                if auto:
                    for g, frac in zip(design.gamma_grid, fractions[c][a][p]):
                        metrics = {"chosen_fraction": tuple(frac)}
                        cells.append((g, amp, proc.value, metrics))
            if not auto:
                metrics = {"locmax_per_peak": tuple(locmax[c][a])}
                cells.append((gamma, amp, "candidates", metrics))
    return [CellStats(g, a, p, design.replications, m) for g, a, p, m in cells]


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
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}")
    sim31 = SimulationDesign(
        name="sim31",
        signal=_sim31_signal(),
        dt=1.0,
        noise=GaussianAcvfParams(sigma=1.0, nu=0.0),
        kernel_family=KernelFamily.GAUSSIAN,
        gamma_grid=tuple(float(g) for g in range(1, 11)),
        amplitude_grid=(9.0, 12.0, 15.0),
        replications=10000,
    )
    if name == "sim32":
        return sim31.with_options(
            name="sim32",
            signal=_sim32_signal(),
            kernel_family=KernelFamily.QUARTIC,
            gamma_grid=(6.0, 12.0, 18.0, 24.0, 30.0, 40.0),
            amplitude_grid=(1.0,),
            moments_mode="estimated",
            moments_reps=500,
        )
    if name == "sim34":
        return sim31.with_options(
            name="sim34",
            gamma_grid=tuple(float(g) for g in range(1, 9)),
            procedures=(
                Procedure.BONFERRONI,
                Procedure.BH,
                Procedure.POINTWISE_BONFERRONI,
                Procedure.POINTWISE_BH,
                Procedure.SUPREMUM,
            ),
        )
    if name == "sim35":
        return sim31.with_options(
            name="sim35",
            gamma_grid=tuple(1.5 + 0.5 * i for i in range(10)),
            auto_bandwidth=True,
        )
    return sim31


PRESET_NAMES = ("sim31", "sim32", "sim34", "sim35")
