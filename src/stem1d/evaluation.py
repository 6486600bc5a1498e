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
from typing import NamedTuple, Sequence

import numpy as np

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
from .multitest import DetectionReport, Procedure, _per_row, check_alpha, run_procedure
from .noise import (
    MIN_INTERIOR_SAMPLES,
    GaussianAcvfParams,
    NoiseMoments,
    closed_form_moments,
    estimate_moments,
    generate_noise,
    noise_rows,
)
from .palm import candidate_pvalues
from .pipeline import find_local_maxima
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
    """Peak-level score of detection reports against known regions: each
    count a (report, row) array, and the peak arrays with a last axis over
    the peaks."""

    rejected_in_signal: np.ndarray
    rejected_in_transition: np.ndarray
    rejected_in_null_core: np.ndarray
    detected_flags: np.ndarray
    locmax_per_peak: np.ndarray

    @property
    def false_rejections(self) -> np.ndarray:
        """Rejections anywhere outside the true supports (V)."""
        return self.rejected_in_transition + self.rejected_in_null_core

    @property
    def total_rejections(self) -> np.ndarray:
        return (
            self.rejected_in_signal
            + self.rejected_in_transition
            + self.rejected_in_null_core
        )

    @property
    def false_discovery_proportion(self) -> np.ndarray:
        return self.false_rejections / np.maximum(self.total_rejections, 1)

    @property
    def detected_fraction(self) -> np.ndarray:
        flags = self.detected_flags
        if flags.shape[-1] == 0:
            return np.full(flags.shape[:-1], np.nan)
        return np.count_nonzero(flags, axis=-1) / flags.shape[-1]


def score_trial(
    reports: Sequence[DetectionReport],
    candidates: CandidateSet,
    regions: Sequence[RegionSet],
) -> TrialOutcome:
    """Classify each rejection by region and tally per-peak detections.

    ``reports`` are batch reports on the rows of ``candidates``, one per
    procedure, each rejecting candidates (a sample-level procedure enters
    as its height rule, :func:`~stem1d.baselines.height_rule_report`), with
    one :class:`RegionSet` (of one signal) per row.  Every (report, row) is
    scored in one pass.  ``locmax_per_peak`` counts every candidate inside
    each support, significant or not.
    """
    _per_row(reports, "DetectionReport")
    _per_row(regions, "RegionSet")
    candidates.row_counts(len(regions))  # checks the rows before they index
    sets = [r.rejected for r in reports]
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
    return TrialOutcome(*fields, tally(candidates)[:, 2:-1])


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


class SweepRow(NamedTuple):
    """One line of a sweep's CSV: a metric's value and standard error in a
    (gamma, amplitude, procedure) cell.  ``gamma`` is NaN in an
    auto-bandwidth cell, where no single bandwidth applies."""

    gamma: float
    amplitude: float
    procedure: str
    metric: str
    value: float
    se: float
    replications: int


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's table: one row per cell and metric, in CSV order."""

    design: SimulationDesign
    seed: int
    rows: tuple[SweepRow, ...]

    def lookup(self, metric: str, procedure: str, gamma=None, amplitude=None):
        """(value, se) of a metric, selecting cells by coordinates."""
        for row in self.rows:
            if row.metric != metric or row.procedure != procedure:
                continue
            if gamma is not None and not nearly_equal(row.gamma, gamma):
                continue
            if amplitude is not None and not nearly_equal(row.amplitude, amplitude):
                continue
            return row.value, row.se
        raise KeyError(
            f"no cell with metric={metric!r} procedure={procedure!r} "
            f"gamma={gamma!r} amplitude={amplitude!r}"
        )

    def csv_lines(self) -> list[str]:
        def text(x: float) -> str:
            return "" if math.isnan(x) else repr(x)

        lines = [",".join(SweepRow._fields)]
        for r in self.rows:
            lines.append(
                f"{text(r.gamma)},{r.amplitude!r},{r.procedure},{r.metric},"
                f"{text(r.value)},{text(r.se)},{r.replications}"
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
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
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
    return SweepResult(design=design, seed=seed, rows=_aggregate(design, blocks))


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

    ``fwer``, ``fdr`` and ``power`` are indexed [column, amplitude,
    procedure, replication].  Columns are the bandwidths; an auto-bandwidth
    design has one column, scoring in each cell the bandwidth with the most
    rejections, whose index is ``chosen``.  A fixed design adds
    ``locmax_per_peak``, indexed [column, amplitude, replication].  Every
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
    margins = [band.kernel.half_support_samples for band in rep_bands]
    grid = SampledRows(views, dt, base_mu.t0, margins * len(reps))
    laws = [band.moments for band in bands]  # row r has law r % len(bands)
    law = np.tile(np.arange(len(bands)), len(views) // len(bands))
    cands = candidate_pvalues(find_local_maxima(grid), laws, law)
    procs, alpha = design.procedures, design.alpha
    peak = [p for p in procs if p in (Procedure.BONFERRONI, Procedure.BH)]
    reports = dict(zip(peak, run_procedure(cands, alpha, laws, law, peak))) if peak else {}
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
    outcome = score_trial(reports, cands, [bands[i].regions for i in law])

    # each metric as a [bandwidth, amplitude, procedure, replication] array
    shape = (len(procs), len(reps), len(design.amplitude_grid), len(bands))
    order = (3, 2, 0, 1)
    metrics = {
        "fwer": outcome.false_rejections > 0,
        "fdr": outcome.false_discovery_proportion,
        "power": outcome.detected_fraction,
    }
    metrics = {
        name: np.reshape(x, shape).astype(float).transpose(order)
        for name, x in metrics.items()
    }
    if design.auto_bandwidth:
        # per procedure, replication and amplitude: the most rejecting band
        counts = np.reshape(outcome.total_rejections, (-1, len(bands)))
        chosen = [most_rejections(c, design.gamma_grid) for c in counts]
        chosen = np.reshape(chosen, (*shape[:3], 1)).transpose(order)
        metrics = {
            name: np.take_along_axis(x, chosen, axis=0) for name, x in metrics.items()
        }
        metrics["chosen"] = chosen
    else:
        locmax = outcome.locmax_per_peak
        locmax = locmax.mean(axis=1) if locmax.shape[1] else np.full(len(locmax), np.nan)
        metrics["locmax_per_peak"] = locmax.reshape(shape[1:]).transpose(2, 1, 0)
    # C-contiguous: a join of strided views may not be, and then a cell's
    # reduction would add its replications in another order
    return {name: np.ascontiguousarray(x) for name, x in metrics.items()}


def most_rejections(counts: Sequence[int], bandwidths: Sequence[float]) -> int:
    """Index of the largest rejection count; ties go to the smallest bandwidth."""
    return min(range(len(counts)), key=lambda i: (-counts[i], bandwidths[i]))


def _aggregate(
    design: SimulationDesign, blocks: list[dict[str, np.ndarray]]
) -> tuple[SweepRow, ...]:
    """The sweep's rows, each cell's metrics in name order.  Each metric is
    reduced once for every cell, its blocks joined along the replication
    axis."""
    x = {name: np.concatenate([b[name] for b in blocks], axis=-1) for name in blocks[0]}
    names = ("fwer", "fdr", "power")
    stats = {name: _cell_stats(x[name], proportion=name == "fwer") for name in names}
    auto = design.auto_bandwidth
    if auto:
        chosen, grid = x["chosen"], np.array(design.gamma_grid)
        stats["chosen_gamma_mean"] = _cell_stats(grid[chosen])
        # [column, amplitude, procedure, bandwidth, replication]
        hits = chosen[..., np.newaxis, :] == np.arange(grid.size)[:, np.newaxis]
        fractions = _cell_stats(hits.astype(float), proportion=True)
    else:
        locmax = _cell_stats(x["locmax_per_peak"])
    rows = []

    def add(gamma, amp, procedure, metric, stat):
        rows.append(SweepRow(gamma, amp, procedure, metric, *stat, design.replications))

    for c, gamma in enumerate((math.nan,) if auto else design.gamma_grid):
        for a, amp in enumerate(design.amplitude_grid):
            for p, proc in enumerate(design.procedures):
                for name in sorted(stats):
                    add(gamma, amp, proc.value, name, stats[name][c][a][p])
                if auto:
                    for g, frac in zip(design.gamma_grid, fractions[c][a][p]):
                        add(g, amp, proc.value, "chosen_fraction", frac)
            if not auto:
                add(gamma, amp, "candidates", "locmax_per_peak", locmax[c][a])
    return tuple(rows)


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
