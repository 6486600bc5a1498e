"""The benchmark's workloads and their behaviour gates.

Each workload drives stem1d only through its public functions and the
``python -m stem1d`` command line.  One timed operation is:

- sweep-*: one ``run_sweep`` call on a preset at a fixed replication
  count, with one caller and the default single thread;
- detect-1e6: ``stem_detect`` on a fresh 10^6-sample series with BH at
  alpha=0.05, once with the gamma=3 Gaussian kernel (19 taps) and once
  with gamma=30 (181 taps).

Why these four: sweep-sim34 is the only preset that runs all five
procedures (candidate scoring and the pointwise/supremum baselines are
half its trial time); sweep-sim35 is the auto-bandwidth path, dominated
by ``palm_quantile``; sweep-sim32 estimates its moments, so its set-up
(3000 calibration draws) is large and quartic kernels run; detect-1e6 is
single-series detection, where ``convolve`` dominates and the two
kernels sit on either side of any size-based choice of convolution
method.

Outputs are gated by sha256 digests: the reference seed's digests are
committed in ``reference.json``, and every operation is also checked
against properties that hold for any seed.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np

REFERENCE_SEED = 7
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# sim31 is not timed; a short run at the reference seed keeps its
# output gated alongside the three timed presets.
SIM31_GATE_REPLICATIONS = 4


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def sha256_json(payload) -> str:
    return sha256_lines([json.dumps(payload, sort_keys=True)])


def call_seeds(seed: int, stream: str = ""):
    """Seeds of successive timed calls: ``seed`` first, then draws from it.

    Every call gets fresh inputs, so a result cache in the program cannot
    turn repeated work into lookups.  A named ``stream`` (set-up calls)
    draws seeds of its own, so it repeats none of the operations' inputs.
    """
    if not stream:
        yield seed
    rng = random.Random(f"{stream}:{seed}" if stream else seed)
    while True:
        yield rng.randrange(1, 2**31)


def load_references() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def program_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_timed(root: Path, argv: list[str], timeout: float = 150.0) -> float:
    """Wall time of ``argv`` run in a fresh process from ``root``.

    The wait blocks in ``waitpid``: ``subprocess`` given a timeout polls
    for the exit in sleeps of up to 50 ms, which would quantise the times.
    A timer kills the process after ``timeout`` seconds instead.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=root, env=program_env(root),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, err = proc.communicate()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(argv[1:4])} exited {proc.returncode}: {err.strip()[-500:]}"
        )
    return elapsed


def run_cli(root: Path, argv: list[str]) -> float:
    """Wall time of ``python -m stem1d <argv>`` in a fresh interpreter."""
    return run_timed(root, [sys.executable, "-m", "stem1d", *argv])


def data_lines(path) -> list[str]:
    """File lines without the ``#`` provenance header."""
    with open(path, encoding="utf-8") as fh:
        return [ln for ln in fh.read().splitlines() if not ln.startswith("#")]


# ---------------------------------------------------------------------------
# sweeps


_RATE_METRICS = ("fwer", "fdr", "power", "chosen_fraction")


class Sweep:
    """``run_sweep`` on a preset at ``batch`` replications."""

    unit = "replication"
    min_ops = 10

    def __init__(self, stem1d, name: str, preset: str, batch: int, layers):
        self.stem1d = stem1d
        self.name = name
        self.preset = preset
        self.batch = batch
        self.layers = layers
        base = stem1d.preset_design(preset)
        self.design = base.with_options(replications=batch)
        self.setup_design = base.with_options(replications=1)
        self.expected_rows = None  # set by reference_outputs
        kernels = [self.design.build_kernel(g) for g in self.design.gamma_grid]
        n = stem1d.synthesize_signal(self.design.signal, self.design.dt).values.size
        self.record = {
            "preset": preset,
            "replications_per_op": batch,
            "preset_replications": base.replications,
            "n": n,
            "taps": [len(k) for k in kernels],
            "array_bytes": 8 * n,
            "procedures": [p.value for p in self.design.procedures],
        }
        if self.design.moments_mode == "estimated":
            self.record["calibration_draws"] = len(kernels) * self.design.moments_reps

    def items(self) -> int:
        return self.batch

    def prepare(self, seed: int) -> int:
        return seed

    def run(self, seed: int, **kwargs):
        t0 = time.perf_counter()
        result = self.stem1d.run_sweep(self.design, seed=seed, **kwargs)
        elapsed = time.perf_counter() - t0
        return elapsed, {}, result.csv_lines()

    def digest(self, lines) -> str:
        return sha256_lines(lines)

    def peak_alloc(self, seed: int, replications: int) -> tuple[int, list[str]]:
        """Peak bytes (numpy buffers included) that one ``run_sweep`` at
        ``replications`` allocates, and its csv lines."""
        design = self.design.with_options(replications=replications)
        tracemalloc.start()
        try:
            lines = self.stem1d.run_sweep(design, seed=seed).csv_lines()
            return tracemalloc.get_traced_memory()[1], lines
        finally:
            tracemalloc.stop()

    def check(self, lines) -> list[str]:
        problems = []
        if len(lines) != self.expected_rows:
            problems.append(f"{len(lines)} csv lines, expected {self.expected_rows}")
        for line in lines[1:]:
            fields = line.split(",")
            if fields[3] in _RATE_METRICS and fields[4]:
                value = float(fields[4])
                if not 0.0 <= value <= 1.0:
                    problems.append(f"{fields[3]}={value} outside [0, 1]")
        return problems

    def reference_outputs(self, workdir: Path, root: Path) -> dict[str, str]:
        """Digests at the reference seed: this preset, and the sim31 gate."""
        _, _, lines = self.run(REFERENCE_SEED)
        self.expected_rows = len(lines)
        sim31 = self.stem1d.preset_design("sim31").with_options(
            replications=SIM31_GATE_REPLICATIONS
        )
        gate = self.stem1d.run_sweep(sim31, seed=REFERENCE_SEED).csv_lines()
        return {
            f"{self.preset}_r{self.batch}_csv": self.digest(lines),
            f"sim31_r{SIM31_GATE_REPLICATIONS}_csv": sha256_lines(gate),
        }

    def setup_once(self, seed: int, root: Path) -> float:
        """Wall time of ``run_sweep`` at one replication (set-up plus one trial)."""
        t0 = time.perf_counter()
        self.stem1d.run_sweep(self.setup_design, seed=seed)
        return time.perf_counter() - t0

    def cli_prepare(self, seed: int, workdir: Path):
        out = workdir / "results.csv"
        argv = [
            "simulate", "--preset", self.preset,
            "--replications", str(self.batch),
            "--seed", str(seed), "--output", str(out),
        ]
        expected = self.stem1d.run_sweep(self.design, seed=seed).csv_lines()
        return argv, lambda: compare("simulate output", data_lines(out), expected)

    def supports_threads(self) -> bool:
        return "threads" in inspect.signature(self.stem1d.run_sweep).parameters


def compare(what: str, got, expected) -> list[str]:
    if got == expected:
        return []
    return [f"{what} differs from the in-process result"]


# ---------------------------------------------------------------------------
# single-series detection


DETECT_N = 1_000_000
DETECT_GAMMAS = (3.0, 30.0)
DETECT_ALPHA = 0.05
DETECT_PEAKS = 20
# Gaussian bumps of scale 10 samples and area 150: about 19 smoothed-noise
# standard deviations tall at both bandwidths, so every planted peak is
# rejected on any seed and the recall check cannot fail by chance.
PEAK_SCALE = 10.0
PEAK_AREA = 150.0
RECALL_TOLERANCE = 3 * PEAK_SCALE


def make_series(seed: int):
    """White unit noise with ``DETECT_PEAKS`` planted bumps; (values, centers)."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(DETECT_N)
    spacing = DETECT_N // DETECT_PEAKS
    jitter = rng.integers(-spacing // 4, spacing // 4, size=DETECT_PEAKS)
    centers = np.arange(DETECT_PEAKS) * spacing + spacing // 2 + jitter
    k = np.arange(-int(5 * PEAK_SCALE), int(5 * PEAK_SCALE) + 1)
    bump = PEAK_AREA * np.exp(-0.5 * (k / PEAK_SCALE) ** 2) / (
        PEAK_SCALE * np.sqrt(2.0 * np.pi)
    )
    for c in centers:
        values[c + k] += bump
    return values, centers


def write_series_csv(values: np.ndarray, path: Path) -> None:
    """Series CSV in the program's input format, written in blocks."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# dt=1.0 t0=0.0\n")
        for i in range(0, values.size, 20000):
            fh.write("\n".join(map(repr, values[i:i + 20000].tolist())))
            fh.write("\n")


class Detect:
    """``stem_detect`` on a 10^6-sample series at gamma=3 and gamma=30."""

    unit = "series"
    layers = ("kernels.convolve", "pipeline.find_local_maxima",
              "pipeline.stem_detect", "grid.SampledSequence",
              "palm.palm_quantile", "multitest.run_procedure",
              "seriesio.read_series", "cli.main")
    # p90 is reported with at least ten samples beyond it.
    min_ops = 100

    def __init__(self, stem1d, name: str):
        self.stem1d = stem1d
        self.name = name
        noise = stem1d.GaussianAcvfParams(sigma=1.0, nu=0.0)
        self.kernels = [stem1d.gaussian_kernel(g, 1.0) for g in DETECT_GAMMAS]
        self.moments = [stem1d.closed_form_moments(noise, g) for g in DETECT_GAMMAS]
        self.procedure = stem1d.Procedure.BH
        self.record = {
            "n": DETECT_N,
            "gammas": list(DETECT_GAMMAS),
            "taps": [len(k) for k in self.kernels],
            "array_bytes": 8 * DETECT_N,
            "planted_peaks": DETECT_PEAKS,
            "procedure": "bh",
            "alpha": DETECT_ALPHA,
        }

    def items(self) -> int:
        return 1

    def prepare(self, seed: int):
        values, centers = make_series(seed)
        return self.stem1d.SampledSequence(values, 1.0), centers

    def run(self, prepared, **_):
        series, centers = prepared
        parts = {}
        reports = []
        t_all = time.perf_counter()
        for gamma, kernel, moments in zip(DETECT_GAMMAS, self.kernels, self.moments):
            t0 = time.perf_counter()
            result = self.stem1d.stem_detect(
                series, kernel, moments, self.procedure, DETECT_ALPHA
            )
            parts[f"g{gamma:g}"] = time.perf_counter() - t0
            reports.append(result.report)
        elapsed = time.perf_counter() - t_all
        return elapsed, parts, (reports, centers)

    def digest(self, output) -> str:
        reports, _ = output
        return sha256_json([r.to_json_dict() for r in reports])

    def check(self, output) -> list[str]:
        reports, centers = output
        problems = []
        for gamma, report in zip(DETECT_GAMMAS, reports):
            locs = np.asarray(report.rejected.locations)
            missed = [
                int(c) for c in centers
                if not np.any(np.abs(locs - c) <= RECALL_TOLERANCE)
            ]
            if missed:
                problems.append(f"gamma={gamma:g}: planted peaks missed at {missed}")
        return problems

    def reference_outputs(self, workdir: Path, root: Path) -> dict[str, str]:
        """Digests at the reference seed, in process and through the CLI."""
        prepared = self.prepare(REFERENCE_SEED)
        _, _, output = self.run(prepared)
        argv, _ = self.cli_prepare(REFERENCE_SEED, workdir, prepared=prepared)
        run_cli(root, argv)
        report = _load_report(workdir / "report.json")
        return {
            "stem_detect_reports": self.digest(output),
            "cli_report_json": sha256_json(report),
            "cli_peaks_csv": sha256_lines(data_lines(workdir / "peaks.csv")),
        }

    def setup_once(self, seed: int, root: Path) -> float:
        """Wall time for a fresh interpreter to ``import stem1d``."""
        return run_timed(root, [sys.executable, "-c", "import stem1d"])

    def cli_prepare(self, seed: int, workdir: Path, prepared=None):
        series, _ = prepared if prepared is not None else self.prepare(seed)
        write_series_csv(series.values, workdir / "series.csv")
        with open(workdir / "moments.json", "w", encoding="utf-8") as fh:
            json.dump(self.moments[0].to_json_dict(), fh)
        argv = [
            "detect", "--input", str(workdir / "series.csv"),
            "--gamma", f"{DETECT_GAMMAS[0]:g}",
            "--moments", str(workdir / "moments.json"),
            "--procedure", "bh", "--alpha", f"{DETECT_ALPHA:g}",
            "--report-json", str(workdir / "report.json"),
            "--peaks-csv", str(workdir / "peaks.csv"),
        ]
        report = self.stem1d.stem_detect(
            series, self.kernels[0], self.moments[0], self.procedure, DETECT_ALPHA
        ).report
        expected_json = json.loads(json.dumps(report.to_json_dict()))
        expected_csv = report.rejected_csv_lines()

        def verify():
            return compare(
                "detect report", _load_report(workdir / "report.json"), expected_json
            ) + compare("detect peaks", data_lines(workdir / "peaks.csv"), expected_csv)

        return argv, verify


def _load_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload.pop("provenance", None)
    return payload


# Each workload's ``layers`` are the traced layers ("module.function", as
# the per-layer metrics name them) that its traced run must enter.  One
# that records no call fails the run: a refactor that renames a layer,
# or calls it through a reference the tracer cannot see, would otherwise
# read as a layer whose cost fell to 0.
_EVERY_SWEEP = ("palm.palm_quantile", "palm.palm_survival", "palm.candidate_pvalues",
                "multitest.run_procedure", "evaluation.run_sweep")

# workload -> (preset, replications per timed run_sweep call, layers)
SWEEPS = {
    "sweep-sim34": ("sim34", 4, _EVERY_SWEEP + (
        "evaluation.score_trial", "candidates.CandidateSet",
        "baselines.pointwise_pvalues", "baselines.pointwise_correct",
        "baselines.height_rule_report", "baselines.supremum_threshold")),
    "sweep-sim35": ("sim35", 4, _EVERY_SWEEP + (
        "evaluation.score_trial", "candidates.CandidateSet")),
    "sweep-sim32": ("sim32", 10, _EVERY_SWEEP + (
        "noise.generate_noise", "noise.estimate_moments", "kernels.convolve",
        "grid.SampledSequence")),
}
WORKLOADS = (*SWEEPS, "detect-1e6")


def layers(name: str) -> tuple[str, ...]:
    """The traced layers that workload ``name`` must enter."""
    return SWEEPS[name][2] if name in SWEEPS else Detect.layers


def build(stem1d, name: str):
    if name in SWEEPS:
        return Sweep(stem1d, name, *SWEEPS[name])
    return Detect(stem1d, name)
