"""stem1d benchmark: end-to-end timings, or a traced run for per-layer costs.

    python3 bench/run.py --workload sweep-sim34 --seed 7 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` (nothing needs building).  One closed-loop caller, one thread,
one process per workload.  ``--seed`` makes every input; the program
receives only the generated inputs.

``--trace 0`` measures the end-to-end metrics with tracing off:

- ``call_ms_p90``: wall time of one timed library call, that is one
  ``run_sweep`` at the workload's replication count, or one gamma=3 plus
  gamma=30 ``stem_detect`` pair on a fresh 10^6-sample series (at least
  100 pairs, so ten or more lie beyond p90);
- ``cli_s_p90``: wall time of the workload's command in a fresh
  interpreter, ``simulate`` for sweeps and ``detect`` with report and
  peaks files for detect-1e6;
- ``setup_s``: p90 of ``run_sweep`` at one replication (sweeps), or of a
  fresh interpreter importing stem1d (detect-1e6);
- ``peak_rss_mb``: peak resident memory of this process, which runs the
  library calls.

``--trace 1`` runs the same operations first untraced, then with spans
around stem1d's public functions (see ``spans.py``), and reports the
per-layer metrics ``<module>.<function>.<stat>``: per replication on
sweeps, per ``stem_detect`` call on detect-1e6 (spans inside the timed
calls only), and per CLI call for ``cli.*`` and ``seriesio.*``.  A layer
the workload never enters reads 0; a traced function that no longer
exists, or a layer the workload must enter (see ``workloads.py``) that
records no call, fails the run.  Both modes check every output.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is
``# details <json>``: the machine, the inputs, the raw samples, the
digest checks, the error rate (failed over attempted operations),
replications per second at the median call, and per-kernel detection
latencies.  The same record, and in
traced runs all spans, are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# Shares of --seconds given to each timed phase.  Each phase also has a
# minimum sample count, so a slow machine runs longer rather than
# reporting fewer samples.  End-to-end phases interleave; traced-run
# phases run in sequence.
SETUP_SHARE, OPS_SHARE, CLI_SHARE = 0.2, 0.4, 0.4
MIN_SETUP, MIN_CLI = 5, 3
TRACE_BASE_SHARE, TRACE_SHARE, THREADS_SHARE = 0.25, 0.45, 0.2
MIN_TRACED = 3

# (module, attribute, work) for every traced public function.  ``work``
# returns a computed quantity summed per function.
TRACE_TARGETS = [
    ("stem1d.palm", "palm_quantile", None),
    ("stem1d.palm", "palm_survival", None),
    ("stem1d.palm", "candidate_pvalues", None),
    ("stem1d.multitest", "run_procedure", None),
    ("stem1d.evaluation", "score_trial", None),
    ("stem1d.evaluation", "run_sweep", None),
    ("stem1d.candidates", "CandidateSet.__post_init__", None),
    ("stem1d.baselines", "pointwise_pvalues", None),
    ("stem1d.baselines", "pointwise_correct", None),
    ("stem1d.baselines", "height_rule_report", None),
    ("stem1d.baselines", "supremum_threshold", None),
    ("stem1d.kernels", "convolve",
     lambda a, k, r: len(a[0].values) * len(a[1].weights)),
    ("stem1d.pipeline", "find_local_maxima", lambda a, k, r: len(r)),
    ("stem1d.pipeline", "stem_detect", None),
    ("stem1d.noise", "generate_noise", None),
    ("stem1d.noise", "estimate_moments", None),
    ("stem1d.grid", "SampledSequence.__post_init__",
     lambda a, k, r: a[0].values.nbytes),
    ("stem1d.seriesio", "read_series", lambda a, k, r: os.path.getsize(a[0])),
    ("stem1d.cli", "main", None),
]

END_TO_END_UNITS = {
    "call_ms_p90": "ms",
    "cli_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, what: str, fn, *args, **kwargs):
        """Run one operation: its result, or None after counting a raise as failed."""
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # counted, reported, and the run goes on
            self._fail(f"{what}: {type(exc).__name__}: {exc}")
            return None
        return result

    def check(self, what: str, problems: list[str]) -> bool:
        if problems:
            self._fail(f"{what}: {'; '.join(problems)}")
            return False
        return True

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)
            print(f"bench: {message}", file=sys.stderr)


def load_program():
    """Import stem1d from this checkout's ``src``; exit 2 when it is absent."""
    src = ROOT / "src"
    if not (src / "stem1d" / "__init__.py").is_file():
        print(f"bench: no stem1d sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import stem1d

    if Path(stem1d.__file__).resolve().parent != (src / "stem1d").resolve():
        print(f"bench: imported stem1d from {stem1d.__file__}", file=sys.stderr)
        sys.exit(2)
    return stem1d


def machine_record(workload) -> dict:
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    record = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    l3 = _kib(caches.get("L3", ""))
    if l3:
        array_bytes = workload.record["array_bytes"]
        where = "fits in" if array_bytes < l3 * 1024 else "exceeds"
        record["cache_note"] = (
            f"the {array_bytes / 2**20:.3g} MiB input series {where} the "
            f"{l3 / 1024:.0f} MiB L3, so convolve rates are "
            + ("cache-resident, not memory-bandwidth figures"
               if where == "fits in" else "partly memory-bound")
        )
    return record


def _kib(size: str) -> int:
    size = size.strip().upper()
    if size.endswith("K"):
        return int(size[:-1])
    if size.endswith("M"):
        return int(size[:-1]) * 1024
    return 0


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile, interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def timed_loop(seconds: float, minimum: int, step) -> list:
    """Call ``step(i)`` until ``seconds`` have passed and ``minimum`` ran."""
    return interleaved(seconds, [(1.0, minimum, step)])[0]


def interleaved(seconds: float, phases) -> list[list]:
    """Run several ``(share, minimum, step)`` phases in one window.

    The next step always goes to the phase furthest below its share of
    the time spent, so every phase samples the whole window and a slow
    spell on a shared machine hits them alike.  Runs past ``seconds``
    only until each phase has its ``minimum`` results.
    """
    results = [[] for _ in phases]
    spent = [0.0] * len(phases)
    deadline = time.perf_counter() + seconds
    while True:
        pending = [i for i, p in enumerate(phases) if len(results[i]) < p[1]]
        late = time.perf_counter() >= deadline
        if late and not pending:
            return results
        eligible = pending if late else range(len(phases))
        i = min(eligible, key=lambda j: spent[j] / phases[j][0])
        t0 = time.perf_counter()
        results[i].append(phases[i][2](len(results[i])))
        spent[i] += time.perf_counter() - t0


# ---------------------------------------------------------------------------
# gates shared by both modes


def reference_gate(workload, tally: Tally, workdir: Path, details: dict) -> None:
    expected = workloads.load_references().get(workload.name, {})
    got = tally.op(
        "reference outputs", workload.reference_outputs, workdir, ROOT
    )
    if got is None:
        raise SystemExit("bench: the reference-seed run raised; see stderr")
    mismatched = sorted(k for k in got if expected.get(k) != got[k])
    details["reference_seed"] = workloads.REFERENCE_SEED
    details["reference_digests"] = got
    details["reference_mismatch"] = mismatched
    tally.check(
        "reference digests",
        [f"{k} is {got[k]}, reference {expected.get(k)}" for k in mismatched],
    )


def run_op(workload, tally: Tally, seed: int, **kwargs):
    """One checked operation: (seconds, parts, digest), or None on failure."""
    prepared = workload.prepare(seed)
    out = tally.op(f"op seed={seed}", workload.run, prepared, **kwargs)
    if out is None:
        return None
    elapsed, parts, output = out
    if not tally.check(f"op seed={seed}", workload.check(output)):
        return None
    return elapsed, parts, workload.digest(output)


def seeded_op(workload, tally: Tally, seed: int):
    """A ``timed_loop`` step running one op on each successive call seed."""
    seeds = workloads.call_seeds(seed)

    def step(i):
        s = next(seeds)
        return s, run_op(workload, tally, s)

    return step


# ---------------------------------------------------------------------------
# end-to-end mode


def measure(workload, seed: int, seconds: float, tally: Tally, workdir: Path,
            details: dict) -> dict:
    argv, verify = workload.cli_prepare(seed, workdir)
    setup_seeds = workloads.call_seeds(seed, "setup")

    def setup_call(i):
        return tally.op("setup", workload.setup_once, next(setup_seeds), ROOT)

    def cli_call(i):
        elapsed = tally.op("cli", workloads.run_cli, ROOT, argv)
        if elapsed is not None and tally.check("cli output", verify()):
            return elapsed
        return None

    setup, ops, cli = interleaved(seconds, [
        (SETUP_SHARE, MIN_SETUP, setup_call),
        (OPS_SHARE, workload.min_ops, seeded_op(workload, tally, seed)),
        (CLI_SHARE, MIN_CLI, cli_call),
    ])
    first_seed, first = ops[0]
    repeat = run_op(workload, tally, first_seed)
    if first is not None and repeat is not None:
        tally.check("repeat of the first op", workloads.compare(
            "digest of a repeated op", repeat[2], first[2]))
    setup = [t for t in setup if t is not None]
    done = [(s, r) for s, r in ops if r is not None]
    cli = [t for t in cli if t is not None]

    if not (setup and done and cli):
        raise SystemExit("bench: no successful operations to report")
    times = [r[0] for _, r in done]
    details["samples"] = {"setup": len(setup), "ops": len(times), "cli": len(cli)}
    details["setup_samples_s"] = setup
    details["cli_samples_s"] = cli
    details["op_samples_s"] = times
    details["op_unit"] = f"{workload.items()} {workload.unit} per call"
    details["median_items_per_s"] = workload.items() / statistics.median(times)
    for part in done[0][1][1]:
        values = [r[1][part] * 1e3 for _, r in done]
        details[f"detect_{part}_ms_p50"] = statistics.median(values)
        details[f"detect_{part}_ms_p90"] = percentile(values, 90)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # p90, not the median, for every gated timing (set-up too): on a
    # shared VM the same call runs at one of two speeds, up to 2x apart,
    # in spells of seconds as load outside the VM comes and goes.  The
    # fast share of a run varies, so medians and means of identical runs
    # differ by up to 40%; p90 sits in the slow state and moved least of
    # the percentiles tried.
    details["setup_median_s"] = statistics.median(setup)
    details["call_ms_p75"] = percentile(times, 75) * 1e3
    details["cli_median_s"] = statistics.median(cli)
    return {
        "call_ms_p90": percentile(times, 90) * 1e3,
        "cli_s_p90": percentile(cli, 90),
        "setup_s": percentile(setup, 90),
        "peak_rss_mb": rss_kib / 1024.0,
    }


# ---------------------------------------------------------------------------
# traced mode


def measure_traced(workload, seed: int, seconds: float, tally: Tally,
                   workdir: Path, details: dict) -> tuple[dict, Tracer]:
    import stem1d.cli

    is_sweep = isinstance(workload, workloads.Sweep)
    base = timed_loop(TRACE_BASE_SHARE * seconds, MIN_TRACED,
                      seeded_op(workload, tally, seed))
    base = [(s, r) for s, r in base if r is not None]
    if not base:
        raise SystemExit("bench: no successful untraced operations")

    # The traced ops replay the untraced seeds, the first one twice, so
    # digests and exact counts can be compared.
    replay = [base[0][0]] + [s for s, _ in base]
    tracer = Tracer()
    tracer.install(TRACE_TARGETS)
    traced = []
    per_op_counts = []
    deadline = time.perf_counter() + TRACE_SHARE * seconds
    try:
        for i, s in enumerate(replay):
            if i > MIN_TRACED and time.perf_counter() > deadline:
                break
            first_span = len(tracer.start)
            prepared = workload.prepare(s)
            out = tally.op(f"traced op seed={s}", tracer.call, "bench.op",
                           workload.run, prepared)
            if out is None:
                continue
            per_op_counts.append(tracer.counts_since(first_span))
            traced.append((s, out[0], workload.digest(out[2])))
        cli_calls = 0
        if not is_sweep:
            argv, verify = workload.cli_prepare(seed, workdir)
            for _ in range(2):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = tally.op("traced cli", tracer.call, "bench.cli",
                                    stem1d.cli.main, argv)
                if code == 0 and tally.check("traced cli output", verify()):
                    cli_calls += 1
    finally:
        tracer.restore()

    untraced = dict((s, r) for s, r in base)
    tally.check("traced digests", [
        f"seed={s}: traced digest differs from untraced"
        for s, _, d in traced if d != untraced[s][2]
    ])
    if len(per_op_counts) >= 2:
        tally.check("exact counts", [] if per_op_counts[0] == per_op_counts[1]
                    else ["calls or work differ between two ops with one seed"])
    traced_times = [t for _, t, _ in traced]
    base_times = [untraced[s][0] for s, _, _ in traced]
    if not traced_times:
        raise SystemExit("bench: no successful traced operations")
    overhead = percentile(traced_times, 75) / percentile(base_times, 75) - 1

    speedup = alloc = 0.0
    if is_sweep:
        alloc = alloc_per_rep(workload, tally, *base[0], details)
        speedup = 1.0
        if workload.supports_threads():
            # Both thread counts run on every allowed CPU, in alternation.
            def pair(i):
                s, (_, _, digest) = base[i % len(base)]
                one = run_op(workload, tally, s)
                two = run_op(workload, tally, s, threads=2)
                if two is not None:
                    tally.check("threads=2 output", workloads.compare(
                        "threads=2 digest", two[2], digest))
                return one, two

            pinned = os.sched_getaffinity(0)
            os.sched_setaffinity(0, details["cpus_allowed"])
            try:
                pairs = timed_loop(THREADS_SHARE * seconds, 2, pair)
            finally:
                os.sched_setaffinity(0, pinned)
            one = [a[0] for a, b in pairs if a is not None and b is not None]
            two = [b[0] for a, b in pairs if a is not None and b is not None]
            if two:
                speedup = statistics.median(one) / statistics.median(two)
        details["threads_knob"] = workload.supports_threads()

    # In-process layers count only inside the timed ops, and cli.* and
    # seriesio.* only inside the CLI calls, so neither mixes into the
    # other's per-call figures.
    summary = tracer.summary(root="bench.op")
    cli_summary = tracer.summary(root="bench.cli")
    if is_sweep:
        norm = workload.items() * len(traced)
        details["normalised_per"] = f"{norm} replications"
    else:
        norm = summary.get("pipeline.stem_detect", {}).get("calls", 0) or 1
        details["normalised_per"] = f"{norm} stem_detect calls"
    details["samples"] = {"untraced_ops": len(base), "traced_ops": len(traced),
                          "traced_cli": cli_calls}
    tally.check("trace targets", [f"{t} not found" for t in tracer.missing])
    tally.check("layers entered", [
        f"{layer} recorded no call"
        for layer in workload.layers
        if not layer_summary(layer, summary, cli_summary).get("calls")
    ])
    op_total = summary["bench.op"]["total_s"]
    details["self_share_of_op_time"] = {
        name: round(s["self_s"] / op_total, 4)
        for name, s in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])
        if s["calls"]
    }
    survival = tracer.under("palm.palm_quantile", "palm.palm_survival", root="bench.op")
    details["palm_survival_within_quantile_share"] = round(survival[1] / op_total, 4)
    metrics = per_layer(summary, cli_summary, survival[0], norm, max(cli_calls, 1))
    metrics["trace_overhead_frac"] = overhead
    metrics["evaluation.run_sweep.threads2_speedup"] = speedup
    metrics["evaluation.run_sweep.alloc_kib_per_rep"] = alloc
    return metrics, tracer


def alloc_per_rep(workload, tally: Tally, seed: int, op, details: dict) -> float:
    """KiB of peak allocation that each replication adds to one run_sweep.

    The difference of two runs on one seed, at one replication and at
    the workload's count, under tracemalloc (untimed).  A sweep that holds
    one replication's arrays at a time reads near 0; one that holds all R
    replications in R x n arrays adds 8n bytes per array per replication,
    which the 10^4-replication presets turn into tens of MiB per array.
    ``peak_rss_mb`` cannot show that at the few replications a timed call
    runs, so the projection to the preset's count is in the details.
    """
    one = tally.op("alloc probe", workload.peak_alloc, seed, 1)
    full = tally.op("alloc probe", workload.peak_alloc, seed, workload.batch)
    if one is None or full is None:
        return 0.0
    tally.check("alloc probe output", workloads.compare(
        "digest under tracemalloc", workload.digest(full[1]), op[2]))
    per_rep = (full[0] - one[0]) / (workload.batch - 1)
    reps = workload.record["preset_replications"]
    details["alloc_peak_kib"] = {"1": one[0] / 1024, str(workload.batch): full[0] / 1024}
    details[f"alloc_peak_projected_mib_at_{reps}"] = (
        (one[0] + per_rep * (reps - 1)) / 2**20)
    return per_rep / 1024


# Units of the metrics derived from spans, by their last name part.  A
# layer that a workload must enter (its ``layers``) has each of these
# metrics above 0.
SPAN_STAT_UNITS = {
    "calls": "count", "constructed": "count", "candidates": "count",
    "evals_per_quantile": "count", "self_ms": "ms", "gmac_per_s": "GMAC/s",
    "bytes_copied": "B", "mb_per_s": "MB/s",
}
OTHER_LAYER_UNITS = {
    "trace_overhead_frac": "ratio",
    "evaluation.run_sweep.threads2_speedup": "ratio",
    "evaluation.run_sweep.alloc_kib_per_rep": "KiB",
}
CLI_LAYERS = ("cli.", "seriesio.")


def layer_summary(layer: str, summary: dict, cli_summary: dict) -> dict:
    """A layer's span totals: from the CLI calls for ``CLI_LAYERS``, else
    from the timed ops."""
    return (cli_summary if layer.startswith(CLI_LAYERS) else summary).get(layer, {})


def per_layer(summary: dict, cli_summary: dict, survival_evals: int, norm: float,
              cli_calls: int) -> dict:
    """Per-layer metrics, per replication (sweeps) or per detect call.

    ``cli.*`` and ``seriesio.*`` are per traced CLI call.  A layer the
    workload never enters reads 0.
    """
    def get(name, field):
        return layer_summary(name, summary, cli_summary).get(field, 0.0)

    out = {}
    for name in ("palm.palm_quantile", "multitest.run_procedure",
                 "evaluation.score_trial", "baselines.height_rule_report",
                 "baselines.supremum_threshold", "kernels.convolve",
                 "noise.generate_noise", "noise.estimate_moments"):
        out[f"{name}.calls"] = get(name, "calls") / norm
    for name in ("palm.palm_quantile", "palm.candidate_pvalues",
                 "multitest.run_procedure", "evaluation.score_trial",
                 "evaluation.run_sweep", "candidates.CandidateSet",
                 "baselines.pointwise_pvalues", "baselines.pointwise_correct",
                 "kernels.convolve", "pipeline.find_local_maxima",
                 "pipeline.stem_detect", "noise.generate_noise",
                 "noise.estimate_moments"):
        out[f"{name}.self_ms"] = get(name, "self_s") * 1e3 / norm
    for name in ("candidates.CandidateSet", "grid.SampledSequence"):
        out[f"{name}.constructed"] = get(name, "calls") / norm
    quantiles = get("palm.palm_quantile", "calls")
    out["palm.palm_survival.evals_per_quantile"] = (
        survival_evals / quantiles if quantiles else 0.0
    )
    conv_s = get("kernels.convolve", "self_s")
    out["kernels.convolve.gmac_per_s"] = (
        get("kernels.convolve", "work") / 1e9 / conv_s if conv_s else 0.0
    )
    out["pipeline.find_local_maxima.candidates"] = (
        get("pipeline.find_local_maxima", "work") / norm
    )
    out["grid.SampledSequence.bytes_copied"] = get("grid.SampledSequence", "work") / norm
    out["seriesio.read_series.self_ms"] = (
        get("seriesio.read_series", "self_s") * 1e3 / cli_calls
    )
    read_s = get("seriesio.read_series", "total_s")
    out["seriesio.read_series.mb_per_s"] = (
        get("seriesio.read_series", "work") / 1e6 / read_s if read_s else 0.0
    )
    out["cli.main.self_ms"] = get("cli.main", "self_s") * 1e3 / cli_calls
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    stem1d = load_program()
    workload = workloads.build(stem1d, args.workload)
    OUT_DIR.mkdir(exist_ok=True)
    tally = Tally()
    # One caller on one CPU, which the program's subprocesses inherit.
    # Unpinned, the process migrates between CPUs whose speed differs
    # with what shares their cores, and call times turn bimodal.
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "cpus_allowed": allowed, "pinned_cpu": allowed[-1],
               "machine": machine_record(workload), "inputs": workload.record}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        reference_gate(workload, tally, workdir, details)
        if args.trace:
            metrics, tracer = measure_traced(
                workload, args.seed, args.seconds, tally, workdir, details)
            tracer.write(OUT_DIR / f"{tag}.spans.json.gz")
            units = {k: OTHER_LAYER_UNITS.get(k) or SPAN_STAT_UNITS[k.rsplit(".", 1)[-1]]
                     for k in metrics}
        else:
            metrics = measure(workload, args.seed, args.seconds, tally,
                              workdir, details)
            units = END_TO_END_UNITS
    details["error_rate"] = tally.failed / max(tally.attempted, 1)
    details["problems"] = tally.problems
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    print("# details " + json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
