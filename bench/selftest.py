"""Self-test of the benchmark: a short run of every workload, both modes.

    python3 bench/selftest.py

Checks that each run exits 0 and ends with a result line holding exactly
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; that
every metric BENCHMARK.json names for the mode is printed, with its
unit, as a finite number; that in the traced run every span metric of
each layer the workload must enter reads above 0; and that no operation
failed (error rate 0) on the source as checked out.  Last, it copies only BENCHMARK.json and the
benchmark's own directories to a scratch directory and checks that the
benchmark refuses to run there: non-zero exit and no result line.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from run import SPAN_STAT_UNITS

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 2.0
SEED = 3


def run(spec, cwd: Path, workload: str, seed: int, seconds: float, trace: int):
    argv = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec, proc, trace: int, layers=()) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return ["last stdout line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(
            f"correct={result.get('correct')} failed={result.get('failed')} "
            f"of {result.get('attempted')}: {proc.stderr.strip()[-300:]}"
        )
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(
            f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}"
        )
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, want {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{m['name']}: end-to-end value {value} is not positive")
    for name, got in metrics.items():
        layer, _, stat = name.rpartition(".")
        if layer in layers and stat in SPAN_STAT_UNITS and not got.get("value", 0) > 0:
            problems.append(f"{name} reads {got.get('value')}, but the workload enters {layer}")
    return problems


def check_bare_directory(spec) -> list[str]:
    """Only BENCHMARK.json and the benchmark's paths: it must refuse to run."""
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec, bare, spec["workloads"][0]["name"], SEED, 1, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        return ["exit 0 without the program's sources"]
    if proc.stdout.strip():
        return [f"printed output without the program's sources: {proc.stdout[-200:]}"]
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(spec, ROOT, workload, SEED, SECONDS, trace)
            problems = check_result(
                spec, proc, trace, workloads.layers(workload) if trace else ())
            failures += bool(problems)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}")
    problems = check_bare_directory(spec)
    failures += bool(problems)
    print("bare directory: " + ("ok" if not problems else "FAIL " + "; ".join(problems)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
