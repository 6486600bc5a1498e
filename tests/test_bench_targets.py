"""Every layer the benchmark traces still exists where it looks for it.

``bench/run.py`` wraps each entry of its ``TRACE_TARGETS`` list at run
time and counts a missing one as a failure, but only a traced benchmark
run finds that out.  These tests read the list without running the
benchmark: it holds lambdas, so it is parsed with ``ast``, not imported.
Each workload's required layers (``layers`` in ``bench/workloads.py``)
must also be labels of traced targets, or a traced run could never enter
them, and a small run of each workload under the benchmark's tracer must
enter every one of them.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import stem1d
from stem1d import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _trace_targets() -> list[tuple[str, str]]:
    """``(module, attribute)`` of each ``TRACE_TARGETS`` entry."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        names = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if "TRACE_TARGETS" in names:
            return [
                (ast.literal_eval(entry.elts[0]), ast.literal_eval(entry.elts[1]))
                for entry in node.value.elts
            ]
    raise AssertionError("bench/run.py assigns no TRACE_TARGETS list")


TARGETS = _trace_targets()


def _label(module: str, attr: str) -> str:
    """The span label of a target: ``Class.method`` is labelled by its class."""
    owner, _, _ = attr.rpartition(".")
    return f"{module.rsplit('.', 1)[-1]}.{owner or attr}"


@pytest.mark.parametrize("module,attr", TARGETS, ids=[f"{m}:{a}" for m, a in TARGETS])
def test_trace_target_resolves(module, attr):
    found = importlib.import_module(module)
    owner, _, method = attr.rpartition(".")
    if owner:
        # the tracer patches the method in the class's own namespace
        cls = getattr(found, owner, None)
        assert cls is not None, f"{module} has no {owner}"
        assert method in vars(cls), f"{module}.{owner} defines no {method}"
    else:
        assert callable(getattr(found, attr, None)), f"{module} has no {attr}"


def _bench_module(name: str):
    """``bench/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _bench_module("workloads")


def test_every_required_layer_is_traced():
    labels = {_label(module, attr) for module, attr in TARGETS}
    assert workloads.WORKLOADS
    for name in workloads.WORKLOADS:
        untraced = sorted(set(workloads.layers(name)) - labels)
        assert not untraced, f"{name} requires untraced layers {untraced}"


def _detect(tmp_path):
    """CLI ``detect`` on a 4000-sample series with one planted peak."""
    values = np.random.default_rng(3).standard_normal(4000)
    values[1990:2011] += 6.0 * np.exp(-0.5 * (np.arange(-10, 11) / 3.0) ** 2)
    series, moments = tmp_path / "series.csv", tmp_path / "moments.json"
    series.write_text("# dt=1.0 t0=0.0\n" + "\n".join(map(repr, values.tolist())) + "\n")
    noise = stem1d.GaussianAcvfParams(sigma=1.0, nu=0.0)
    moments.write_text(json.dumps(stem1d.closed_form_moments(noise, 3.0).to_json_dict()))
    argv = ["detect", "--input", str(series), "--gamma", "3", "--moments", str(moments),
            "--alpha", "0.05", "--report-json", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0  # looked up at the call, where the tracer wraps it


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_a_small_run_enters_every_required_layer(name, tmp_path):
    # bypassed layers otherwise show only in a traced benchmark run
    tracer = _bench_module("spans").Tracer()
    tracer.install([(module, attr, None) for module, attr in TARGETS])
    try:
        if name in workloads.SWEEPS:
            design = stem1d.preset_design(workloads.SWEEPS[name][0])
            tracer.call("op", stem1d.run_sweep, design.with_options(replications=1), 5)
        else:
            tracer.call("op", _detect, tmp_path)
    finally:
        tracer.restore()
    assert not tracer.missing
    entered = {tracer.names[i] for i in tracer.name_id}
    missed = sorted(set(workloads.layers(name)) - entered)
    assert not missed, f"{name} recorded no call of {missed}"
    if "palm.palm_survival" in workloads.layers(name):
        # as bench/selftest.py requires of evals_per_quantile: the survival
        # function is evaluated inside palm_quantile, not only around it
        assert tracer.under("palm.palm_quantile", "palm.palm_survival")[0] > 0
