"""Every layer the benchmark traces still exists where it looks for it.

``bench/run.py`` wraps each entry of its ``TRACE_TARGETS`` list at run
time and counts a missing one as a failure, but only a traced benchmark
run finds that out.  These tests read the list without running the
benchmark: it holds lambdas, so it is parsed with ``ast``, not imported.
Each workload's required layers (``layers`` in ``bench/workloads.py``)
must also be labels of traced targets, or a traced run could never enter
them.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

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


def test_every_required_layer_is_traced():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    labels = {_label(module, attr) for module, attr in TARGETS}
    assert workloads.WORKLOADS
    for name in workloads.WORKLOADS:
        untraced = sorted(set(workloads.layers(name)) - labels)
        assert not untraced, f"{name} requires untraced layers {untraced}"
