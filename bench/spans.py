"""In-memory spans around stem1d's public functions, for the traced run.

The tracer patches nothing on disk.  It rebinds each traced function at
every name under which a ``stem1d`` module looks it up (``pipeline``
imports ``convolve`` by name, for instance), and replaces a class's
``__post_init__`` to count constructions.  ``restore`` puts every
original back, so an untraced measurement can follow a traced one in the
same process.

A span is (name, start, end, parent, work).  Self time is a span's duration
minus the durations of its direct children, which nest inside it.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.work = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, work=None, root: bool = False):
        """``fn`` wrapped so each call records a span.

        Only ``root`` spans record outside any other span: calls the
        benchmark itself makes to prepare or check inputs stay untraced.
        ``work(args, kwargs, result)``, when given, returns a quantity
        recorded with the span (samples times taps, bytes, candidates).
        """
        nid = self._id(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack, done, clock = self._stack, self.work, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack and not root:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            done.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if work is not None:
                done[idx] = work(args, kwargs, result)
            return result

        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span of its own (the benchmark's operation)."""
        return self.span(name, fn, root=True)(*args, **kwargs)

    # -- patching --------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap each ``(module, attribute, work)`` target where callers find it.

        ``attribute`` is ``func`` or ``Class.method``.  A target that no
        longer exists is listed in ``missing`` and skipped; the benchmark
        counts that as a failure, since the layer's metrics would read 0.
        """
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "stem1d"]
        for module_name, attr, work in targets:
            label = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = None if owner is None else owner.__dict__.get(method)
                if original is None:
                    self.missing.append(label)
                    continue
                label = f"{module_name.rsplit('.', 1)[-1]}.{owner_name}"
                self._patches.append((owner, method, original))
                setattr(owner, method, self.span(label, original, work))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(label)
                continue
            wrapped = self.span(label, original, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def _columns(self):
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        return ids, dur, parent

    def _keep(self, root: str | None) -> np.ndarray:
        """Mask of the spans whose outermost span is named ``root`` (all if None)."""
        ids, _, parent = self._columns()
        if root is None:
            return np.ones(ids.size, dtype=bool)
        top = np.arange(ids.size)
        while True:
            up = np.where(parent[top] >= 0, parent[top], top)
            if np.array_equal(up, top):
                break
            top = up
        return ids[top] == self._name_ids.get(root, -1)

    def summary(self, root: str | None = None) -> dict[str, dict[str, float]]:
        """Per name: calls, total and self seconds, summed work.

        With ``root``, only spans under a root span of that name count.
        """
        ids, dur, parent = self._columns()
        child = parent >= 0
        covered = np.zeros(dur.size)
        np.add.at(covered, parent[child], dur[child])
        own = dur - covered
        work = np.frombuffer(self.work)
        keep = self._keep(root)
        out = {}
        for nid, name in enumerate(self.names):
            mask = (ids == nid) & keep
            out[name] = {
                "calls": int(np.count_nonzero(mask)),
                "total_s": float(dur[mask].sum()),
                "self_s": float(own[mask].sum()),
                "work": float(work[mask].sum()),
            }
        return out

    def under(self, parent_name: str, child_name: str,
              root: str | None = None) -> tuple[int, float]:
        """Calls and seconds of ``child_name`` spans directly under
        ``parent_name`` (and under a ``root`` span, when given)."""
        if parent_name not in self._name_ids or child_name not in self._name_ids:
            return 0, 0.0
        ids, dur, parent = self._columns()
        mask = (ids == self._name_ids[child_name]) & (parent >= 0) & self._keep(root)
        mask[mask] = ids[parent[mask]] == self._name_ids[parent_name]
        return int(np.count_nonzero(mask)), float(dur[mask].sum())

    def counts_since(self, first: int) -> tuple[list[int], list[float]]:
        """Calls and summed work per name, from span ``first`` on."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)[first:]
        work = np.frombuffer(self.work)[first:]
        size = len(self.names)
        return (np.bincount(ids, minlength=size).tolist(),
                np.bincount(ids, weights=work, minlength=size).tolist())

    def write(self, path) -> None:
        """All spans, as gzipped JSON columns."""
        payload = {
            "names": self.names,
            "name_id": list(self.name_id),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "work": list(self.work),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)
