"""Spans around the public calls into onecenter's layers, recorded from outside.

The library is not modified.  ``install`` swaps wrappers into every
``onecenter`` module attribute that refers to a traced public function,
so a solver that calls ``weighted_median`` or ``cluster_any_alpha`` by
name goes through the wrapper.  Norm batches, oracle row fetches and
oracle validation are timed by subclasses of ``LpSpace`` and
``MatrixOracle`` that replace those class names the same way.  Private
helpers (``_below_half_centers``, ``_halfplus_center``, ...) get no span;
their cost shows as the self time of the public span that called them.

A span is (name, start, end, parent, count): ``count`` is the work the
call was handed (elements selected, rows normed, oracle queries, bytes
parsed).  Spans are kept in compact arrays until ``summarize`` runs.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

import numpy as np

from onecenter import cover, formats, lp, metric, normed, oracle, selection, spaces, verify

# Public functions that get a span named "<layer>.<function>".
WRAPPED = {
    selection: ("weighted_median", "smallest_radius_at_weight", "weighted_quantile_radius"),
    lp: ("lp_coordinate_median",),
    normed: ("cluster_halfplus", "pair_reduce", "centroid_refine"),
    cover: ("ball_cover", "below_half_cover", "cluster_any_alpha", "bucket_reduce", "cluster_logtower"),
    metric: ("metric_halfplus", "metric_quadratic", "metric_cover"),
    verify: ("verify_ball", "brute_force_best"),
    formats: ("read_points_csv", "read_matrix", "load_instance"),
}


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[1]


def _work(layer: str, args) -> int:
    """Work handed to a wrapped call: elements for selection, bytes for parsing."""
    if layer == "selection":
        return int(np.size(args[0]))
    if layer == "formats":
        return os.path.getsize(args[0])
    return 0


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counts = array("q")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.starts)

    def add(self, name: str, start: float, end: float, parent: int, count: int = 0) -> int:
        """Record a finished span; returns its index."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_ids.append(nid)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.counts.append(count)
        return len(self.starts) - 1

    @property
    def current(self) -> int:
        """Index of the innermost open span, -1 at top level."""
        return self._stack[-1]

    def call(self, name: str, count: int, fn, args=(), kwargs=None):
        idx = self.add(name, 0.0, 0.0, self._stack[-1], count)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self.ends[idx] = time.perf_counter()
            self.starts[idx] = start
            self._stack.pop()

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                [self.name_ids[i], self.starts[i], self.ends[i], self.parents[i], self.counts[i]]
                for i in range(len(self))
            ],
        }

    def merge(self, doc: dict, parent: int) -> None:
        """Append spans recorded by another process under span ``parent``.

        time.perf_counter reads the system-wide monotonic clock on Linux,
        so the child's start and end times need no translation.
        """
        base = len(self)
        for nid, start, end, par, count in doc["spans"]:
            self.add(doc["names"][nid], start, end, parent if par < 0 else base + par, count)


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    span = f"{layer}.{name}"

    def wrapper(*args, **kwargs):
        return tracer.call(span, _work(layer, args), fn, args, kwargs)

    return wrapper


def _traced_classes(tracer: Tracer) -> dict:
    class TracedLpSpace(spaces.LpSpace):
        def norms(self, vs):
            return tracer.call("spaces.norms", len(vs), super().norms, (vs,))

    class TracedMatrixOracle(oracle.MatrixOracle):
        def __init__(self, matrix, validate="auto"):
            tracer.call("oracle.validate", len(matrix), super().__init__, (matrix, validate))

        def dist_many(self, i, idx):
            return tracer.call("oracle.dist_many", int(np.size(idx)), super().dist_many, (i, idx))

    return {spaces.LpSpace: TracedLpSpace, oracle.MatrixOracle: TracedMatrixOracle}


def install(tracer: Tracer):
    """Route every traced public call through ``tracer``; returns the undo function."""
    replacements = {}
    for module, names in WRAPPED.items():
        for name in names:
            fn = getattr(module, name)
            replacements[id(fn)] = (fn, _wrap(tracer, _layer(module), name, fn))
    for cls, traced in _traced_classes(tracer).items():
        replacements[id(cls)] = (cls, traced)
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "onecenter" and not modname.startswith("onecenter."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))

    def undo():
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)

    return undo


def summarize(tracer: Tracer) -> dict:
    """Per-name totals: calls, work count, time, self time and outer time.

    Self time is a span's duration minus its children's durations.  Outer
    time sums only spans with no ancestor of the same layer, so a layer's
    recursive or nested calls are not counted twice.
    """
    n = len(tracer)
    layer_of = [name.split(".", 1)[0] for name in tracer.names]
    child_time = [0.0] * n
    outer = [True] * n
    layers_above: list[frozenset] = [frozenset()] * n
    interned: dict[tuple, frozenset] = {}
    for i in range(n):
        par = tracer.parents[i]
        if par >= 0:
            child_time[par] += tracer.ends[i] - tracer.starts[i]
            key = (layers_above[par], layer_of[tracer.name_ids[par]])
            above = interned.get(key)
            if above is None:
                above = interned[key] = key[0] | {key[1]}
            layers_above[i] = above
            outer[i] = layer_of[tracer.name_ids[i]] not in above
    out: dict[str, dict] = {}
    for i in range(n):
        name = tracer.names[tracer.name_ids[i]]
        dur = tracer.ends[i] - tracer.starts[i]
        row = out.setdefault(name, {"calls": 0, "count": 0, "s": 0.0, "self_s": 0.0, "outer_s": 0.0})
        row["calls"] += 1
        row["count"] += tracer.counts[i]
        row["s"] += dur
        row["self_s"] += dur - child_time[i]
        if outer[i]:
            row["outer_s"] += dur
    return out
