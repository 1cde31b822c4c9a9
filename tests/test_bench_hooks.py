"""The benchmark's tracer still finds the library names it wraps.

``perfbench/tracing.py`` swaps wrappers into ``onecenter`` module
attributes by name.  A library refactor that renames or stops calling
through one of those names would silently drop spans from the traced
benchmark job; this test catches that on a tiny cover run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from onecenter import WeightedPointSet, cover, spaces

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_norm_and_cover_spans_and_undo_restores():
    tracing = _load_tracing()
    originals = (cover.below_half_cover, spaces.LpSpace)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert cover.below_half_cover is not originals[0]
        assert spaces.LpSpace is not originals[1]
        rng = np.random.default_rng(3)
        coords = np.vstack([rng.normal(size=(6, 2)) * 0.1, rng.normal(size=(2, 2)) * 0.1 + 500.0])
        ps = WeightedPointSet.from_coords(coords)
        result = cover.below_half_cover(ps, spaces.LpSpace(2.0, 2), 0.4, 1.0)
    finally:
        undo()
    assert result.balls
    summary = tracing.summarize(tracer)
    assert summary["cover.below_half_cover"]["calls"] == 1
    assert summary["spaces.norms"]["calls"] > 0
    assert summary["spaces.norms"]["count"] > 0
    assert (cover.below_half_cover, spaces.LpSpace) == originals
