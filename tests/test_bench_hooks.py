"""The benchmark's tracer still finds the library names it wraps.

``perfbench/tracing.py`` swaps wrappers into ``onecenter`` module
attributes by name.  A library refactor that renames or stops calling
through one of those names would silently drop spans from the traced
benchmark job, or change the oracle query count it reports; these tests
catch that on a tiny cover run and a padded metric run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from onecenter import WeightedPointSet, cover, metric, oracle, spaces

from conftest import random_metric_matrix

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


def test_tracer_counts_one_padded_metric_row_through_dist_many():
    # n=90, C=2 pads to m^C = 100 slots; block fetches go through
    # dist_block and are not counted, the final covered-weight row is
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        matrix_oracle = oracle.MatrixOracle(random_metric_matrix(np.random.default_rng(5), 90))
        ball = metric.metric_halfplus(WeightedPointSet.indexed(90), matrix_oracle, 0.6, 2)
    finally:
        undo()
    assert 0 <= ball.center_index < 90
    summary = tracing.summarize(tracer)
    assert summary["oracle.dist_many"]["count"] == 100
    assert summary["oracle.validate"]["calls"] == 1
