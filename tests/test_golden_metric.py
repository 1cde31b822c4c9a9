"""Golden outputs of the metric solvers, compared bit for bit.

``tests/golden/metric.json`` pins the center index, radius, covered
weight and oracle query count of every metric solver on a fixed set of
instances.  Radii and weights are stored as ``float.hex`` so the
comparison is exact.  Regenerate with

    PYTHONPATH=src python tests/test_golden_metric.py --write

only when a change is meant to alter solver output, and say why in
CHANGES.md.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

from onecenter import (
    MatrixOracle,
    WeightedPointSet,
    brute_force_best,
    generate_planted,
    metric_cover,
    metric_halfplus,
    metric_quadratic,
)

GOLDEN = Path(__file__).with_name("golden") / "metric.json"

SEEDS = (1, 2, 3, 4, 5, 6)
# 64 is a perfect square, cube and first power; 90 is padded for C = 2, 3
SIZES = (64, 90)


def _hex(x: float) -> str:
    return float(x).hex()


def _ball(ball, queries: int) -> dict:
    return {
        "center": int(ball.center_index),
        "radius": _hex(ball.radius),
        "covered": _hex(ball.covered_weight),
        "queries": int(queries),
    }


def _cover(cover, oracle, weights, queries: int) -> dict:
    covered = []
    for c, s in zip(cover.centers, cover.radii):
        covered.append(_hex(np.sum(weights[oracle.matrix[c] <= s])))
    return {
        "centers": [int(c) for c in cover.centers],
        "radii": [_hex(s) for s in cover.radii],
        "covered": covered,
        "queries": int(queries),
    }


def _ceil_metric(seed: int, n: int) -> tuple[WeightedPointSet, np.ndarray]:
    """Integer-valued metric (ceil keeps the triangle inequality): many ties."""
    rng = np.random.default_rng(1000 + seed)
    pts = rng.normal(size=(n, 2)) * 2.0
    diff = pts[:, None, :] - pts[None, :, :]
    matrix = np.ceil(np.sqrt((diff * diff).sum(axis=2)))
    return WeightedPointSet.indexed(n, rng.choice([1.0, 2.0], size=n)), matrix


def _instances():
    for seed in SEEDS:
        weights = "unit" if seed <= 3 else "dyadic"
        for n in SIZES:
            half = generate_planted("metric", n=n, d=3, alpha=0.6, seed=seed, weights=weights)
            two = generate_planted("metric", n=n, d=3, alpha=0.3, seed=seed, weights=weights, mode="two")
            yield f"planted-s{seed}-n{n}", half.ps, half.matrix, two.ps, two.matrix
        ps, matrix = _ceil_metric(seed, 64)
        yield f"ceil-s{seed}-n64", ps, matrix, ps, matrix


def compute_records() -> dict:
    out = {}
    for name, half_ps, half_m, two_ps, two_m in _instances():
        for C in (1, 2, 3):
            orc = MatrixOracle(half_m)
            ball = metric_halfplus(half_ps, orc, 0.6, C)
            out[f"{name}/halfplus-C{C}"] = _ball(ball, orc.query_count)
        for C in (1, 2):
            orc = MatrixOracle(two_m)
            cover = metric_cover(two_ps, orc, 0.3, C)
            out[f"{name}/cover-a0.3-C{C}"] = _cover(cover, orc, two_ps.weights, orc.query_count)
        orc = MatrixOracle(two_m)
        cover = metric_quadratic(two_ps, orc, 0.3)
        out[f"{name}/quadratic-a0.3"] = _cover(cover, orc, two_ps.weights, orc.query_count)
        orc = MatrixOracle(half_m)
        ball = brute_force_best(half_ps, orc, 0.6)
        out[f"{name}/brute-force-a0.6"] = _ball(ball, orc.query_count)
    return out


def test_metric_solvers_match_golden_outputs():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = compute_records()
    assert sorted(got) == sorted(expected)
    mismatched = [key for key in expected if got[key] != expected[key]]
    assert not mismatched, {key: (expected[key], got[key]) for key in mismatched[:5]}


def test_golden_records_are_nontrivial():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    radii = [float.fromhex(r["radius"]) for r in expected.values() if "radius" in r]
    assert all(math.isfinite(r) and r >= 0.0 for r in radii)
    covers = [r for r in expected.values() if "centers" in r]
    assert any(len(r["centers"]) > 1 for r in covers)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_metric.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_records(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
