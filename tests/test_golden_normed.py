"""Golden outputs of the coordinate solvers, compared bit for bit.

``tests/golden/normed.json`` pins the centers, radii and covered
weights of ``lp_coordinate_median``, ``cluster_halfplus``,
``below_half_cover``, ``cluster_any_alpha`` and ``cluster_logtower`` on
a fixed set of planted instances over p in {1, 2, 3, inf}.  Floats are
stored as ``float.hex`` so the comparison is exact.  Norm-row counts are
not recorded: a change may spend fewer norm evaluations for the same
answers.  Regenerate with

    PYTHONPATH=src python tests/test_golden_normed.py --write

only when a change is meant to alter solver output, and say why in
CHANGES.md.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

from onecenter import (
    LpSpace,
    below_half_cover,
    cluster_any_alpha,
    cluster_halfplus,
    cluster_logtower,
    generate_planted,
    lp_coordinate_median,
)

GOLDEN = Path(__file__).with_name("golden") / "normed.json"

PS = (1.0, 2.0, 3.0, math.inf)
HALFPLUS_ALPHAS = (0.55, 0.75, 0.95)
# (label, n, d, alpha, mode, weights); logtower k=1 runs only where n <= 32
SHAPES = (
    ("single-unit", 64, 2, 0.75, "single", "unit"),
    ("single-dyadic", 100, 3, 0.6, "single", "dyadic"),
    ("gap-dyadic", 64, 2, 0.3, "gap", "dyadic"),
    ("gap-unit", 48, 3, 0.25, "gap", "unit"),
    ("two-dyadic", 32, 2, 0.3, "two", "dyadic"),
)
LOGTOWER_K1_MAX_N = 32


def _hex(x: float) -> str:
    return float(x).hex()


def _vec(v) -> list:
    return [_hex(x) for x in np.asarray(v, dtype=np.float64)]


def _ball(ball) -> dict | None:
    if ball is None:
        return None
    return {"center": _vec(ball.center), "radius": _hex(ball.radius), "covered": _hex(ball.covered_weight)}


def _cover(cover) -> dict:
    return {
        "centers": [_vec(b.center) for b in cover.balls],
        "radii": [_hex(b.radius) for b in cover.balls],
        "covered": [_hex(b.covered_weight) for b in cover.balls],
    }


def _instances():
    for i, p in enumerate(PS):
        for j, (label, n, d, alpha, mode, weights) in enumerate(SHAPES):
            seed = 10 * i + j + 1
            inst = generate_planted("normed", n=n, d=d, alpha=alpha, seed=seed, weights=weights, p=p, mode=mode)
            yield f"{label}-p{p:g}-s{seed}", inst


def compute_records() -> dict:
    out = {}
    for name, inst in _instances():
        ps, r = inst.ps, inst.r
        space = LpSpace(inst.p, ps.d)
        low = min(inst.alpha, 0.5)
        out[f"{name}/lp-median"] = {"center": _vec(lp_coordinate_median(ps, space, 0.75))}
        for a in HALFPLUS_ALPHAS:
            out[f"{name}/halfplus-a{a}"] = _ball(cluster_halfplus(ps, space, a, r))
        out[f"{name}/below-half-a{low}"] = _cover(below_half_cover(ps, space, low, r))
        out[f"{name}/any-alpha-a{low}"] = _ball(cluster_any_alpha(ps, space, low, r))
        out[f"{name}/logtower-k0-a{low}"] = _ball(cluster_logtower(ps, space, low, 0, r))
        if ps.n <= LOGTOWER_K1_MAX_N:
            out[f"{name}/logtower-k1-a{low}"] = _ball(cluster_logtower(ps, space, low, 1, r))
    return out


def test_normed_solvers_match_golden_outputs():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = compute_records()
    assert sorted(got) == sorted(expected)
    mismatched = [key for key in expected if got[key] != expected[key]]
    assert not mismatched, {key: (expected[key], got[key]) for key in mismatched[:5]}


def test_golden_records_are_nontrivial():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len({key.split("/")[0] for key in expected}) == len(PS) * len(SHAPES)
    balls = [rec for rec in expected.values() if rec is not None and "radius" in rec]
    assert all(float.fromhex(rec["covered"]) > 0.0 for rec in balls)
    covers = [rec for rec in expected.values() if rec is not None and "radii" in rec]
    assert any(len(rec["centers"]) > 1 for rec in covers)
    assert any(key.split("/")[1].startswith("logtower-k1") for key in expected)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_normed.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_records(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
