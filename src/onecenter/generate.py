"""Deterministic planted-instance generators for tests, benchmarks, and
the CLI's gen subcommand.

Every instance is reproducible from its seed.  A planted cluster always
contains one point exactly at its center, so the center is a valid
oracle index in metric mode.  Generated weights are either unit or
dyadic rationals (multiples of 1/1024), which keeps weight sums exact
in binary floating point and makes determinism tests byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import WeightedPointSet, covered_weight, require_fraction, require_radius
from .cover import gap_constant
from .errors import ArgumentError, require_int
from .oracle import DistanceOracle, MatrixOracle
from .spaces import LpSpace, NormedSpaceOps

_MODES = ("single", "two", "gap")
_SPACES = ("lp", "normed", "metric")
_WEIGHTS = ("unit", "dyadic")
_METRIC_MAX_N = 8192  # full distance matrix; keep memory bounded


@dataclass(frozen=True)
class PlantedInstance:
    """A generated instance together with its ground truth.

    centers/center_indexes list one entry per planted cluster, cluster 0
    first.  inlier_mask flags cluster 0's points; all points outside
    every cluster are outliers placed at least min_clearance away from
    each planted center (measured in the instance's own metric).
    """

    kind: str
    ps: WeightedPointSet
    alpha: float
    r: float
    p: float
    seed: int
    centers: tuple = ()
    center_indexes: tuple = ()
    inlier_mask: np.ndarray | None = None
    cluster_weights: tuple = ()
    min_clearance: float = 0.0
    matrix: np.ndarray | None = field(default=None, repr=False)

    def space_ops(self) -> NormedSpaceOps:
        if self.kind == "metric":
            raise ArgumentError("metric instances expose an oracle, not coordinate ops")
        return LpSpace(self.p, self.ps.d)

    def oracle(self) -> DistanceOracle:
        if self.matrix is None:
            raise ArgumentError("only metric instances carry a distance matrix")
        return MatrixOracle(self.matrix, validate="auto")

    def ground_truth(self) -> dict:
        gt = {
            "alpha": self.alpha,
            "r": self.r,
            "center_indexes": list(self.center_indexes),
            "cluster_weights": list(self.cluster_weights),
            "min_clearance": self.min_clearance,
        }
        if self.kind == "metric":
            gt["centers"] = list(self.center_indexes)
        else:
            gt["centers"] = [np.asarray(c).tolist() for c in self.centers]
        return gt


def _draw_weights(rng: np.random.Generator, n: int, scheme: str) -> np.ndarray:
    if scheme == "unit":
        return np.ones(n)
    return rng.integers(512, 1537, size=n).astype(np.float64) / 1024.0


def _unit_directions(rng: np.random.Generator, count: int, d: int, ops: LpSpace) -> np.ndarray:
    """Row vectors of norm exactly ~1 in the instance's own norm."""
    v = rng.standard_normal((count, d))
    lengths = ops.norms(v)
    lengths[lengths == 0.0] = 1.0
    v /= lengths[:, None]
    return v


def _grow_mask_to_weight(mask: np.ndarray, weights: np.ndarray, need: float, free: np.ndarray) -> None:
    """Flip free points into mask (ascending index) until its weight >= need."""
    have = float(np.sum(weights[mask]))
    for i in np.flatnonzero(free):
        if have >= need:
            return
        mask[i] = True
        free[i] = False
        have += weights[i]
    if have < need:
        raise ArgumentError("cannot reach the requested cluster weight; lower alpha or outlier_frac")


def generate_planted(
    space: str,
    n: int,
    d: int,
    alpha: float,
    r: float = 1.0,
    separation: float = 100.0,
    seed: int = 0,
    weights: str = "unit",
    p: float = 2.0,
    mode: str = "single",
    outlier_frac: float | None = None,
) -> PlantedInstance:
    """Build a planted instance with one or two alpha-heavy clusters.

    mode "single": one cluster holding at least alpha of the weight.
    mode "two": two clusters, each holding at least alpha of the weight.
    mode "gap": like single, but outliers sit beyond
    1.5 * (2*C + 3) * r from the center with C = 2 + 2/alpha, the
    clearance the gap-condition solver needs.

    Cluster points lie within 0.98*r of their center (first one exactly
    at it); outliers sit in a far shell scaled by separation.  Points
    are shuffled by the seed, and weight targets are enforced exactly by
    promoting outliers into the cluster when the random weights fall
    short.
    """
    if space not in _SPACES:
        raise ArgumentError(f"space must be one of {_SPACES}, got {space!r}")
    if mode not in _MODES:
        raise ArgumentError(f"mode must be one of {_MODES}, got {mode!r}")
    if weights not in _WEIGHTS:
        raise ArgumentError(f"weights must be one of {_WEIGHTS}, got {weights!r}")
    require_fraction(alpha)
    n, d, seed = require_int("n", n, 2), require_int("d", d, 1), require_int("seed", seed, 0)
    require_radius(r)
    if not 4.0 <= separation < math.inf:
        raise ArgumentError(f"separation must be finite and at least 4, got {separation}")
    if space == "metric" and n > _METRIC_MAX_N:
        raise ArgumentError(f"metric instances build an n*n matrix; n is capped at {_METRIC_MAX_N}")

    clusters = 2 if mode == "two" else 1
    if outlier_frac is None:
        outlier_frac = max(0.0, 1.0 - min(0.97, clusters * alpha + 0.03 * clusters))
    if not 0.0 <= outlier_frac < 1.0:
        raise ArgumentError(f"outlier_frac must be in [0, 1), got {outlier_frac}")
    if (1.0 - outlier_frac) / clusters < alpha - 1e-12:
        raise ArgumentError("outlier_frac leaves less than alpha weight per cluster")

    rng = np.random.default_rng(seed)
    ops = LpSpace(p, d)
    w = _draw_weights(rng, n, weights)
    total = float(np.sum(w))

    n_out = int(round(outlier_frac * n))
    base = (n - n_out) // clusters
    if base < 1:
        raise ArgumentError("not enough points for the requested clusters")
    counts = [base + (1 if j < (n - n_out) % clusters else 0) for j in range(clusters)]
    masks = []
    free = np.ones(n, dtype=bool)
    start = 0
    for c in counts:
        mask = np.zeros(n, dtype=bool)
        mask[start : start + c] = True
        free[start : start + c] = False
        masks.append(mask)
        start += c
    for mask in masks:
        _grow_mask_to_weight(mask, w, alpha * total, free)
    pre_center_idx = [int(np.flatnonzero(m)[0]) for m in masks]

    if mode == "gap":
        outer = 2.0 * gap_constant(alpha) + 3.0
        shell_lo = max(separation, 1.5 * outer) * r
    else:
        shell_lo = separation * r
    shell_hi = 2.0 * shell_lo

    origin = rng.uniform(-10.0, 10.0, size=d)
    centers = [origin]
    if clusters == 2:
        u = _unit_directions(rng, 1, d, ops)[0]
        centers.append(origin + (8.0 * shell_lo) * u)

    coords = np.empty((n, d))
    for mask, c in zip(masks, centers):
        idx = np.flatnonzero(mask)
        k = idx.size
        dirs = _unit_directions(rng, k, d, ops)
        dirs *= rng.uniform(0.0, 0.98 * r, size=k)[:, None]
        dirs += c
        coords[idx] = dirs
        coords[idx[0]] = c  # one point exactly at the center
    out_idx = np.flatnonzero(free)
    if out_idx.size:
        dirs = _unit_directions(rng, out_idx.size, d, ops)
        dirs *= rng.uniform(shell_lo, shell_hi, size=out_idx.size)[:, None]
        dirs += origin
        coords[out_idx] = dirs

    perm = rng.permutation(n)
    coords = coords[perm]
    w = w[perm]
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    masks = [mask[perm] for mask in masks]
    center_indexes = tuple(int(inv[i]) for i in pre_center_idx)

    matrix = None
    if space == "metric":
        matrix = _distance_matrix(coords, p)
        ps = WeightedPointSet.indexed(n, w)
    else:
        ps = WeightedPointSet.from_coords(coords, w)

    cluster_weights = tuple(float(np.sum(w[m])) for m in masks)
    inst = PlantedInstance(
        kind=space,
        ps=ps,
        alpha=alpha,
        r=r,
        p=p,
        seed=seed,
        centers=tuple(c.copy() for c in centers),
        center_indexes=center_indexes,
        inlier_mask=masks[0],
        cluster_weights=cluster_weights,
        min_clearance=shell_lo,
        matrix=matrix,
    )
    _self_check(inst, ops, coords, masks, centers, mode)
    return inst


def _distance_matrix(coords: np.ndarray, p: float) -> np.ndarray:
    # imported here: scipy costs most of the package's import time and
    # only the metric generator needs it
    from scipy.spatial.distance import cdist

    if math.isinf(p):
        return cdist(coords, coords, metric="chebyshev")
    if p == 1.0:
        return cdist(coords, coords, metric="cityblock")
    if p == 2.0:
        return cdist(coords, coords, metric="euclidean")
    return cdist(coords, coords, metric="minkowski", p=p)


def _self_check(inst, ops, coords, masks, centers, mode) -> None:
    """Fail fast if the construction broke its own promises."""
    total = inst.ps.total_weight
    for m, c, cw in zip(masks, centers, inst.cluster_weights):
        d = ops.distances(coords, c)
        if float(np.sum(inst.ps.weights[d <= inst.r])) < inst.alpha * total - 1e-9 * total:
            raise ArgumentError("generator self-check failed: planted ball under-covers")
        others = d[~m]
        if others.size and float(np.min(others)) <= inst.min_clearance * 0.9:
            raise ArgumentError("generator self-check failed: clearance shell violated")
        if cw < inst.alpha * total - 1e-9 * total:
            raise ArgumentError("generator self-check failed: cluster weight below alpha")
    if mode == "gap" and inst.min_clearance < 1.5 * (2.0 * gap_constant(inst.alpha) + 3.0) * inst.r - 1e-9:
        raise ArgumentError("generator self-check failed: gap clearance too small")
