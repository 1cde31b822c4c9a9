"""Single-ball solver for general normed spaces, fraction above 1/2.

The solver halves the instance by pairing consecutive points: a pair
within distance 2r collapses to its heavier member carrying the pair's
combined weight, a far pair keeps the heavier member with the weight
difference.  The reduced instance is valid at radius 3r, so recursion
yields a coarse center, which an iterated weighted-centroid step then
sharpens to the final constant C = 4*alpha / (2*alpha - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .core import CandidateBall, WeightedPointSet, require_positive_weight, require_radius
from .errors import ArgumentError, DegenerateInputError, UnsupportedFractionError
from .spaces import NormedSpaceOps


def halfplus_constant(alpha: float) -> float:
    """Approximation constant 4*alpha / (2*alpha - 1) = 2 + 1/(alpha - 1/2)."""
    if not 0.5 < alpha <= 1.0:
        raise UnsupportedFractionError(f"alpha must be in (1/2, 1], got {alpha}")
    return 4.0 * alpha / (2.0 * alpha - 1.0)


def refine_iteration_cap(alpha: float) -> int:
    """Iterations needed to shrink the containment factor from 3C+4 to C.

    Each centroid step multiplies the factor by (1 - eps) with
    eps = alpha - 1/2, and (3C+4)/C < 5, so ceil(log 5 / log(1/(1-eps)))
    steps always suffice.
    """
    eps = alpha - 0.5
    if not 0.0 < eps <= 0.5:
        raise UnsupportedFractionError(f"alpha must be in (1/2, 1], got {alpha}")
    return math.ceil(math.log(5.0) / math.log(1.0 / (1.0 - eps)))


@dataclass(frozen=True)
class PairReduction:
    """Half-size instance produced by pair_reduce: points and v-weights."""

    points: np.ndarray
    weights: np.ndarray


def _pair_reduce_arrays(
    points: np.ndarray,
    weights: np.ndarray,
    space: NormedSpaceOps,
    r: float,
    gaps: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    # gaps, when given, is space.norms(points[0::2] - points[1::2]) for
    # an even-length points
    n = points.shape[0]
    if n % 2 == 1:
        # pad with a zero-weight copy of the first point
        points = np.vstack([points, points[:1]])
        weights = np.concatenate([weights, [0.0]])
    a = points[0::2]
    b = points[1::2]
    wa = weights[0::2]
    wb = weights[1::2]
    if gaps is None:
        gaps = space.norms(a - b)
    close = gaps <= 2.0 * r
    v = np.where(close, wa + wb, np.abs(wa - wb))
    # heavier member survives; ties keep the earlier point
    take_a = wa >= wb
    reduced = np.where(take_a[:, None], a, b)
    return reduced, v


def pair_reduce(ps: WeightedPointSet, space: NormedSpaceOps, r: float) -> PairReduction:
    """Collapse consecutive pairs into a half-size instance.

    Pairs at distance <= 2r merge onto the heavier member with summed
    weight; others keep the heavier member with the weight difference
    (ties keep the earlier point).  Odd n is padded with a zero-weight
    copy of the first point, so exactly ceil(n/2) distance evaluations
    are spent.  If the original instance has a radius-r ball holding a
    weight fraction alpha > 1/2, the reduced one has a radius-3r ball
    holding the same fraction of the new total.
    """
    require_radius(r)
    if ps.coords is None:
        raise ArgumentError("pair_reduce needs explicit coordinates")
    pts, v = _pair_reduce_arrays(ps.coords, ps.weights, space, r)
    return PairReduction(pts, v)


def centroid_refine(
    ps: WeightedPointSet,
    space: NormedSpaceOps,
    a: np.ndarray,
    K: float,
    r: float,
    alpha: float,
) -> np.ndarray:
    """One sharpening step: weighted centroid of the points within K*r of a.

    Requires K >= 2 + 1/eps with eps = alpha - 1/2.  If a ball of radius
    r with weight fraction >= alpha lies inside the K*r ball around a,
    the centroid lands within (K - K*eps - 1)*r of that ball's center.
    Raises DegenerateInputError when no weight falls within K*r.
    """
    eps = alpha - 0.5
    if not 0.0 < eps <= 0.5:
        raise UnsupportedFractionError(f"alpha must be in (1/2, 1], got {alpha}")
    require_radius(r)
    if K < 2.0 + 1.0 / eps - 1e-9:
        raise ArgumentError(f"K must be at least 2 + 1/eps = {2 + 1/eps}, got {K}")
    if ps.coords is None:
        raise ArgumentError("centroid_refine needs explicit coordinates")
    a = np.asarray(a, dtype=np.float64)
    mask = space.distances(ps.coords, a) <= K * r
    total = float(np.sum(ps.weights[mask]))
    if total <= 0.0:
        raise DegenerateInputError("no weight within K*r of the current center")
    return ps.coords[mask].T @ ps.weights[mask] / total


def _refine_loop(
    points: np.ndarray,
    weights: np.ndarray,
    space: NormedSpaceOps,
    center: np.ndarray,
    alpha: float,
    r: float,
    dist: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    # Shrink the containment factor K from 3C+4 down to C, recomputing
    # membership against this level's full point set each iteration.
    # A step whose mask equals the one that produced the current center
    # reproduces that center bit for bit, and the mask cannot change
    # until K*r drops below its farthest member (points outside it stay
    # outside as K shrinks).  Those steps only shrink K: no norms, no
    # centroid.  dist(c), if given, must equal space.distances(points, c).
    # Returns the center and, when the loop ended on a row it evaluated
    # for that center, the row; otherwise None.
    if dist is None:
        dist = partial(space.distances, points)
    shrink = 1.0 - (alpha - 0.5)
    C = halfplus_constant(alpha)
    K = 3.0 * C + 4.0
    used = None  # bytes of the mask that produced the current center
    while K > C:
        d = dist(center)
        mask = d <= K * r
        if mask.tobytes() == used:
            # far <= K*r holds now, so K shrinks at least once
            far = d[mask].max()
            while K > C and far <= K * r:
                K *= shrink
            if K <= C:
                return center, d
            mask = d <= K * r
        total = float(np.add.reduce(weights[mask]))
        if total <= 0.0:
            # no valid ball can exist here; keep the center unrefined
            return center, d
        center = points[mask].T @ weights[mask] / total
        used = mask.tobytes()
        K *= shrink
    return center, None


def _halfplus_center(
    points: np.ndarray,
    weights: np.ndarray,
    space: NormedSpaceOps,
    alpha: float,
    r: float,
    dist: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    gaps: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    # dist and gaps serve only this level's refine loop and pair
    # reduction (see _refine_loop, _pair_reduce_arrays); the reduced
    # levels below compute their own.  Returns _refine_loop's pair.
    if points.shape[0] == 1:
        return points[0], None
    reduced_pts, v = _pair_reduce_arrays(points, weights, space, r, gaps)
    if float(np.add.reduce(v)) > 0.0:
        coarse = _halfplus_center(reduced_pts, v, space, alpha, 3.0 * r)[0]
    else:
        # every pair cancelled: no radius-r ball can hold more than half
        # the weight, so any survivor is as good a starting point as any
        coarse = reduced_pts[0]
    return _refine_loop(points, weights, space, coarse, alpha, r, dist)


def cluster_halfplus(
    ps: WeightedPointSet, space: NormedSpaceOps, alpha: float, r: float
) -> CandidateBall:
    """Single ball of radius C*r, C = 4*alpha/(2*alpha - 1), for alpha > 1/2.

    Whenever some radius-r ball holds at least alpha of the total
    weight, the returned ball covers at least that much.  Runs in
    O(nd) time: each pair-reduction level halves the set, and each
    level's refine loop makes at most refine_iteration_cap(alpha)
    passes over it.  Fully deterministic.
    """
    if not 0.5 < alpha <= 1.0:
        raise UnsupportedFractionError(f"alpha must be in (1/2, 1], got {alpha}")
    require_radius(r)
    if ps.coords is None:
        raise ArgumentError("cluster_halfplus needs explicit coordinates")
    require_positive_weight(ps)
    center, d = _halfplus_center(ps.coords, ps.weights, space, alpha, r)
    if d is None:
        d = space.distances(ps.coords, center)
    radius = halfplus_constant(alpha) * r
    covered = float(np.add.reduce(ps.weights[d <= radius]))
    return CandidateBall(center=center, radius=radius, covered_weight=covered)
