"""Solvers for distance-oracle metric spaces with unknown r.

These never see coordinates: all geometry flows through a
DistanceOracle, and the oracle's query counter is the complexity
measure.  ``metric_halfplus`` is the block-recursive search whose query
count scales as C * n^(1 + 1/C); ``metric_quadratic`` is the O(n^2)
peeling baseline; ``metric_cover`` is the full induction on (1/alpha, C)
combining both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CandidateBall, WeightedPointSet, require_fraction, require_pairing, require_positive_weight
from .errors import ArgumentError, require_int
from .oracle import DistanceOracle
from .selection import best_candidate

_TIE_EPS = 1e-12  # loop caps only; never used in comparisons


@dataclass(frozen=True)
class MetricCover:
    """Cover returned by the metric solvers.

    At most floor(1/fraction) point indices with radii; any radius-r
    ball holding fraction*w weight intersects some listed ball whose
    radius is at most approx_constant * r (approx_constant = 2C).
    """

    centers: tuple[int, ...]
    radii: tuple[float, ...]
    fraction: float
    approx_constant: float


def exact_ceil_root(n: int, C: int) -> int:
    """Smallest m with m**C >= n, immune to float-power rounding.

    Once 2**C >= n (C >= ceil(log2 n)) the answer is 2, or 1 at n = 1,
    and m**C is never formed.
    """
    n, C = require_int("n", n, 1), require_int("C", C, 1)
    if C >= (n - 1).bit_length():
        return min(n, 2)
    m = max(1, int(round(n ** (1.0 / C))))
    while m > 1 and (m - 1) ** C >= n:
        m -= 1
    while m**C < n:
        m += 1
    return m


def metric_query_bound(C: int, n: int) -> float:
    """Measured-constant-free query bound c0 * C * n^(1+1/C) with c0 = 4."""
    C, n = require_int("C", C, 1), require_int("n", n, 1)
    return 4.0 * C * float(n) ** (1.0 + 1.0 / C)


def _pad_for_blocks(ps: WeightedPointSet, C: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Point and weight of each of the m**C slots, and m; slots past n alias point 0 at zero weight.

    C may be at most max(2, ceil(log2 n)): past ceil(log2 n) m is 2, and
    each further level only doubles the padding.
    """
    top = max(2, (ps.n - 1).bit_length())
    if C > top:
        raise ArgumentError(f"C must be at most max(2, ceil(log2 n)) = {top} at n = {ps.n}, got {C}")
    m = exact_ceil_root(ps.n, C)
    points = np.arange(m**C)
    points[ps.n :] = 0
    return points, np.concatenate([ps.weights, np.zeros(m**C - ps.n)]), m


def _halfplus_range(
    oracle: DistanceOracle,
    points: np.ndarray,
    weights: np.ndarray,
    lo: int,
    hi: int,
    level: int,
    alpha: float,
    m: int,
) -> tuple[int, float]:
    """Best (slot, radius) for the slot block [lo, hi) at the given level."""
    block_w = weights[lo:hi]
    y = alpha * float(np.sum(block_w))
    if level == 1:
        candidates = range(lo, hi)
    else:
        sub = (hi - lo) // m
        candidates = [
            _halfplus_range(oracle, points, weights, lo + j * sub, lo + (j + 1) * sub, level - 1, alpha, m)[0]
            for j in range(m)
        ]
    cols = points[lo:hi]
    best_i, best_s, _ = best_candidate(
        lambda chunk: oracle.dist_block(points[chunk], cols), candidates, block_w, y
    )
    return best_i, best_s


def metric_halfplus(
    ps: WeightedPointSet, oracle: DistanceOracle, alpha: float, C: int
) -> CandidateBall:
    """Point p and the smallest s with ball (p, s) covering >= alpha*w,
    guaranteed s <= 2C*r whenever some radius-r ball holds alpha*w.

    alpha must exceed 1/2.  n is padded up to the next perfect C-th
    power m^C with zero-weight slots that alias point 0; each block fetch
    maps slots to points, with no wrapper oracle.  The recursion visits
    m blocks per level and spends about C * m^(C+1) oracle queries.
    C = 1 is exactly the brute-force sweep over all centers (lowest
    index wins ties); C above max(2, ceil(log2 n)) is an ArgumentError.
    """
    require_fraction(alpha, above_half=True)
    C = require_int("C", C, 1)
    require_pairing(ps, oracle, (DistanceOracle,))
    require_positive_weight(ps)
    points, weights, m = _pad_for_blocks(ps, C)
    slot, radius = _halfplus_range(oracle, points, weights, 0, m**C, C, alpha, m)
    idx = int(points[slot])
    d = oracle.dist_many(idx, points)
    covered = float(np.sum(weights[d <= radius]))
    return CandidateBall(center=int(idx), radius=float(radius), covered_weight=covered, center_index=int(idx))


def _cover_range(
    oracle: DistanceOracle,
    points: np.ndarray,
    w_local: np.ndarray,
    lo: int,
    fraction: float,
    level: int,
    m: int,
) -> list[tuple[int, float]]:
    """Peeling cover of the block starting at lo; mutates w_local.

    Returns (slot, radius) pairs.  The threshold is fixed at
    fraction * (block total at entry), per the induction: peeling never
    lowers the absolute bar.
    """
    span = w_local.shape[0]
    total = float(np.sum(w_local))
    if total <= 0.0:
        return []
    y = fraction * total
    cols = points[lo : lo + span]
    out: list[tuple[int, float]] = []
    for _ in range(int(math.floor(1.0 / fraction + _TIE_EPS))):
        remaining = float(np.sum(w_local))
        if remaining < y or remaining <= 0.0:
            break
        if level == 1:
            candidates: list[int] = list(range(lo, lo + span))
        else:
            boosted = min(y / remaining, 1.0)
            sub = span // m
            candidates = []
            for j in range(m):
                sub_w = w_local[j * sub : (j + 1) * sub].copy()
                candidates += [
                    idx for idx, _ in _cover_range(oracle, points, sub_w, lo + j * sub, boosted, level - 1, m)
                ]
            if not candidates:
                break
        best_i, best_s, best_d = best_candidate(
            lambda chunk: oracle.dist_block(points[chunk], cols), candidates, w_local, y
        )
        if best_d is None:
            break
        out.append((best_i, best_s))
        w_local[best_d <= best_s] = 0.0
    return out


def _peel(ps: WeightedPointSet, oracle: DistanceOracle, alpha: float, C: int) -> MetricCover:
    """The peeling cover of checked input over the padded slots.  At C = 1
    slot i is point i with no padding, which is metric_quadratic."""
    points, weights, m = _pad_for_blocks(ps, C)
    found = _cover_range(oracle, points, weights, 0, alpha, C, m)
    centers = tuple(int(points[i]) for i, _ in found)
    radii = tuple(float(s) for _, s in found)
    return MetricCover(centers, radii, alpha, 2.0 * C)


def metric_quadratic(ps: WeightedPointSet, oracle: DistanceOracle, alpha: float) -> MetricCover:
    """O(n^2 / alpha)-query peeling baseline.

    Repeatedly picks the center minimizing the radius that covers at
    least y = alpha * (original total weight) of the remaining weight
    (the threshold stays y, not alpha times the shrinking total), zeroes
    the covered weights, and stops when less than y remains.  Any
    radius-r ball holding y weight intersects a recorded ball of radius
    at most 2r.
    """
    require_fraction(alpha)
    require_pairing(ps, oracle, (DistanceOracle,))
    require_positive_weight(ps)
    return _peel(ps, oracle, alpha, 1)


def metric_cover(
    ps: WeightedPointSet, oracle: DistanceOracle, alpha: float, C: int
) -> MetricCover:
    """Full metric cover: <= floor(1/alpha) balls; any radius-r ball
    holding alpha*w weight intersects a listed ball of radius <= 2C*r.

    Induction on (floor(1/alpha), C): alpha > 1/2 delegates to
    metric_halfplus; otherwise each peel round recurses into the m
    blocks at level C-1, evaluates all block candidates globally at the
    fixed threshold alpha * w_original, keeps the minimal-radius one
    (ties to the lowest point index), zeroes its ball, and repeats on
    the remaining weight.  C = 1 gives metric_quadratic's cover, with its
    queries for alpha <= 1/2 and n more above (metric_halfplus's
    covered-weight sweep); C is bounded as in metric_halfplus.
    """
    require_fraction(alpha)
    C = require_int("C", C, 1)
    require_pairing(ps, oracle, (DistanceOracle,))
    require_positive_weight(ps)
    if math.floor(1.0 / alpha + _TIE_EPS) == 1:
        ball = metric_halfplus(ps, oracle, alpha, C)
        return MetricCover((int(ball.center_index),), (float(ball.radius),), alpha, 2.0 * C)
    return _peel(ps, oracle, alpha, C)
