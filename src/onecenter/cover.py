"""Multi-ball covers and any-fraction solvers for normed spaces.

For fractions at or below 1/2 a single ball cannot be pinned down: the
weight may sit in several far-apart clusters.  The machinery here
returns small covers instead and drives them through three layers:

* ``ball_cover``: peel off one ball at a time at a boosted fraction;
* ``below_half_cover``: index-halving recursion that works under a gap
  condition (the target ball clearly outweighs its surrounding shell);
* ``cluster_any_alpha``: tries geometrically growing radii until the
  gap condition must hold at some scale, then verifies candidates;
* ``bucket_reduce`` / ``cluster_logtower``: brute-force bucketing that
  trades the approximation constant for near-linear runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import CandidateBall, WeightedPointSet, require_positive_weight, require_radius
from .errors import ArgumentError, UnsupportedFractionError
from .normed import _halfplus_center
from .spaces import NormedSpaceOps

# ---------------------------------------------------------------------------
# constant bookkeeping (kept as tiny functions so tests can pin them down)


def gap_constant(alpha: float) -> float:
    """Cover radius constant C = 2 + 2/alpha of the gap-condition solver."""
    if not 0.0 < alpha <= 1.0:
        raise ArgumentError(f"alpha must be in (0, 1], got {alpha}")
    return 2.0 + 2.0 / alpha


def scale_count(alpha: float) -> int:
    """Largest scale index tried: floor(log(1/alpha) / log(3/2))."""
    if not 0.0 < alpha <= 1.0:
        raise ArgumentError(f"alpha must be in (0, 1], got {alpha}")
    return int(math.floor(math.log(1.0 / alpha) / math.log(1.5) + 1e-12))


def scale_base(alpha: float) -> float:
    """Radius growth per scale, 8/alpha + 7 (equal to 2C+3 at fraction alpha/2)."""
    if not 0.0 < alpha <= 1.0:
        raise ArgumentError(f"alpha must be in (0, 1], got {alpha}")
    return 8.0 / alpha + 7.0


def verify_factor(alpha: float) -> float:
    """Verification radius multiple 4/alpha + 4 used on candidate centers."""
    if not 0.0 < alpha <= 1.0:
        raise ArgumentError(f"alpha must be in (0, 1], got {alpha}")
    return 4.0 / alpha + 4.0


def any_alpha_constant(alpha: float) -> float:
    """Worst-case radius multiple of cluster_any_alpha at fraction alpha."""
    return verify_factor(alpha) * scale_base(alpha) ** scale_count(alpha)


def bucket_constant(C: float) -> float:
    """Output constant C' = C^2 + 2C + 2 of one bucket-reduction stage."""
    if C <= 0:
        raise ArgumentError(f"C must be positive, got {C}")
    return C * C + 2.0 * C + 2.0


def logtower_base_fraction(beta: float, k: int) -> float:
    """Base fraction (beta/2)^(2^k) / 2 driving a k-stage composition."""
    if not 0.0 < beta < 1.0:
        raise ArgumentError(f"beta must be in (0, 1), got {beta}")
    if k < 0:
        raise ArgumentError(f"k must be nonnegative, got {k}")
    return (beta / 2.0) ** (2**k) / 2.0


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class CoverResult:
    """A peeling cover: at most floor(1/fraction) balls of one radius.

    ``guarantee`` means: every ball of radius r holding at least
    ``fraction`` of the original weight intersects some listed ball
    (for below_half_cover this is promised under its gap condition).
    Each ball's covered_weight is measured against the weights in
    effect when it was peeled, so the values sum without overlap.
    """

    balls: tuple[CandidateBall, ...]
    fraction: float
    approx_constant: float
    guarantee: bool

    def centers(self) -> list:
        return [b.center for b in self.balls]


SingleBallSolver = Callable[[WeightedPointSet, float, float], Optional[CandidateBall]]


@dataclass(frozen=True)
class InnerSolver:
    """A single-ball solver usable at any fraction >= min_fraction.

    ``solve(ps, fraction, r)`` must return a ball whose radius is at
    most ``constant * r`` covering at least fraction * total weight
    whenever some radius-r ball does, or None.
    """

    solve: SingleBallSolver
    constant: float
    min_fraction: float


# ---------------------------------------------------------------------------
# peeling cover over any single-ball solver


def ball_cover(
    solver: SingleBallSolver,
    ps: WeightedPointSet,
    space: NormedSpaceOps,
    alpha: float,
    beta: float,
    C: float,
    r: float,
) -> CoverResult:
    """Peel at most floor(1/beta) balls of radius C*r, each covering
    >= beta * (original total weight).

    ``solver`` must handle any fraction in [alpha, 1]; beta >= alpha.
    Peeling keeps the absolute threshold fixed: after zeroing a ball's
    weight, the fraction passed to the solver is rescaled so that it
    still demands beta times the *original* total.  Any radius-r ball
    holding beta*w original weight intersects some listed ball.
    """
    if not 0.0 < alpha <= beta <= 1.0:
        raise ArgumentError(f"need 0 < alpha <= beta <= 1, got alpha={alpha}, beta={beta}")
    if C <= 0:
        raise ArgumentError(f"C must be positive, got {C}")
    require_radius(r)
    if ps.coords is None:
        raise ArgumentError("ball_cover needs explicit coordinates")
    require_positive_weight(ps)
    y = beta * ps.total_weight
    weights = ps.weights.copy()
    balls: list[CandidateBall] = []
    for _ in range(int(math.floor(1.0 / beta + 1e-12))):
        remaining = float(np.sum(weights))
        if remaining < y or remaining <= 0.0:
            break
        fraction = min(y / remaining, 1.0)
        ball = solver(ps.with_weights(weights), fraction, r)
        if ball is None:
            break
        dists = space.distances(ps.coords, np.asarray(ball.center, dtype=np.float64))
        mask = dists <= C * r
        covered = float(np.sum(weights[mask]))
        if covered < y:
            # solver could not deliver: no qualifying ball remains
            break
        balls.append(CandidateBall(center=ball.center, radius=C * r, covered_weight=covered))
        weights = weights.copy()
        weights[mask] = 0.0
    return CoverResult(tuple(balls), beta, C, True)


# ---------------------------------------------------------------------------
# gap-condition cover (index-halving recursion)


def _dedupe_rows(rows: list[np.ndarray]) -> list[np.ndarray]:
    seen = set()
    out = []
    for row in rows:
        key = row.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def _below_half_centers(
    points: np.ndarray,
    weights: np.ndarray,
    space: NormedSpaceOps,
    alpha: float,
    r: float,
    lo: int,
    memo: dict,
) -> list[np.ndarray]:
    # points is the block at offset lo of the padded array, of
    # power-of-two length; weights may contain zeros.  memo belongs to
    # the top-level call and caches what depends only on the block:
    # distance rows under (lo, n, center bytes), first-level pair norms
    # under (lo, n).  Every miss goes through space.distances/norms.
    n = points.shape[0]
    if n == 1:
        return [points[0]] if weights[0] > 0.0 else []
    w = float(np.add.reduce(weights))
    if w <= 0.0:
        return []
    half = n // 2
    candidates = _below_half_centers(points[:half], weights[:half], space, alpha, r, lo, memo)
    candidates += _below_half_centers(
        points[half:], weights[half:], space, alpha, r, lo + half, memo
    )
    candidates = _dedupe_rows(candidates)

    def dist(c: np.ndarray) -> np.ndarray:
        key = (lo, n, c.tobytes())
        d = memo.get(key)
        if d is None:
            d = memo[key] = space.distances(points, c)
        return d

    y = alpha * w
    C = 2.0 + 2.0 / alpha
    hit = None
    for z in candidates:
        near = dist(z) <= (C + 2.0) * r
        bw = float(np.add.reduce(weights[near]))
        if bw < y:
            continue
        # restrict to the (C+2)r ball; inside it the target ball holds a
        # clear majority, so the above-half solver applies
        fraction = (bw + y) / (2.0 * bw)
        gaps = memo.get((lo, n))
        if gaps is None:
            gaps = memo[(lo, n)] = space.norms(points[0::2] - points[1::2])
        u, du = _halfplus_center(
            points, np.where(near, weights, 0.0), space, fraction, r, dist, gaps
        )
        if du is None:
            du = dist(u)
        if float(np.add.reduce(weights[du <= C * r])) >= y:
            hit = (u, du)
            break
    if hit is None:
        return []
    u, du = hit
    if alpha > 0.5:
        # a second disjoint qualifying ball would need more than the
        # total weight, so one center suffices
        return [u]
    peeled = weights.copy()
    peeled[du <= C * r] = 0.0
    rest = float(np.add.reduce(peeled))
    if rest < y or rest <= 0.0:
        return [u]
    return [u] + _below_half_centers(points, peeled, space, min(y / rest, 1.0), r, lo, memo)


def _pad_pow2(points: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = points.shape[0]
    size = 1 << (n - 1).bit_length()
    if size == n:
        return points, weights
    pad = size - n
    return (
        np.vstack([points, np.repeat(points[:1], pad, axis=0)]),
        np.concatenate([weights, np.zeros(pad)]),
    )


def below_half_cover(
    ps: WeightedPointSet, space: NormedSpaceOps, alpha: float, r: float
) -> CoverResult:
    """At most floor(1/alpha) balls of radius C*r, C = 2 + 2/alpha, each
    covering >= alpha*w.

    Guarantee: if some radius-r ball B outweighs its (2C+3)r shell by
    alpha*w (the gap condition), then a listed ball intersects B.  The
    recursion halves the set by index (padded to a power of two with
    zero-weight copies of the first point), collects candidate centers
    from both halves, and runs the above-half solver restricted to a
    (C+2)r neighborhood of each candidate until one verifies.
    """
    if not 0.0 < alpha <= 1.0:
        raise ArgumentError(f"alpha must be in (0, 1], got {alpha}")
    require_radius(r)
    if ps.coords is None:
        raise ArgumentError("below_half_cover needs explicit coordinates")
    require_positive_weight(ps)
    points, weights = _pad_pow2(ps.coords, ps.weights)
    centers = _below_half_centers(points, weights, space, alpha, r, 0, {})
    C = gap_constant(alpha)
    remaining = ps.weights.copy()
    balls = []
    for center in centers:
        mask = space.distances(ps.coords, center) <= C * r
        covered = float(np.sum(remaining[mask]))
        balls.append(CandidateBall(center=center, radius=C * r, covered_weight=covered))
        remaining = remaining.copy()
        remaining[mask] = 0.0
    return CoverResult(tuple(balls), alpha, C, True)


# ---------------------------------------------------------------------------
# any-fraction single ball via the scale ladder


def cluster_any_alpha(
    ps: WeightedPointSet, space: NormedSpaceOps, alpha: float, r: float
) -> Optional[CandidateBall]:
    """Verified ball covering >= alpha*w whenever a radius-r ball does.

    Tries scales s = 0..floor(log(1/alpha)/log(3/2)).  At scale s the
    gap condition must hold at radius R = (8/alpha+7)^s * r for at least
    one s (otherwise the weight would outgrow the total), so the
    fraction-alpha/2 cover at radius R produces a candidate whose
    (4/alpha+4)*R ball covers alpha*w.  Candidates are verified in
    scale-then-cover order; the first success is returned, None if the
    hypothesis fails everywhere.
    """
    if not 0.0 < alpha <= 1.0:
        raise ArgumentError(f"alpha must be in (0, 1], got {alpha}")
    require_radius(r)
    if ps.coords is None:
        raise ArgumentError("cluster_any_alpha needs explicit coordinates")
    require_positive_weight(ps)
    points, weights = _pad_pow2(ps.coords, ps.weights)
    w = ps.total_weight
    beta = alpha / 2.0
    base = scale_base(alpha)
    vf = verify_factor(alpha)
    # distance rows and pair norms depend on neither the fraction nor the
    # radius, so one memo serves every scale
    memo: dict = {}
    for s in range(scale_count(alpha) + 1):
        R = base**s * r
        for z in _below_half_centers(points, weights, space, beta, R, 0, memo):
            radius = vf * R
            covered = float(np.sum(ps.weights[space.distances(ps.coords, z) <= radius]))
            if covered >= alpha * w:
                return CandidateBall(center=z, radius=radius, covered_weight=covered)
    return None


def any_alpha_solver(space: NormedSpaceOps, min_fraction: float) -> InnerSolver:
    """cluster_any_alpha packaged for use under ball_cover / bucket_reduce."""

    def solve(ps: WeightedPointSet, fraction: float, r: float) -> Optional[CandidateBall]:
        return cluster_any_alpha(ps, space, fraction, r)

    return InnerSolver(solve=solve, constant=any_alpha_constant(min_fraction), min_fraction=min_fraction)


# ---------------------------------------------------------------------------
# bucket reduction and its iterated composition


def _validate_bucket_fn(g, n: int) -> float:
    samples = []
    m = 1
    while m < n:
        samples.append(m)
        m *= 2
    samples.append(n)
    values = []
    for m in samples:
        try:
            v = float(g(m))
        except Exception as exc:
            raise ArgumentError(f"bucket-size function failed at {m}: {exc}") from exc
        if not (1.0 <= v <= m):
            raise ArgumentError(f"bucket-size function must satisfy 1 <= g(m) <= m; g({m}) = {v}")
        values.append(v)
    for (m0, v0), (m1, v1) in zip(zip(samples, values), zip(samples[1:], values[1:])):
        if v1 < v0:
            raise ArgumentError(
                f"bucket-size function must be nondecreasing; g({m0})={v0} > g({m1})={v1}"
            )
    return values[-1]


def bucket_reduce(
    ps: WeightedPointSet,
    space: NormedSpaceOps,
    alpha: float,
    r: float,
    g,
    inner: InnerSolver,
) -> Optional[CandidateBall]:
    """One divide-and-conquer stage: solves at fraction alpha' = sqrt(2*alpha)
    with constant C' = C^2 + 2C + 2 given an inner solver at fraction alpha
    with constant C.

    Buckets of size ceil(n / ceil(n / g(n))) are covered independently at
    fraction alpha'/2; each cover center inherits its bucket's total
    weight; the reduced weighted set is covered again at fraction
    alpha'^2/2 = alpha with radius (C+1)*r; the at most floor(1/alpha)
    finalists are verified on the original set at radius C'*r against
    the target alpha'*w.  Returns the first verified ball or None.
    """
    if not 0.0 < alpha <= 0.5:
        raise UnsupportedFractionError(
            f"bucket_reduce needs alpha <= 1/2 so that sqrt(2*alpha) <= 1, got {alpha}"
        )
    require_radius(r)
    if ps.coords is None:
        raise ArgumentError("bucket_reduce needs explicit coordinates")
    if inner.min_fraction > alpha:
        raise ArgumentError(
            f"inner solver requires fraction >= {inner.min_fraction}, need {alpha}"
        )
    require_positive_weight(ps)
    n = ps.n
    gn = _validate_bucket_fn(g, n)
    n_buckets = math.ceil(n / gn)
    size = math.ceil(n / n_buckets)
    alpha_out = math.sqrt(2.0 * alpha)
    C = inner.constant

    centers = []
    center_weights = []
    for lo in range(0, n, size):
        hi = min(n, lo + size)
        bucket_w = float(np.sum(ps.weights[lo:hi]))
        if bucket_w <= 0.0:
            continue
        bucket = WeightedPointSet(ps.coords[lo:hi], ps.weights[lo:hi])
        cover = ball_cover(
            inner.solve, bucket, space, inner.min_fraction, alpha_out / 2.0, C, r
        )
        for ball in cover.balls:
            centers.append(np.asarray(ball.center, dtype=np.float64))
            center_weights.append(bucket_w)
    if not centers:
        return None
    reduced = WeightedPointSet(np.vstack(centers), np.asarray(center_weights))
    finalists = ball_cover(
        inner.solve, reduced, space, inner.min_fraction, alpha, C, (C + 1.0) * r
    )
    out_radius = bucket_constant(C) * r
    threshold = alpha_out * ps.total_weight
    for ball in finalists.balls:
        center = np.asarray(ball.center, dtype=np.float64)
        covered = float(np.sum(ps.weights[space.distances(ps.coords, center) <= out_radius]))
        if covered >= threshold:
            return CandidateBall(center=center, radius=out_radius, covered_weight=covered)
    return None


def _polylog_fn(exponent: int):
    def f(x: float) -> float:
        if x <= 2.0:
            return 1.0
        lg = math.log2(x)
        if lg <= 1.0:
            return 1.0
        # compare in log space to dodge overflow: lg^exponent vs x
        if exponent * math.log2(lg) >= 60.0:
            return math.inf
        return lg**exponent
    return f


def _iterated_bucket_fn(f, times: int):
    # g(n) = min(n, f^(times)(n)), floored at 1; f must be nondecreasing
    def g(x):
        x = float(x)
        v = x
        for _ in range(times):
            v = f(v)
            if v >= x:
                return x
        return max(1.0, min(x, v))
    return g


def logtower_constant(beta: float, k: int) -> float:
    """Composed approximation constant reported by cluster_logtower."""
    if k == 0:
        return any_alpha_constant(beta)
    c = any_alpha_constant(logtower_base_fraction(beta, k))
    for _ in range(k):
        c = bucket_constant(c)
    return c


def cluster_logtower(
    ps: WeightedPointSet, space: NormedSpaceOps, beta: float, k: int, r: float
) -> Optional[CandidateBall]:
    """k-fold bucket composition over the scale-ladder base solver.

    k = 0 is exactly cluster_any_alpha at fraction beta.  For k >= 1 the
    base runs at fraction (beta/2)^(2^k)/2 and each stage squares up via
    fraction -> sqrt(2 * fraction), finishing with a ball verified at
    beta * w.  The approximation constant (logtower_constant) grows
    enormously with k; what is bought is the near-linear runtime.
    """
    if not 0.0 < beta < 1.0:
        raise ArgumentError(f"beta must be in (0, 1), got {beta}")
    if k < 0 or int(k) != k:
        raise ArgumentError(f"k must be a nonnegative integer, got {k}")
    require_radius(r)
    if k == 0:
        return cluster_any_alpha(ps, space, beta, r)
    base_fraction = logtower_base_fraction(beta, k)
    exponent = int(math.floor(2.0 / base_fraction))
    f = _polylog_fn(exponent)
    stage = any_alpha_solver(space, base_fraction)
    for j in range(1, k + 1):
        g = _iterated_bucket_fn(f, 2 ** (j - 1))
        stage = _bucket_stage(space, stage, g)
    if not math.isfinite(stage.constant):
        raise ArgumentError(
            f"composed approximation constant overflows floats at beta={beta}, k={k}; use a smaller k"
        )
    return stage.solve(ps, beta, r)


def _bucket_stage(space: NormedSpaceOps, inner: InnerSolver, g) -> InnerSolver:
    def solve(ps: WeightedPointSet, fraction: float, r: float) -> Optional[CandidateBall]:
        return bucket_reduce(ps, space, fraction * fraction / 2.0, r, g, inner)

    return InnerSolver(
        solve=solve,
        constant=bucket_constant(inner.constant),
        min_fraction=min(1.0, math.sqrt(2.0 * inner.min_fraction)),
    )
