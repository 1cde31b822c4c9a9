"""Ground-truth checks: exhaustive search, ball verification, and a
randomized sampling baseline for comparison runs.

Everything here is reference-grade rather than fast.  The brute-force
search is quadratic and is the yardstick the solvers are measured
against in tests and in the CLI's verify subcommand.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CandidateBall, WeightedPointSet, covered_weight, require_positive_weight, require_radius
from .errors import ArgumentError
from .oracle import DistanceOracle
from .selection import best_candidate
from .spaces import NormedSpaceOps

VERIFY_REL_TOL = 1e-12


def verify_ball(
    ps: WeightedPointSet,
    space,
    center,
    radius: float,
    alpha: float,
    rel_tol: float = VERIFY_REL_TOL,
) -> tuple[bool, float]:
    """Check that the closed ball covers at least alpha of the total weight.

    Returns (ok, covered).  The threshold gets a relative slack of
    rel_tol * total so that weights reconstructed from text round-trips
    do not flip a true result.  A NaN or infinite radius, and a
    coordinate center with a non-finite entry, are rejected.
    """
    if not 0.0 < alpha <= 1.0:
        raise ArgumentError(f"alpha must be in (0, 1], got {alpha}")
    if not 0.0 <= radius < math.inf:
        raise ArgumentError(f"radius must be finite and nonnegative, got {radius}")
    if not 0.0 <= rel_tol < math.inf:
        raise ArgumentError(f"rel_tol must be finite and nonnegative, got {rel_tol}")
    if not isinstance(space, DistanceOracle) and not np.all(np.isfinite(center)):
        raise ArgumentError("center coordinates must be finite")
    total = ps.total_weight
    covered = covered_weight(ps, space, center, radius)
    ok = covered >= alpha * total - rel_tol * total
    return bool(ok), float(covered)


def brute_force_best(ps: WeightedPointSet, space, alpha: float) -> CandidateBall:
    """Smallest ball centered at an input point covering >= alpha * w.

    Tries every point as a center and returns the (center, radius) pair
    with minimal radius, breaking ties toward the lowest point index.
    Works with coordinate spaces and distance oracles alike; with an
    oracle this spends exactly n^2 queries plus a final sweep.
    """
    if not 0.0 < alpha <= 1.0:
        raise ArgumentError(f"alpha must be in (0, 1], got {alpha}")
    require_positive_weight(ps)
    target = alpha * float(np.sum(ps.weights))
    n = ps.n
    if isinstance(space, DistanceOracle):
        if n != space.size:
            raise ArgumentError("point set and oracle sizes differ")
        idx = np.arange(n)
        best_i, best_s, _ = best_candidate(
            lambda chunk: space.dist_block(chunk, idx), idx, ps.weights, target
        )
        d = space.dist_many(best_i, idx)
        covered = float(np.sum(ps.weights[d <= best_s]))
        return CandidateBall(center=int(best_i), radius=float(best_s), covered_weight=covered, center_index=int(best_i))
    if not isinstance(space, NormedSpaceOps):
        raise ArgumentError("space must be a NormedSpaceOps or DistanceOracle")
    if ps.coords is None:
        raise ArgumentError("coordinate space requires point coordinates")

    def rows(chunk):
        return np.stack([space.distances(ps.coords, ps.coords[i]) for i in chunk])

    best_i, best_s, _ = best_candidate(rows, np.arange(n), ps.weights, target)
    d = space.distances(ps.coords, ps.coords[best_i])
    covered = float(np.sum(ps.weights[d <= best_s]))
    return CandidateBall(
        center=ps.coords[best_i].copy(),
        radius=float(best_s),
        covered_weight=covered,
        center_index=int(best_i),
    )


def las_vegas_baseline(
    ps: WeightedPointSet,
    space,
    alpha: float,
    r: float,
    seed: int,
    max_attempts: int | None = None,
) -> tuple[CandidateBall | None, int]:
    """Randomized baseline: sample points weight-proportionally until one
    works as a center at radius 2r.

    This is the only randomized routine in the package and it exists for
    comparison, not for the deterministic guarantees.  If some radius-r
    ball covers alpha * w, a sampled point lands inside it with
    probability >= alpha per draw, and any such point covers the same
    weight at radius 2r; the expected attempt count is at most 1/alpha.
    Returns (ball or None, attempts made).
    """
    if not 0.0 < alpha <= 1.0:
        raise ArgumentError(f"alpha must be in (0, 1], got {alpha}")
    require_radius(r)
    require_positive_weight(ps)
    if max_attempts is None:
        max_attempts = int(math.ceil(10.0 / alpha))
    rng = np.random.default_rng(seed)
    total = ps.total_weight
    target = alpha * total
    probs = ps.weights / total
    oracle_mode = isinstance(space, DistanceOracle)
    for attempt in range(1, max_attempts + 1):
        i = int(rng.choice(ps.n, p=probs))
        if oracle_mode:
            d = space.dist_many(i, np.arange(ps.n))
            center = i
        else:
            d = space.distances(ps.coords, ps.coords[i])
            center = ps.coords[i].copy()
        covered = float(np.sum(ps.weights[d <= 2.0 * r]))
        if covered >= target - VERIFY_REL_TOL * total:
            ball = CandidateBall(center=center, radius=2.0 * r, covered_weight=covered, center_index=i)
            return ball, attempt
    return None, max_attempts
