"""Ground-truth checks: exhaustive search, ball verification, and a
randomized sampling baseline for comparison runs.

Everything here is reference-grade rather than fast.  The brute-force
search is quadratic and is the yardstick the solvers are measured
against in tests and in the CLI's verify subcommand.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    CandidateBall, WeightedPointSet, _center_row, covered_weight, require_fraction,
    require_pairing, require_positive_weight, require_radius,
)
from .errors import ArgumentError, require_int
from .selection import best_candidate

VERIFY_REL_TOL = 1e-12


def _meets_fraction(covered: float, alpha: float, total: float, rel_tol: float = VERIFY_REL_TOL) -> bool:
    """The verification threshold: covered >= alpha * total, less a slack of rel_tol * total."""
    return bool(covered >= alpha * total - rel_tol * total)


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
    _check_ball(ps, space, center, radius, alpha, rel_tol)
    return _ball_verdict(ps, _center_row(ps, space, center), radius, alpha, rel_tol)


def _check_ball(ps: WeightedPointSet, space, center, radius: float, alpha: float, rel_tol: float) -> None:
    """verify_ball's argument checks."""
    require_fraction(alpha)
    if not 0.0 <= radius < math.inf:
        raise ArgumentError(f"radius must be finite and nonnegative, got {radius}")
    if not 0.0 <= rel_tol < math.inf:
        raise ArgumentError(f"rel_tol must be finite and nonnegative, got {rel_tol}")


def _ball_verdict(
    ps: WeightedPointSet, row: np.ndarray, radius: float, alpha: float, rel_tol: float
) -> tuple[bool, float]:
    """verify_ball's (ok, covered) from the center's distance row, as ``covered_weight`` sums it."""
    covered = float(np.sum(ps.weights[row <= radius]))
    return _meets_fraction(covered, alpha, ps.total_weight, rel_tol), covered


def brute_force_best(ps: WeightedPointSet, space, alpha: float) -> CandidateBall:
    """Smallest ball centered at an input point covering >= alpha * w.

    Tries every point as a center and returns the (center, radius) pair
    with minimal radius, breaking ties toward the lowest point index.
    Works with coordinate spaces and distance oracles alike; with an
    oracle this spends exactly n^2 queries plus a final sweep.
    """
    require_fraction(alpha)
    require_positive_weight(ps)
    target = alpha * float(np.sum(ps.weights))
    idx = np.arange(ps.n)
    oracle_mode = require_pairing(ps, space)

    def rows(chunk):
        if oracle_mode:
            return space.dist_block(chunk, idx)
        return np.stack([space.distances(ps.coords, ps.coords[i]) for i in chunk])

    best_i, best_s, _ = best_candidate(rows, idx, ps.weights, target)
    center = best_i if oracle_mode else ps.coords[best_i].copy()
    covered = covered_weight(ps, space, center, best_s)
    return CandidateBall(center=center, radius=float(best_s), covered_weight=covered, center_index=best_i)


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
    require_fraction(alpha)
    require_radius(r, 2.0)
    require_positive_weight(ps)
    oracle_mode = require_pairing(ps, space)
    seed = require_int("seed", seed, 0)
    if max_attempts is None:
        max_attempts = int(math.ceil(10.0 / alpha))
    max_attempts = require_int("max_attempts", max_attempts, 1)
    rng = np.random.default_rng(seed)
    total = ps.total_weight
    probs = ps.weights / total
    for attempt in range(1, max_attempts + 1):
        i = int(rng.choice(ps.n, p=probs))
        center = i if oracle_mode else ps.coords[i].copy()
        covered = covered_weight(ps, space, center, 2.0 * r)
        if _meets_fraction(covered, alpha, total):
            ball = CandidateBall(center=center, radius=2.0 * r, covered_weight=covered, center_index=i)
            return ball, attempt
    return None, max_attempts
