"""Core data types: weighted point sets and candidate balls.

Points live either in a real coordinate space (an (n, d) float array) or
behind a distance oracle, in which case a point handle is simply its
index and ``coords`` is None.  All balls are closed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ArgumentError, UnsupportedFractionError, require_int
from .oracle import DistanceOracle
from .spaces import NormedSpaceOps

PointHandle = Union[np.ndarray, int]


@dataclass(frozen=True)
class WeightedPointSet:
    """Immutable weighted point set.

    ``coords`` is an (n, d) float64 array for coordinate-backed sets or
    None for oracle-backed sets (where points are indices 0..n-1).
    Weights are nonnegative with a finite total; a zero total is
    representable but every solver entry point requires a positive total.
    """

    coords: np.ndarray | None
    weights: np.ndarray
    total_weight: float = field(init=False)

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ArgumentError("weights must be one-dimensional")
        if w.shape[0] == 0:
            raise ArgumentError("point set must be nonempty")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ArgumentError("weights must be finite and nonnegative")
        c = self.coords
        if c is not None:
            c = np.ascontiguousarray(c, dtype=np.float64)
            if c.ndim != 2:
                raise ArgumentError("coords must be an (n, d) array")
            if c.shape[0] != w.shape[0]:
                raise ArgumentError("coords and weights differ in length")
            if not np.all(np.isfinite(c)):
                raise ArgumentError("coords must be finite")
            c.setflags(write=False)
        with np.errstate(over="ignore"):
            total = float(w.sum())
        if not math.isfinite(total):
            raise ArgumentError(f"weights sum to {total}; rescale them so the total is finite")
        w.setflags(write=False)
        object.__setattr__(self, "coords", c)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "total_weight", total)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def d(self) -> int:
        if self.coords is None:
            raise ArgumentError("oracle-backed point set has no coordinate dimension")
        return self.coords.shape[1]

    @classmethod
    def from_coords(cls, coords, weights=None) -> "WeightedPointSet":
        coords = np.asarray(coords, dtype=np.float64)
        if weights is None:
            weights = np.ones(coords.shape[0])
        return cls(coords, np.asarray(weights, dtype=np.float64))

    @classmethod
    def indexed(cls, n: int, weights=None) -> "WeightedPointSet":
        """Oracle-backed set of n points with the given (default unit) weights."""
        n = require_int("n", n, 1)
        if weights is None:
            weights = np.ones(n)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != n:
            raise ArgumentError("weights length must equal n")
        return cls(None, weights)

    def with_weights(self, weights) -> "WeightedPointSet":
        return WeightedPointSet(self.coords, np.asarray(weights, dtype=np.float64))


@dataclass(frozen=True)
class CandidateBall:
    """A closed ball: center, radius, and the exact weight it covers.

    ``center`` is a coordinate vector for vector-space solvers or a point
    index for oracle-backed solvers; ``center_index`` is additionally set
    whenever the center is one of the input points.
    """

    center: PointHandle
    radius: float
    covered_weight: float
    center_index: int | None = None


def require_positive_weight(ps: WeightedPointSet) -> None:
    if ps.total_weight <= 0.0:
        raise ArgumentError("total weight must be positive")


def require_radius(r: float) -> None:
    """Raise ArgumentError unless the assumed inlier radius r is finite and positive."""
    if not 0.0 < r < math.inf:
        raise ArgumentError(f"r must be finite and positive, got {r}")


def require_fraction(alpha: float, above_half: bool = False) -> None:
    """Raise UnsupportedFractionError unless alpha is in (0, 1], or in
    (1/2, 1] for the above-half solvers.  NaN is rejected."""
    if not (0.5 if above_half else 0.0) < alpha <= 1.0:
        raise UnsupportedFractionError(
            f"alpha must be in ({'1/2' if above_half else '0'}, 1], got {alpha}"
        )


def require_pairing(
    ps: WeightedPointSet, space, kinds: tuple = (NormedSpaceOps, DistanceOracle)
) -> bool:
    """Check that ``space`` is one of ``kinds`` and fits ``ps``; True when
    it is a DistanceOracle, False when it is a NormedSpaceOps.

    The two point models: a NormedSpaceOps needs ``ps`` to carry
    coordinates of its dimension d, a DistanceOracle needs ``ps`` to
    hold exactly its size points (coordinates, if any, are ignored).
    """
    if not isinstance(space, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise ArgumentError(f"space must be a {names}, got {type(space).__name__}")
    if isinstance(space, DistanceOracle):
        if ps.n != space.size:
            raise ArgumentError(f"point set and oracle sizes differ: {ps.n} vs {space.size}")
        return True
    if ps.coords is None:
        raise ArgumentError("a normed space needs a point set with coordinates")
    if ps.d != space.d:
        raise ArgumentError(f"point set and space dimensions differ: {ps.d} vs {space.d}")
    return False


def covered_weight(ps: WeightedPointSet, space, center: PointHandle, radius: float) -> float:
    """Total weight within distance <= radius of center (closed ball).

    ``space`` is a NormedSpaceOps for coordinate-backed sets (center must
    then be a coordinate vector) or a DistanceOracle (center must be a
    point index, and the sweep is counted against the oracle's budget).
    """
    if not radius >= 0:
        raise ArgumentError(f"radius must be nonnegative, got {radius}")
    if require_pairing(ps, space):
        if not isinstance(center, (int, np.integer)):
            raise ArgumentError("oracle-backed covered_weight needs a center index")
        dists = space.sweep(int(center))
    else:
        center = np.asarray(center, dtype=np.float64)
        dists = space.distances(ps.coords, center)
    return float(np.sum(ps.weights[dists <= radius]))
