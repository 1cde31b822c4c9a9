"""Coordinate-median solver for l_p spaces.

When some radius-r ball holds a weight fraction alpha > 1/2, the vector
of per-coordinate weighted medians is itself close to that ball's
center: within (alpha / (alpha - 1/2))^(1/p) * r for finite p.  The
solver never needs to know r or the ball; it is a single selection pass
per coordinate.
"""

from __future__ import annotations

import math

import numpy as np

from .core import WeightedPointSet, require_fraction, require_pairing, require_positive_weight
from .errors import ArgumentError
from .selection import weighted_median
from .spaces import _BLOCK, LpSpace, NormedSpaceOps


def lp_median_bound(alpha: float, p: float) -> float:
    """Distance bound (in units of r) from the coordinate median to the
    center of any radius-r ball holding a weight fraction alpha > 1/2.

    For finite p this is (alpha / (alpha - 1/2))^(1/p).  At p = inf the
    exponent collapses and the bound is the trivial constant 1.
    """
    require_fraction(alpha, above_half=True)
    if not p >= 1.0:
        raise ArgumentError(f"p must be >= 1, got {p}")
    if math.isinf(p):
        return 1.0
    return (alpha / (alpha - 0.5)) ** (1.0 / p)


def lp_coordinate_median(ps: WeightedPointSet, space: LpSpace, alpha: float) -> np.ndarray:
    """Per-coordinate weighted median of a coordinate-backed point set.

    alpha is the weight fraction the caller assumes some radius-r ball
    holds; it only gates validity (alpha > 1/2) and the reported bound,
    the median itself is alpha-free.
    """
    require_fraction(alpha, above_half=True)
    require_pairing(ps, space, (NormedSpaceOps,))
    require_positive_weight(ps)
    # one transposed copy, made block by block so that each block's
    # rows stay in cache, hands every selection a contiguous row
    coords = ps.coords
    cols = np.empty(coords.shape[::-1])
    for lo in range(0, coords.shape[0], _BLOCK):
        cols[:, lo : lo + _BLOCK] = coords[lo : lo + _BLOCK].T
    out = np.empty(space.d)
    for k in range(space.d):
        out[k] = weighted_median(cols[k], ps.weights)
    return out
