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

from .core import (
    CandidateBall, WeightedPointSet, require_fraction, require_pairing,
    require_positive_weight, require_radius,
)
from .errors import ArgumentError, DegenerateInputError
from .spaces import _BLOCK, NormedSpaceOps, _pair_gaps


def halfplus_constant(alpha: float) -> float:
    """Approximation constant 4*alpha / (2*alpha - 1) = 2 + 1/(alpha - 1/2)."""
    require_fraction(alpha, above_half=True)
    return 4.0 * alpha / (2.0 * alpha - 1.0)


def refine_iteration_cap(alpha: float) -> int:
    """Iterations needed to shrink the containment factor from 3C+4 to C.

    Each centroid step multiplies the factor by (1 - eps) with
    eps = alpha - 1/2, and (3C+4)/C < 5, so ceil(log 5 / log(1/(1-eps)))
    steps always suffice.
    """
    require_fraction(alpha, above_half=True)
    eps = alpha - 0.5
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # gaps, when given, is _pair_gaps(space, points) for an even-length
    # points.  Also returns each survivor's index in points; its partner's
    # is that index ^ 1.  Odd n's padding copy (index n) weighs 0 and
    # never survives.
    n = points.shape[0]
    if n % 2 == 1:
        # pad with a zero-weight copy of the first point
        points = np.vstack([points, points[:1]])
        weights = np.concatenate([weights, [0.0]])
    wa = weights[0::2]
    wb = weights[1::2]
    if gaps is None:
        gaps = _pair_gaps(space, points)
    close = gaps <= 2.0 * r
    v = np.where(close, wa + wb, np.abs(wa - wb))
    # heavier member survives; ties keep the earlier point.  One row
    # gather copies each survivor, the same bytes as a per-pair select.
    kept = np.arange(0, points.shape[0], 2) + ~(wa >= wb)
    return points.take(kept, axis=0), v, kept


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
    require_pairing(ps, space, (NormedSpaceOps,))
    pts, v, _ = _pair_reduce_arrays(ps.coords, ps.weights, space, r)
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
    require_fraction(alpha, above_half=True)
    eps = alpha - 0.5
    require_radius(r)
    if not K >= 2.0 + 1.0 / eps - 1e-9:
        raise ArgumentError(f"K must be at least 2 + 1/eps = {2 + 1/eps}, got {K}")
    require_pairing(ps, space, (NormedSpaceOps,))
    a = np.asarray(a, dtype=np.float64)
    c = _centroid(ps.coords, ps.weights, space.distances(ps.coords, a) <= K * r)
    if c is None:
        raise DegenerateInputError("no weight within K*r of the current center")
    return c


# Refine loops over at least this many points certify their rows
# (_ShiftedRow); smaller levels compute every row whole.
_CERTIFY_MIN_ROWS = 256
# The certificate decides thresholds t >= _TINY with t + shift + margin
# <= _HUGE; outside that range the row is computed whole (see _ShiftedRow).
_TINY = 2.0**-400
_HUGE = 2.0**500


class _ShiftedRow:
    """The distance row of a level's points at a moving center, as far
    as threshold tests need it: ``row <= t`` is the mask that
    ``space.distances(points, center) <= t`` would give, bit for bit.

    It keeps one exact row D, at a reference center, from ``rows(c)``
    (``space.distances(points, c)`` unless given); ``at(c)`` moves it to
    c.  The first reference is the first center; given mu and below =
    [kept, row], the level's pair-survivor indices and the reduced
    level's row, it is that row's reference instead, and D is copied for
    the survivors and computed for the partners only
    (``_inherited_row``).  below, if given, is emptied either way.  With
    no mu the first test at c computes the row there whole.
    With mu = 4 delta, delta the space's rounding allowance
    (``spaces.LpSpace``), the first test at c spends one counted norm on
    the center's shift s = ||c - ref||, and a point is decided at t by
    the triangle inequality: D <= t - s - mu (t + s) puts it inside,
    D > t + s + mu (t + s) outside.  Write z_ref, z, sigma for the exact
    reference distance, distance and shift and tau = 2^-500; then
    |z - z_ref| <= sigma, and each computed value is within delta of its
    exact one, relative, plus tau.  Inside: the point's value at c is at
    most (1 + delta)(z_ref + sigma) + tau <= (1 + 3 delta)(D + s + 2 tau)
    + tau <= (1 + 3 delta)(1 - 4 delta) t + 4 tau <= t - delta t + 4 tau.
    Outside: it is at least (1 - 2 delta) D - s - 3 tau > (1 - 2 delta)(1
    + 4 delta)(t + s) - s - 3 tau >= t + delta (t + s) - 3 tau.  For
    _TINY <= t both margins exceed the absolute terms and the rounding
    of the two bounds, and a reference value of inf means z_ref >= 2^510,
    outside any t + s <= _HUGE; other t get the whole row.  Only the
    undecided points get exact values, through ``space.distances``, and
    they are kept until the center moves, so a point undecided at two
    thresholds at one center (within ulps of each) is computed and
    counted once.  Once the exact values spent at c would pass half the
    level, the whole row is computed at c instead and becomes the
    reference.
    """

    def __init__(
        self,
        points: np.ndarray,
        space: NormedSpaceOps,
        center: np.ndarray,
        rows: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        mu: Optional[float] = None,
        below: Optional[list] = None,
    ):
        self.points, self.space, self.mu = points, space, mu
        self.rows = partial(space.distances, points) if rows is None else rows
        if mu is None or below is None:
            self.ref, self.ref_row = center, self.rows(center)
        else:
            self.ref, self.ref_row = _inherited_row(points, space, *below)
        if below:
            below.clear()
        self.center, self.shift = center, None

    def _rebase(self, center: np.ndarray) -> np.ndarray:
        self.ref = self.center = center
        self.ref_row = self.rows(center)
        return self.ref_row

    def at(self, center: np.ndarray) -> None:
        if center is not self.center:
            self.center, self.shift = center, None

    def _exact(self, idx: np.ndarray) -> np.ndarray:
        """Exact row values of the points idx at the current center."""
        if self.known is None:
            # the values computed at this center; NaN where none is yet
            self.known = np.full(self.ref_row.size, np.nan)
        new = idx[np.isnan(self.known[idx])]
        if new.size:
            self.spent += new.size
            if 2 * self.spent > self.ref_row.size:
                return self._rebase(self.center)[idx]
            self.known[new] = self.space.distances(self.points.take(new, axis=0), self.center)
        return self.known[idx]

    def __le__(self, t: float) -> np.ndarray:
        if self.center is self.ref:
            return self.ref_row <= t
        if self.mu is None or not _TINY <= t:
            return self._rebase(self.center) <= t
        if self.shift is None:
            # the one-row distances call, without its argument checks
            self.shift = float(self.space.norms((self.center - self.ref)[None, :])[0])
            self.spent, self.known = 0, None
        s = self.shift
        margin = self.mu * (t + s)
        hi = t + s + margin
        if hi > _HUGE:
            return self._rebase(self.center) <= t
        inside = self.ref_row <= t - s - margin
        maybe = self.ref_row <= hi
        if np.count_nonzero(maybe) > np.count_nonzero(inside):
            undecided = np.flatnonzero(maybe ^ inside)
            inside[undecided] = self._exact(undecided) <= t
        return inside


def _centroid(points: np.ndarray, weights: np.ndarray, mask: np.ndarray) -> Optional[np.ndarray]:
    """Weighted centroid of the masked points; None if they weigh nothing."""
    w = weights[mask]
    total = float(np.add.reduce(w))
    if total <= 0.0:
        return None
    # compress copies the same rows as points[mask], in the same C order,
    # so the product sees the same operand
    return points.compress(mask, axis=0).T @ w / total


def _inherited_row(
    points: np.ndarray, space: NormedSpaceOps, kept: np.ndarray, below: _ShiftedRow
) -> tuple[np.ndarray, np.ndarray]:
    """(below.ref, ``space.distances(points, below.ref)``), bit for bit,
    where kept is the survivor index of points' pair reduction
    (_pair_reduce_arrays) and below the reduced level's row.

    A row value's bits depend only on that row and the center (spaces),
    and each survivor is a byte copy of a reduced-level point, so its
    value is copied from below.ref_row; only the partners are computed,
    one ``_BLOCK`` of rows at a time.
    """
    row = np.empty(points.shape[0])
    row[kept] = below.ref_row
    # odd n's last partner is the padding copy, not one of points
    partners = (kept ^ 1)[: points.shape[0] // 2]
    for lo in range(0, partners.size, _BLOCK):
        idx = partners[lo : lo + _BLOCK]
        row[idx] = space.distances(points.take(idx, axis=0), below.ref)
    return below.ref, row


def _refine_loop(
    points: np.ndarray,
    weights: np.ndarray,
    space: NormedSpaceOps,
    center: np.ndarray,
    alpha: float,
    r: float,
    rows: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    below: Optional[list] = None,
) -> tuple[np.ndarray, _ShiftedRow]:
    # Shrink the containment factor K from 3C+4 down to C, testing
    # membership at K*r against this level's full point set each pass.
    # A pass whose mask equals the one that produced the current center
    # would reproduce that center bit for bit, so it only shrinks K: no
    # centroid, and the row stays where it is.  Where that row is exact,
    # K shrinks in float compares alone until K*r falls below the mask's
    # farthest member, the first K at which the mask can change.  Returns
    # the center and the level's _ShiftedRow, moved to it.  rows(c), if
    # given, must equal space.distances(points, c); without it, a level
    # of at least _CERTIFY_MIN_ROWS points in a space with a rounding
    # allowance certifies its rows, starting from below's reference if
    # given (see _ShiftedRow).
    mu = None
    if rows is None and points.shape[0] >= _CERTIFY_MIN_ROWS and space._allowance is not None:
        mu = 4.0 * space._allowance
    row = _ShiftedRow(points, space, center, rows, mu, below)
    shrink = 1.0 - (alpha - 0.5)
    C = halfplus_constant(alpha)
    K = 3.0 * C + 4.0
    used = None  # bytes of the mask that produced the current center
    while K > C:
        mask = row <= K * r
        key = mask.tobytes()
        if key != used:
            moved = _centroid(points, weights, mask)
            if moved is None:
                # no valid ball can exist here; keep the center unrefined
                return center, row
            center, used = moved, key
            row.at(center)
        elif row.center is row.ref:
            far = row.ref_row[mask].max()
            while K * shrink > C and K * shrink * r >= far:
                K *= shrink
        K *= shrink
    return center, row


def _halfplus_center(
    points: np.ndarray,
    weights: np.ndarray,
    space: NormedSpaceOps,
    alpha: float,
    r: float,
    rows: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    gaps: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, Optional[_ShiftedRow]]:
    # rows and gaps serve only this level's refine loop and pair
    # reduction (see _refine_loop, _pair_reduce_arrays); the reduced
    # levels below compute their own.  Returns _refine_loop's pair, or
    # no row for a single point.
    if points.shape[0] == 1:
        return points[0], None
    reduced_pts, v, kept = _pair_reduce_arrays(points, weights, space, r, gaps)
    if float(np.add.reduce(v)) <= 0.0:
        # every pair cancelled: no radius-r ball can hold more than half
        # the weight, so any survivor is as good a starting point as any
        return _refine_loop(points, weights, space, reduced_pts[0], alpha, r, rows)
    coarse, below = _halfplus_center(reduced_pts, v, space, alpha, 3.0 * r)
    # the row empties this list once its first reference is built, so
    # the reduced level's row and kept are freed before the loop runs
    below = [kept, below]
    del kept
    return _refine_loop(points, weights, space, coarse, alpha, r, rows, below)


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
    require_radius(r, halfplus_constant(alpha))
    require_pairing(ps, space, (NormedSpaceOps,))
    require_positive_weight(ps)
    center, row = _halfplus_center(ps.coords, ps.weights, space, alpha, r)
    if row is None:
        row = space.distances(ps.coords, center)
    radius = halfplus_constant(alpha) * r
    covered = float(np.add.reduce(ps.weights[row <= radius]))
    return CandidateBall(center=center, radius=radius, covered_weight=covered)
