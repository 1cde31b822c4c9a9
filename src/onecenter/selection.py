"""Weighted selection primitives.

Everything in this library reduces to one question: given values with
nonnegative weights, what is the smallest value v such that the total
weight of entries <= v reaches a target?  ``select_rows`` answers it for
every row of a block; ``smallest_radius_at_weight`` is its one-row call,
and ``weighted_median`` and ``weighted_quantile_radius`` ask it at a
fraction of the total weight.

It is answered by a numpy sort + cumsum scan (``_scan_rows``), O(n log n)
per row and fully deterministic.  The sort is one in-place integer sort
of keys that pack each value's bits with its index, which is exactly the
stable permutation (``_stable_order``).
"""

from __future__ import annotations

import math

import numpy as np

from .core import require_fraction
from .errors import ArgumentError


def kernel_backend() -> str:
    """Name of the selection backend, recorded in run metadata: 'numpy'."""
    return "numpy"


def _one_row(values, weights) -> tuple[np.ndarray, np.ndarray]:
    """The values as a one-row block, and the weights; both must be 1-D."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    w = np.ascontiguousarray(weights, dtype=np.float64)
    if v.ndim != 1 or w.ndim != 1:
        raise ArgumentError("values and weights must be one-dimensional")
    return v[None, :], w


def _check_values(v: np.ndarray, w: np.ndarray) -> None:
    # v is one row or a block of rows, each as long as w
    if v.shape[-1] != w.shape[0]:
        raise ArgumentError("values and weights differ in length")
    if v.shape[-1] == 0:
        raise ArgumentError("empty input")
    if not np.all(np.isfinite(v)):
        raise ArgumentError("values must be finite")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ArgumentError("weights must be finite and nonnegative")


def _total(w: np.ndarray) -> float:
    """Sum of checked weights; finite weights may still overflow it."""
    total = float(np.sum(w))
    if not math.isfinite(total):
        raise ArgumentError(f"weights sum to {total}; rescale them so the total is finite")
    return total


def weighted_median(values, weights) -> float:
    """Smallest value v whose cumulative weight reaches half the total.

    With uniform weights this is the classical lower median.
    """
    return _select_fraction(values, weights, 0.5)


def weighted_quantile_radius(distances, weights, alpha: float) -> float:
    """Smallest d such that entries <= d carry at least alpha of the weight."""
    require_fraction(alpha)
    return _select_fraction(distances, weights, alpha)


def _select_fraction(values, weights, fraction: float) -> float:
    """Selection at ``fraction`` of the total weight, which must be positive."""
    v, w = _one_row(values, weights)
    _check_values(v, w)
    total = _total(w)
    if total <= 0.0:
        raise ArgumentError("total weight must be positive")
    return float(_scan_rows(v, w, fraction * total)[0])


def smallest_radius_at_weight(distances, weights, target_weight: float) -> float:
    """Smallest d with total weight of entries <= d reaching ``target_weight``.

    Absolute-threshold variant used by the peeling solvers.  Returns
    ``inf`` when the target exceeds the total available weight, and the
    minimum entry when the target is zero or negative; a NaN target is
    an ArgumentError.  It is the one-row ``select_rows`` call.
    """
    v, w = _one_row(distances, weights)
    return float(select_rows(v, w, target_weight)[0])


def _stable_order(v: np.ndarray) -> np.ndarray:
    """``np.argsort(v, axis=1, kind="stable")``, computed faster.

    Each value becomes one int64 key: its bits, with the low 63 flipped
    for negatives so that integer order is float order (``+ 0.0`` first
    turns -0.0 into 0.0), the low k bits then replaced by the column
    index, where k is the fewest bits that hold every index.  The keys
    are unique, so any sort of them gives one permutation, and it is the
    stable one wherever the truncated keys keep values apart.  Values
    whose keys differ only in the low k bits sort by index instead; a
    group of such keys that holds an inversion is re-sorted by value
    (``_repair_groups``).
    """
    c = v.shape[1]
    k = (c - 1).bit_length()
    low = (1 << k) - 1
    key = (v + 0.0).view(np.int64)
    flip = key >> 63  # all ones for negative values, else zero
    flip &= np.int64(0x7FFF_FFFF_FFFF_FFFF)
    key ^= flip
    key &= ~low
    key |= np.arange(c)
    key.sort(axis=1)
    # adjacent keys equal above the low k bits may be out of value order
    same = (key[:, 1:] ^ key[:, :-1]).view(np.uint64) <= low
    key &= low
    if same.any():
        rows, cols = np.nonzero(same)
        bad = v[rows, key[rows, cols]] > v[rows, key[rows, cols + 1]]
        if bad.any():
            _repair_groups(v, key, same, rows[bad], cols[bad])
    return key


def _repair_groups(v, order, same, rows, cols) -> None:
    """Re-sort, in place, each group of ``order`` that holds an inversion.

    A group is a run of positions joined by ``same``; within it the
    order is by index.  Each inverted pair (row, col) names the group
    holding positions col and col + 1, and a stable sort of that group's
    values keeps equal values in index order.
    """
    c = order.shape[1]
    for row in np.unique(rows):
        starts = np.flatnonzero(~same[row]) + 1
        bounds = np.concatenate(([0], starts, [c]))
        for g in np.unique(np.searchsorted(starts, cols[rows == row], side="right")):
            seg = order[row, bounds[g] : bounds[g + 1]]
            seg[:] = seg[np.argsort(v[row, seg], kind="stable")]


def select_rows(distances, weights, target_weight: float) -> np.ndarray:
    """Row-wise ``smallest_radius_at_weight`` over a block of distances.

    ``out[i]`` equals ``smallest_radius_at_weight(distances[i], weights,
    target_weight)`` bit for bit, including the ``inf`` and row-minimum
    edge cases.  The block and the weights are validated once, with the
    same errors as the scalar function, and ``_scan_rows`` sorts and
    scans the whole block along axis 1.
    """
    v = np.ascontiguousarray(distances, dtype=np.float64)
    w = np.ascontiguousarray(weights, dtype=np.float64)
    if v.ndim != 2 or w.ndim != 1:
        raise ArgumentError("distance block must be two-dimensional and weights one-dimensional")
    _check_values(v, w)
    total = _total(w)
    if math.isnan(target_weight):
        raise ArgumentError("target_weight must not be NaN")
    if target_weight > total:
        return np.full(v.shape[0], math.inf)
    if target_weight <= 0.0:
        return np.min(v, axis=1)
    return _scan_rows(v, w, float(target_weight))


def _scan_rows(v: np.ndarray, w: np.ndarray, target: float) -> np.ndarray:
    """Numpy selection of every row of a validated block, 0 < target <= total.

    Each row is taken in stable order, its weights are summed in that
    order, and the value at the first index whose running sum reaches
    the target is returned.
    """
    order = _stable_order(v)
    reached = np.cumsum(w[order], axis=1) >= target
    # first index whose cumsum reaches the target; the last one when
    # rounding leaves the whole row short (cumsums never decrease)
    pick = np.where(reached[:, -1], np.argmax(reached, axis=1), v.shape[1] - 1)
    rows = np.arange(v.shape[0])
    return v[rows, order[rows, pick]]


# Element budget of one candidate block in ``best_candidate``: a few MB
# of distances, argsort indices and cumsums, whatever n is.
BLOCK_ELEMS = 1 << 18


def best_candidate(fetch, candidates, weights, target_weight: float):
    """Candidate with the smallest ``smallest_radius_at_weight`` radius.

    ``fetch(chunk)`` returns the ``len(chunk) x len(weights)`` distance
    rows of the candidate indices in ``chunk``; candidates are fetched in
    chunks of at most ``BLOCK_ELEMS`` elements and scored with
    ``select_rows``.  Ties go to the lowest candidate index, whatever the
    order of ``candidates``.  Returns ``(index, radius, row)``, or
    ``(-1, inf, None)`` when there are no candidates or every radius is
    ``inf``.
    """
    cand = np.asarray(candidates, dtype=np.intp).reshape(-1)
    step = max(1, BLOCK_ELEMS // max(1, len(weights)))
    best_i, best_s, best_row = -1, math.inf, None
    for lo in range(0, cand.size, step):
        chunk = cand[lo : lo + step]
        block = fetch(chunk)
        radii = select_rows(block, weights, target_weight)
        s = float(np.min(radii))
        if s == math.inf or s > best_s:
            continue
        tied = np.flatnonzero(radii == s)
        k = int(tied[np.argmin(chunk[tied])])
        if s < best_s or chunk[k] < best_i:
            best_i, best_s, best_row = int(chunk[k]), s, block[k]
    return best_i, best_s, best_row
