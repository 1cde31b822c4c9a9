"""Distance oracles with query counting.

Metric-space solvers see points only through an oracle; the query
counter is the complexity measure those solvers are benchmarked on.
An oracle implements one hook, ``_dist_block_impl(rows, cols)``, and
one accessor, ``dist_block``, checks indices and charges rows * cols
queries; ``dist`` and ``dist_many`` are its one-row calls (one query,
one per distance in the row), and ``sweep`` is a ``dist_many`` call.
There is deliberately no global memoization: counts must reflect what
a from-scratch run would pay.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod

import numpy as np

from .errors import ArgumentError, require_int


class DistanceOracle(ABC):
    """Abstract pairwise-distance access over points 0..size-1.

    Subclasses implement only ``_dist_block_impl(rows, cols)``: handed
    range-checked one-dimensional index arrays, it returns the
    ``len(rows) x len(cols)`` float64 distances.  ``dist_block`` checks
    the indices and charges one query per distance it returns; the other
    accessors go through it.
    """

    def __init__(self, size: int):
        self._size = require_int("oracle size", size, 1)
        self._queries = 0
        self._lock = threading.Lock()

    @property
    def size(self) -> int:
        return self._size

    @property
    def query_count(self) -> int:
        """Total scalar distance evaluations so far (thread-safe)."""
        with self._lock:
            return self._queries

    def reset_query_count(self) -> None:
        with self._lock:
            self._queries = 0

    def _bump(self, k: int) -> None:
        with self._lock:
            self._queries += k

    def _check_indices(self, idx) -> np.ndarray:
        idx = np.asarray(idx)
        if idx.ndim != 1:
            raise ArgumentError("point indices must be one-dimensional")
        if idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= self._size):
            raise ArgumentError(f"point indices must be integers in [0, {self._size})")
        return idx.astype(np.intp, copy=False)

    @abstractmethod
    def _dist_block_impl(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray: ...

    def dist(self, i: int, j: int) -> float:
        """Distance between points i and j; costs exactly one query."""
        return float(self.dist_block([i], [j])[0, 0])

    def dist_many(self, i: int, idx) -> np.ndarray:
        """Distances from i to each index in idx; costs len(idx) queries."""
        return self.dist_block([i], idx)[0]

    def dist_block(self, rows, cols) -> np.ndarray:
        """len(rows) x len(cols) distances; costs len(rows) * len(cols) queries."""
        rows = self._check_indices(rows)
        cols = self._check_indices(cols)
        self._bump(int(rows.size) * int(cols.size))
        return self._dist_block_impl(rows, cols)

    def sweep(self, i: int) -> np.ndarray:
        """Distances from i to every point; costs size queries."""
        return self.dist_many(i, np.arange(self._size))


_TILE = 256
_INF_BITS = np.uint64(0x7FF0_0000_0000_0000)  # the bits of +inf


def _passes_shape_checks(m: np.ndarray) -> bool:
    """True when m is finite, nonnegative, zero on the diagonal and symmetric.

    One tiled pass over the tile pairs i <= j, after the diagonal: each
    upper tile must lie in [0, inf) and equal its mirrored tile,
    transposed; equality carries the range over to the lower tile.  The
    range is one integer maximum: read as uint64, the floats in
    [+0.0, inf) are exactly those below the bits of inf.  Only a tile it
    flags (inf, NaN, a negative or -0.0) is bounded again as floats,
    where NaN fails both bounds and -0.0 passes.  The mirrored tile is
    first copied, row by row, into one tile-sized buffer, whose
    transposed reads then stay in cache; no n x n temporary is made.
    """
    if np.any(np.diagonal(m) != 0):
        return False
    n = m.shape[0]
    b = _TILE
    buf = np.empty((b, b))
    for i in range(0, n, b):
        for j in range(i, n, b):
            upper = m[i : i + b, j : j + b]
            in_range = upper.view(np.uint64).max() < _INF_BITS or (upper.min() >= 0 and upper.max() < np.inf)
            if not in_range:
                return False
            lower = buf[: upper.shape[1], : upper.shape[0]]
            np.copyto(lower, m[j : j + b, i : i + b])
            if not np.array_equal(upper, lower.T):
                return False
    return True


# Rows summed per chunk in _triangle_violation: 128 x n doubles, 0.5 MB
# at n = 500, stay in cache where an (n - 1) x n temporary does not.
_TRIANGLE_ROWS = 128


def _triangle_violation(m: np.ndarray) -> float:
    """Largest d(i,j) - (d(i,k) + d(k,j)) over all (i, j, k), floored at 0.0.

    Precondition: m is symmetric, nonnegative and has a zero diagonal,
    which ``MatrixOracle.__init__`` checks first.  Under it one min-plus
    pass over the pairs j > i gives the same double as the maximum over
    every (i, j, k): m[k, j] == m[j, k] and float addition commutes, so
    row j of ``m[i + 1:] + m[i]`` holds every rounded d(i,k) + d(k,j);
    rounding is monotone, so fl(a - min s) == max fl(a - s); the pairs
    j < i mirror j > i, and j == i gives -2 d(i,k) <= 0, which the 0.0
    floor absorbs.  The sums are formed ``_TRIANGLE_ROWS`` rows at a time
    in one reused buffer, each chunk's row minima written into one
    output row; the minimum of a row does not depend on that.
    """
    worst = 0.0
    n = m.shape[0]
    buf = np.empty((min(_TRIANGLE_ROWS, n), n))
    s = np.empty(n)
    for i in range(n - 1):
        for lo in range(i + 1, n, _TRIANGLE_ROWS):
            hi = min(lo + _TRIANGLE_ROWS, n)
            block = np.add(m[lo:hi], m[i], out=buf[: hi - lo])
            np.min(block, axis=1, out=s[lo:hi])
        worst = max(worst, float((m[i, i + 1 :] - s[i + 1 :]).max()))
    return worst


class MatrixOracle(DistanceOracle):
    """Oracle backed by an explicit n x n distance matrix.

    Validation requires a finite, nonnegative matrix with a zero
    diagonal that is symmetric, all read in one tiled pass; the error
    names the first failed check in that order.  The
    triangle-inequality check (tolerance 1e-9) runs last, when
    ``validate='full'``, or under ``'auto'`` only for n <= 512; it is one
    O(n^3) min-plus pass over the pairs i < j, which relies on the
    earlier checks having passed.

    A C-contiguous float64 matrix is not copied: ``self.matrix`` is a
    read-only view of it, and the caller's array stays writable.  The
    caller must not mutate the matrix afterwards, since answers and
    validation would no longer agree.
    """

    TRIANGLE_TOL = 1e-9
    AUTO_TRIANGLE_LIMIT = 512

    def __init__(self, matrix, validate: str = "auto"):
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ArgumentError("distance matrix must be square")
        super().__init__(matrix.shape[0])
        if validate not in ("auto", "full", "none"):
            raise ArgumentError("validate must be 'auto', 'full', or 'none'")
        if validate != "none":
            if not _passes_shape_checks(matrix):
                # the ordered checks, run only to name the first defect
                if not np.all(np.isfinite(matrix)):
                    raise ArgumentError("distance matrix must be finite")
                if np.any(matrix < 0):
                    raise ArgumentError("distances must be nonnegative")
                if np.any(np.diagonal(matrix) != 0):
                    raise ArgumentError("distance matrix diagonal must be zero")
                raise ArgumentError("distance matrix must be symmetric")
            if validate == "full" or matrix.shape[0] <= self.AUTO_TRIANGLE_LIMIT:
                worst = _triangle_violation(matrix)
                if worst > self.TRIANGLE_TOL:
                    raise ArgumentError(
                        f"triangle inequality violated by {worst:.3e}"
                    )
        self.matrix = matrix.view()
        self.matrix.setflags(write=False)

    def _dist_block_impl(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.matrix[np.ix_(rows, cols)]


class CallableOracle(DistanceOracle):
    """Oracle over an arbitrary distance function f(i, j) -> float.

    Useful for hiding coordinates behind distance-only access; no
    validation is (or can be) performed.
    """

    def __init__(self, fn, size: int):
        super().__init__(size)
        self._fn = fn

    def _dist_block_impl(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        rs, cs = rows.tolist(), cols.tolist()
        block = [[float(self._fn(i, j)) for j in cs] for i in rs]
        return np.array(block, dtype=np.float64).reshape(len(rs), len(cs))
