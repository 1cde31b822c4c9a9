"""Distance oracles with query counting.

Metric-space solvers see points only through an oracle; the query
counter is the complexity measure those solvers are benchmarked on.
Each scalar distance evaluation costs one query, a batched row of k
distances costs k, and a block of r rows by c columns costs r * c.
There is deliberately no global memoization: counts must reflect what a
from-scratch run would pay.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod

import numpy as np

from .errors import ArgumentError


class DistanceOracle(ABC):
    """Abstract pairwise-distance access over points 0..size-1."""

    def __init__(self, size: int):
        if size <= 0:
            raise ArgumentError("oracle size must be positive")
        self._size = int(size)
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

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self._size:
            raise ArgumentError(f"point index {i} out of range [0, {self._size})")

    def _check_indices(self, idx) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= self._size):
            raise ArgumentError("point index out of range")
        return idx

    @abstractmethod
    def _dist_impl(self, i: int, j: int) -> float: ...

    def _dist_many_impl(self, i: int, idx: np.ndarray) -> np.ndarray:
        return np.array([self._dist_impl(i, int(j)) for j in idx], dtype=np.float64)

    def _dist_block_impl(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        out = np.empty((rows.size, cols.size), dtype=np.float64)
        for k, i in enumerate(rows):
            out[k] = self._dist_many_impl(int(i), cols)
        return out

    def dist(self, i: int, j: int) -> float:
        """Distance between points i and j; costs exactly one query."""
        self._check_index(i)
        self._check_index(j)
        self._bump(1)
        return float(self._dist_impl(i, j))

    def dist_many(self, i: int, idx) -> np.ndarray:
        """Distances from i to each index in idx; costs len(idx) queries."""
        self._check_index(i)
        idx = self._check_indices(idx)
        self._bump(int(idx.size))
        return self._dist_many_impl(i, idx)

    def dist_block(self, rows, cols) -> np.ndarray:
        """len(rows) x len(cols) distances; costs len(rows) * len(cols) queries."""
        rows = self._check_indices(rows)
        cols = self._check_indices(cols)
        if rows.ndim != 1 or cols.ndim != 1:
            raise ArgumentError("block rows and columns must be one-dimensional")
        self._bump(int(rows.size) * int(cols.size))
        return self._dist_block_impl(rows, cols)

    def sweep(self, i: int) -> np.ndarray:
        """Distances from i to every point; costs size queries."""
        return self.dist_many(i, np.arange(self._size))


_SYMMETRY_TILE = 256


def _is_symmetric(m: np.ndarray) -> bool:
    # tile against mirrored tile, so the transposed reads stay in cache
    n = m.shape[0]
    b = _SYMMETRY_TILE
    for i in range(0, n, b):
        for j in range(i, n, b):
            if not np.array_equal(m[i : i + b, j : j + b], m[j : j + b, i : i + b].T):
                return False
    return True


def _triangle_violation(m: np.ndarray) -> float:
    """Largest d(i,j) - (d(i,k) + d(k,j)) over all (i, j, k), floored at 0.0.

    Precondition: m is symmetric, nonnegative and has a zero diagonal,
    which ``MatrixOracle.__init__`` checks first.  Under it one min-plus
    pass over the pairs j > i gives the same double as the maximum over
    every (i, j, k): m[k, j] == m[j, k] and float addition commutes, so
    row j of ``m[i + 1:] + m[i]`` holds every rounded d(i,k) + d(k,j);
    rounding is monotone, so fl(a - min s) == max fl(a - s); the pairs
    j < i mirror j > i, and j == i gives -2 d(i,k) <= 0, which the 0.0
    floor absorbs.  The largest temporary is (n-1) x n.
    """
    worst = 0.0
    n = m.shape[0]
    for i in range(n - 1):
        s = (m[i + 1 :] + m[i]).min(axis=1)
        worst = max(worst, float((m[i, i + 1 :] - s).max()))
    return worst


class MatrixOracle(DistanceOracle):
    """Oracle backed by an explicit n x n distance matrix.

    Validation requires a finite, nonnegative matrix with a zero
    diagonal that is symmetric, checked in that order.  The
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
            if not np.all(np.isfinite(matrix)):
                raise ArgumentError("distance matrix must be finite")
            if np.any(matrix < 0):
                raise ArgumentError("distances must be nonnegative")
            if np.any(np.diagonal(matrix) != 0):
                raise ArgumentError("distance matrix diagonal must be zero")
            if not _is_symmetric(matrix):
                raise ArgumentError("distance matrix must be symmetric")
            if validate == "full" or matrix.shape[0] <= self.AUTO_TRIANGLE_LIMIT:
                worst = _triangle_violation(matrix)
                if worst > self.TRIANGLE_TOL:
                    raise ArgumentError(
                        f"triangle inequality violated by {worst:.3e}"
                    )
        self.matrix = matrix.view()
        self.matrix.setflags(write=False)

    def _dist_impl(self, i: int, j: int) -> float:
        return self.matrix[i, j]

    def _dist_many_impl(self, i: int, idx: np.ndarray) -> np.ndarray:
        return self.matrix[i, idx].astype(np.float64, copy=True)

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

    def _dist_impl(self, i: int, j: int) -> float:
        return float(self._fn(i, j))


class PaddedOracle(DistanceOracle):
    """View of a base oracle extended to ``size`` points.

    Indices past the base size alias point 0; queries are charged to the
    base oracle's counter so instrumentation sees the true cost.
    """

    def __init__(self, base: DistanceOracle, size: int):
        if size < base.size:
            raise ArgumentError("padded size must be >= base size")
        super().__init__(size)
        self.base = base

    def _map(self, i: int) -> int:
        return i if i < self.base.size else 0

    def _map_many(self, idx: np.ndarray) -> np.ndarray:
        return np.where(idx < self.base.size, idx, 0)

    @property
    def query_count(self) -> int:
        return self.base.query_count

    def reset_query_count(self) -> None:
        self.base.reset_query_count()

    def dist(self, i: int, j: int) -> float:
        self._check_index(i)
        self._check_index(j)
        return self.base.dist(self._map(i), self._map(j))

    def dist_many(self, i: int, idx) -> np.ndarray:
        self._check_index(i)
        idx = self._check_indices(idx)
        return self.base.dist_many(self._map(i), self._map_many(idx))

    def dist_block(self, rows, cols) -> np.ndarray:
        rows = self._check_indices(rows)
        cols = self._check_indices(cols)
        return self.base.dist_block(self._map_many(rows), self._map_many(cols))

    def _dist_impl(self, i: int, j: int) -> float:  # pragma: no cover
        return self.base._dist_impl(self._map(i), self._map(j))
