"""Normed vector spaces the coordinate solvers run in.

A space supplies one batched primitive, ``norms``.  Distances from many
points to one center, and the gaps of consecutive point pairs, are the
norms of row differences: a C-ordered batch longer than one block
(``_BLOCK`` rows) is subtracted block by block into one reused buffer
and each block handed to ``norms``, so no m x d difference is built.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .errors import ArgumentError, require_int

# arrays whose dtype is this object are used as given; anything else,
# another float64 dtype object included, goes through ``np.asarray``
_F64 = np.dtype(np.float64)


class NormedSpaceOps(ABC):
    """Norm plus the linear operations solvers need.

    Addition, subtraction, and scaling are plain numpy arithmetic;
    subclasses supply the norm as one batched primitive, ``norms`` (the
    row-wise norm of an (m, d) array).  ``norm`` and ``distances`` are
    served by it.
    """

    def __init__(self, d: int):
        self.d = require_int("dimension", d, 1)

    @abstractmethod
    def norms(self, vs: np.ndarray) -> np.ndarray: ...

    def norm(self, v: np.ndarray) -> float:
        """Norm of one vector: the one-row ``norms`` call."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.d,):
            raise ArgumentError(f"expected a vector of length {self.d}, got shape {v.shape}")
        return float(self.norms(v[None, :])[0])

    def distances(self, points: np.ndarray, center: np.ndarray) -> np.ndarray:
        """Distance from every row of points to center, through ``norms``.

        A C-contiguous points of more than ``_BLOCK`` rows is handed to
        ``norms`` in blocks of at most ``_BLOCK`` rows (``_diff_norms``);
        any other points, ``points - center`` in one call.  Either way
        ``norms`` sees every row once.
        """
        if type(points) is not np.ndarray or points.dtype is not _F64:
            points = np.asarray(points, dtype=np.float64)
        if type(center) is not np.ndarray or center.dtype is not _F64:
            center = np.asarray(center, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.d or center.shape != (self.d,):
            raise ArgumentError(
                f"expected (m, {self.d}) points and a center of length {self.d}, "
                f"got {points.shape} and {center.shape}"
            )
        return _diff_norms(self.norms, points, center, points.flags.c_contiguous)


# rows per ``norms`` call of ``_diff_norms``; batches of at most one
# block, the many small ones of the normed recursions, keep the single
# expression
_BLOCK = 4096


def _diff_norms(norms, a: np.ndarray, b: np.ndarray, c_ordered: bool) -> np.ndarray:
    """``norms(a - b)`` for (m, d) rows a and b, or a center b.

    When ``a - b`` comes out C-ordered (``c_ordered``) and m is more than
    one block, each block of it is written into one reused C-ordered
    buffer and handed to ``norms``, which must not keep it.  A row
    reduces the same way in a C-ordered block as in a C-ordered m x d
    array, so the bits agree with the single call.
    """
    m = a.shape[0]
    if m <= _BLOCK or not c_ordered:
        return norms(a - b)
    out = np.empty(m)
    buf = np.empty((_BLOCK, a.shape[1]))
    for lo in range(0, m, _BLOCK):
        rows = a[lo : lo + _BLOCK]
        diff = buf[: rows.shape[0]]
        np.subtract(rows, b if b.ndim == 1 else b[lo : lo + _BLOCK], out=diff)
        out[lo : lo + rows.shape[0]] = norms(diff)
    return out


def _pair_gaps(space: NormedSpaceOps, points: np.ndarray) -> np.ndarray:
    """``space.norms(points[0::2] - points[1::2])`` for an even-length
    points, block by block when points is C-contiguous."""
    return _diff_norms(space.norms, points[0::2], points[1::2], points.flags.c_contiguous)


class LpSpace(NormedSpaceOps):
    """R^d under the l_p norm, p in [1, inf].

    The row kernel is picked once, from p: the abs-sum for p = 1, the
    root of the sum of squares for p = 2 (``x*x`` is ``|x|*|x|``, so no
    abs pass), the abs-max for p = inf, and the power-sum root otherwise.
    """

    def __init__(self, p: float, d: int):
        super().__init__(d)
        if not (p >= 1.0):
            raise ArgumentError(f"p must be >= 1, got {p}")
        self.p = float(p)
        if math.isinf(self.p):
            self._rows = _linf_rows
        elif self.p == 1.0:
            self._rows = _l1_rows
        elif self.p == 2.0:
            self._rows = _l2_rows
        else:
            self._rows = self._lp_rows

    def _lp_rows(self, vs: np.ndarray) -> np.ndarray:
        return (np.abs(vs) ** self.p).sum(axis=1) ** (1.0 / self.p)

    def norms(self, vs: np.ndarray) -> np.ndarray:
        if type(vs) is not np.ndarray or vs.dtype is not _F64:
            vs = np.asarray(vs, dtype=np.float64)
        if vs.ndim != 2 or vs.shape[1] != self.d:
            raise ArgumentError(f"expected (m, {self.d}) rows, got shape {vs.shape}")
        return self._rows(vs)


def _l1_rows(vs: np.ndarray) -> np.ndarray:
    return np.abs(vs).sum(axis=1)


def _l2_rows(vs: np.ndarray) -> np.ndarray:
    return np.sqrt((vs * vs).sum(axis=1))


def _linf_rows(vs: np.ndarray) -> np.ndarray:
    return np.abs(vs).max(axis=1)


def validate_norm_axioms(ops: NormedSpaceOps, samples: np.ndarray, tol: float = 1e-9) -> None:
    """Spot-check norm axioms on sample vectors; raises on violation.

    Checks norm(0) = 0, absolute homogeneity, and the triangle
    inequality over consecutive sample pairs, all at tolerance tol.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] != ops.d:
        raise ArgumentError("samples must be (m, d)")
    zero = np.zeros(ops.d)
    if abs(ops.norm(zero)) > tol:
        raise ArgumentError("norm of the zero vector is not zero")
    norms = ops.norms(samples)
    if np.any(norms < -tol):
        raise ArgumentError("negative norm")
    for c in (-2.0, 0.5, 3.0):
        scaled = ops.norms(c * samples)
        if np.any(np.abs(scaled - abs(c) * norms) > tol * np.maximum(1.0, norms)):
            raise ArgumentError("norm is not absolutely homogeneous")
    a, b = samples[:-1], samples[1:]
    lhs = ops.norms(a + b)
    rhs = ops.norms(a) + ops.norms(b)
    if np.any(lhs > rhs + tol * np.maximum(1.0, rhs)):
        raise ArgumentError("triangle inequality violated")
