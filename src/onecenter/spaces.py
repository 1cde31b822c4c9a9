"""Normed vector spaces the coordinate solvers run in."""

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
        """Distance from every row of points to center: one ``norms`` call."""
        if type(points) is not np.ndarray or points.dtype is not _F64:
            points = np.asarray(points, dtype=np.float64)
        if type(center) is not np.ndarray or center.dtype is not _F64:
            center = np.asarray(center, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.d or center.shape != (self.d,):
            raise ArgumentError(
                f"expected (m, {self.d}) points and a center of length {self.d}, "
                f"got {points.shape} and {center.shape}"
            )
        return self.norms(points - center)


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


# rows per step of ``_l2_rows``; batches of at most one block, the many
# small ones of the normed recursions, keep the single expression
_L2_BLOCK = 4096


def _l2_rows(vs: np.ndarray) -> np.ndarray:
    m = vs.shape[0]
    if m <= _L2_BLOCK or not vs.flags.c_contiguous:
        return np.sqrt((vs * vs).sum(axis=1))
    # the same squares and row sums, through one reused block buffer in
    # place of an m x d array of squares; a C-ordered buffer sums each
    # row as ``vs * vs`` of a C-ordered vs does, so the bits agree
    out = np.empty(m)
    buf = np.empty((_L2_BLOCK, vs.shape[1]))
    for lo in range(0, m, _L2_BLOCK):
        rows = vs[lo : lo + _L2_BLOCK]
        sq = np.multiply(rows, rows, out=buf[: rows.shape[0]])
        sq.sum(axis=1, out=out[lo : lo + rows.shape[0]])
    return np.sqrt(out, out=out)


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
