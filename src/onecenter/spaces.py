"""Normed vector spaces the coordinate solvers run in.

A space supplies one batched primitive, ``norms``.  Distances from many
points to one center, and the gaps of consecutive point pairs, are the
norms of row differences: a batch longer than one block (``_BLOCK``
rows) is subtracted block by block, transposed, into one reused
(d, ``_BLOCK``) buffer, and each block handed to ``norms`` as a (k, d)
view, so no m x d difference is built.

``LpSpace`` sums each row's d terms (``|x|``, ``x*x`` or ``|x|**p``)
column by column over all rows at once, in one order for every input
layout (``_column_sum``): for d < 8 the columns in order; for
8 <= d <= 128 eight accumulators, r_j adding columns j, j + 8, ... up
to d - d mod 8, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then
the leftover columns in order; for d > 128 the first h columns and the
rest, each summed by this rule, then added, with h = floor(d/2) rounded
down to a multiple of 8.  That is numpy's pairwise row sum of a
C-ordered array, so the bits are those of ``(vs * vs).sum(axis=1)`` and
its kin on C-ordered rows.

For p in {1, 2, inf} a computed row value is within ``_allowance`` of
the exact norm of the exact difference, relative, plus 2^-500 absolute
(``LpSpace``); solvers may use that to decide a threshold test without
the row (``normed._ShiftedRow``).  Every other space states none.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional

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
    served by it.  A row's ``norms`` value must not depend on the other
    rows of the batch, nor on the batch's length or layout: solvers
    build a distance row from rows computed over parts of the points
    (``cover._BlockRows``, ``normed._inherited_row``) and rely on
    its bits being those of one ``distances`` call.
    """

    # relative rounding allowance of one computed distance row, or None
    # when the space states none (see LpSpace)
    _allowance = None

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

        Points of more than ``_BLOCK`` rows, in any layout, go to ``norms``
        in blocks of at most ``_BLOCK`` rows (``_diff_norms``), fewer as
        ``points - center`` in one call: ``norms`` sees every row once.
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
        return _diff_norms(self.norms, points, center)


# rows per ``norms`` call of ``_diff_norms``; batches of at most one
# block, the many small ones of the normed recursions, keep the single
# expression
_BLOCK = 4096


def _diff_norms(norms, a: np.ndarray, b: Optional[np.ndarray]) -> np.ndarray:
    """``norms(a - b)`` for (m, d) rows a and b, or a center b; ``norms(a)``
    when b is None.

    When m is more than one block, each block of ``a - b`` (or of a) is
    written, transposed, into one reused (d, ``_BLOCK``) buffer and
    handed to ``norms`` as a (k, d) view, which ``norms`` must neither
    keep nor write into.
    """
    m, d = a.shape
    if m <= _BLOCK:
        return norms(a if b is None else a - b)
    out = np.empty(m)
    buf = np.empty((d, _BLOCK))
    for lo in range(0, m, _BLOCK):
        k = min(_BLOCK, m - lo)
        diff = buf[:, :k]
        if b is None:
            np.copyto(diff, a[lo : lo + k].T)
        else:
            np.subtract(a[lo : lo + k].T, b[:, None] if b.ndim == 1 else b[lo : lo + k].T, out=diff)
        out[lo : lo + k] = norms(diff.T)
    return out


def _pair_gaps(space: NormedSpaceOps, points: np.ndarray) -> np.ndarray:
    """``space.norms(points[0::2] - points[1::2])`` for an even-length points."""
    return _diff_norms(space.norms, points[0::2], points[1::2])


class LpSpace(NormedSpaceOps):
    """R^d under the l_p norm, p in [1, inf].

    The column kernel is picked once, from p: the abs-sum for p = 1, the
    root of the sum of squares for p = 2 (``x*x`` is ``|x|*|x|``, so no
    abs pass), the abs-max for p = inf, and the power-sum root otherwise;
    each reads the (d, m) transpose of the rows and writes only its terms.
    A batch of more than ``_BLOCK`` rows is copied into the same
    transposed blocks as ``distances`` uses (``_diff_norms``).

    Rounding allowance, for p in {1, 2, inf}: a computed distance row
    value (the difference, then ``norms``) is within ``_allowance`` =
    4 (d + 4) eps of the exact norm of the exact difference, relative,
    plus 2^-500 absolute, whenever no term overflows (a finite value
    means none did).  With u = eps/2: each difference rounds by at most
    u relative (by nothing when it is subnormal), which moves an l_p
    norm by at most u relative; abs and max are exact; a sum of d
    nonnegative terms, in any order, rounds by at most (d - 1) u / (1 -
    (d - 1) u) relative; for p = 2 the squares round by u relative or,
    below 2^-511, by at most 2^-1075 absolute each, and the root halves
    the relative error of its argument and adds u, and turns d * 2^-1075
    into at most sqrt(d) 2^-537.  That is at most about (d + 3) u
    relative, within an eighth of the allowance.  General p states none.
    Subclasses inherit the allowance, as those that wrap ``norms`` with
    ``super().norms`` should; one that computes another norm must set
    ``self._allowance = None`` after ``super().__init__``.
    """

    def __init__(self, p: float, d: int):
        super().__init__(d)
        if not (p >= 1.0):
            raise ArgumentError(f"p must be >= 1, got {p}")
        self.p = float(p)
        self._cols = {1.0: _l1_cols, 2.0: _l2_cols, math.inf: _linf_cols}.get(self.p, self._lp_cols)
        if self.p in (1.0, 2.0, math.inf):
            self._allowance = 4.0 * (self.d + 4) * np.finfo(np.float64).eps

    def _lp_cols(self, vt: np.ndarray) -> np.ndarray:
        return _column_sum(np.abs(vt) ** self.p) ** (1.0 / self.p)

    def norms(self, vs: np.ndarray) -> np.ndarray:
        if type(vs) is not np.ndarray or vs.dtype is not _F64:
            vs = np.asarray(vs, dtype=np.float64)
        if vs.ndim != 2 or vs.shape[1] != self.d:
            raise ArgumentError(f"expected (m, {self.d}) rows, got shape {vs.shape}")
        if vs.shape[0] > _BLOCK:
            return _diff_norms(self._block_norms, vs, None)
        return self._cols(vs.T)

    def _block_norms(self, vs: np.ndarray) -> np.ndarray:
        return self._cols(vs.T)


def _l1_cols(vt: np.ndarray) -> np.ndarray:
    return _column_sum(np.abs(vt))


def _l2_cols(vt: np.ndarray) -> np.ndarray:
    return np.sqrt(_column_sum(vt * vt))


def _linf_cols(vt: np.ndarray) -> np.ndarray:
    return np.abs(vt).max(axis=0)


def _column_sum(t: np.ndarray) -> np.ndarray:
    """Sum of the rows of (d, m) nonnegative terms t, in the module
    docstring's order; t is overwritten."""
    d = t.shape[0]
    if d > 128:
        h = d // 2 - d // 2 % 8
        return _column_sum(t[:h]) + _column_sum(t[h:])
    if d < 8:  # 0 + t[0] is t[0]: no term is -0.0
        s, n8 = (t[0] + t[1] if d > 1 else t[0]), 2
    else:
        n8 = d - d % 8
        r = t[:8]
        for i in range(8, n8, 8):
            r += t[i : i + 8]
        r[0::2] += r[1::2]  # r0 + r1, r2 + r3, r4 + r5, r6 + r7
        r[0::4] += r[2::4]
        s = r[0] + r[4]
    for j in range(n8, d):
        s += t[j]
    return s


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
