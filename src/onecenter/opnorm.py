"""Operator (spectral) norm tools and the sign-matrix median study.

The solver library treats R^(k*k) under the operator norm as just
another normed space, so the clustering routines need a deterministic
norm evaluator.  `operator_norm` is LAPACK's scale-safe top singular
value or, when the all-ones vector is a top singular vector, the
Rayleigh quotient |A 1| / |1|, which is exactly the float k on the
all-ones matrix J_k, as the median study below relies on.

The median study: over the ensemble of k x k sign matrices (entries
+-1) with the all-minus-ones matrix removed, each entry equals +1 with
probability 2^(k^2-1) / (2^(k^2) - 1) > 1/2, so the entrywise median of
the ensemble is exactly J_k.  Members have operator norm around
2*sqrt(k), yet their entrywise median has norm k.  Taking entrywise
medians of matrix-valued data therefore lands far outside the
ensemble's own norm range, which is why the coordinate-median solver is
restricted to l_p norms and the general normed-space solvers never
aggregate coordinates independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, require_int
from .spaces import NormedSpaceOps

THRESHOLD_FACTORS = (2.0, 2.1, 2.5)
REPORT_QUANTILES = (0.1, 0.5, 0.9)


def operator_norm(M) -> float:
    """Largest singular value of a square matrix, scale-safe.

    LAPACK's SVD rescales out-of-range input, so no finite matrix
    overflows or underflows.  When the all-ones vector is a top singular
    vector (to a relative 1e-9), the Rayleigh quotient |A 1| / |1|, taken
    on A / max|A| and scaled back, is returned instead: it is exactly k
    on the all-ones matrix J_k and 1.0 on the identity.  This is the
    one-matrix call of the stacked kernel ``OperatorNormSpace.norms`` uses.
    """
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ArgumentError(f"expected a square matrix, got shape {A.shape}")
    return float(_operator_norms(A[None])[0])


def _operator_norms(A: np.ndarray) -> np.ndarray:
    """``operator_norm`` of each matrix in an (m, k, k) stack, in one SVD call.

    Zero matrices, and 0 x 0 ones, give 0.0; a non-finite entry is an
    ArgumentError.
    """
    if not np.all(np.isfinite(A)):
        raise ArgumentError("matrix entries must be finite")
    out = np.zeros(A.shape[0])
    nonzero = np.flatnonzero(A.any(axis=(1, 2)))
    if nonzero.size:
        A = A[nonzero]
        top = np.linalg.svd(A, compute_uv=False)[:, 0]
        scale = np.abs(A).max(axis=(1, 2))
        row_sums = (A / scale[:, None, None]).sum(axis=2)
        quotient = np.sqrt((row_sums * row_sums).sum(axis=1) / A.shape[1]) * scale
        out[nonzero] = np.where(quotient >= top * (1.0 - 1e-9), quotient, top)
    return out


class OperatorNormSpace(NormedSpaceOps):
    """R^(k*k) viewed as k x k matrices under the operator norm.

    Points are matrices flattened row-major.  ``norms`` takes one stacked
    SVD per batch, so each row still costs an SVD of a k x k matrix.
    """

    def __init__(self, k: int):
        self.k = require_int("matrix side k", k, 1)
        super().__init__(self.k * self.k)

    def norms(self, vs: np.ndarray) -> np.ndarray:
        vs = np.asarray(vs, dtype=np.float64)
        if vs.ndim != 2 or vs.shape[1] != self.d:
            raise ArgumentError(f"expected (m, {self.d}) rows, got shape {vs.shape}")
        return _operator_norms(vs.reshape(-1, self.k, self.k))


def _sign_matrices_exhaustive(k: int) -> np.ndarray:
    """All k x k sign matrices except all-minus-ones, as a stack.

    Matrix number t has entry +1 where bit (i*k + j) of t is set, so t=0
    (excluded) is all-minus-ones and t = 2^(k*k) - 1 is all-ones.
    """
    cells = k * k
    if cells > 16:
        raise ArgumentError("exhaustive enumeration is limited to k*k <= 16")
    count = (1 << cells) - 1
    t = np.arange(1, count + 1, dtype=np.uint32)
    bits = (t[:, None] >> np.arange(cells, dtype=np.uint32)[None, :]) & 1
    return (2.0 * bits - 1.0).reshape(count, k, k)


def _sample_sign_matrices(k: int, samples: int, seed: int) -> np.ndarray:
    """Uniform draws from the same ensemble (all-minus-ones excluded)."""
    rng = np.random.default_rng(require_int("seed", seed, 0))
    mats = np.where(rng.integers(0, 2, size=(samples, k, k)) == 1, 1.0, -1.0)
    while True:
        bad = np.flatnonzero(np.all(mats == -1.0, axis=(1, 2)))
        if bad.size == 0:
            return mats
        mats[bad] = np.where(rng.integers(0, 2, size=(bad.size, k, k)) == 1, 1.0, -1.0)


@dataclass(frozen=True)
class MedianNormReport:
    """Summary of the sign-matrix median study for one k.

    member_quantiles pairs each quantile level with the empirical value
    over member norms; threshold_fractions pairs each factor c with the
    fraction of members whose norm is at most c * sqrt(k).
    """

    k: int
    mode: str
    count: int
    median_is_all_ones: bool
    median_matrix_norm: float
    member_quantiles: tuple[tuple[float, float], ...]
    threshold_fractions: tuple[tuple[float, float], ...]
    member_max: float
    ratio_median_to_q90: float


def median_counterexample_report(
    k: int,
    mode: str = "sampled",
    samples: int = 10_000,
    seed: int = 0,
) -> MedianNormReport:
    """Compare the ensemble's entrywise-median matrix with its members.

    mode "exhaustive" (k*k <= 16) enumerates the whole ensemble and
    computes the entrywise median matrix directly, with no tolerance.
    mode "sampled" draws `samples` members for the norm statistics; the
    median matrix itself is the ensemble's exact entrywise median J_k (a
    sample median would be decided by coin-flip ties at these sizes,
    which is the point of the study, not a property of the sample).

    The ratio field divides the median matrix's norm by the members'
    90th percentile; it grows like sqrt(k), the gap the study exists to
    demonstrate.
    """
    k = require_int("k", k, 1)
    if mode not in ("sampled", "exhaustive"):
        raise ArgumentError(f"mode must be 'sampled' or 'exhaustive', got {mode!r}")
    if mode == "exhaustive":
        mats = _sign_matrices_exhaustive(k)
        median_mat = np.median(mats, axis=0)
        median_is_ones = bool(np.array_equal(median_mat, np.ones((k, k))))
    else:
        mats = _sample_sign_matrices(k, require_int("samples in sampled mode", samples, 100), seed)
        median_mat = np.ones((k, k))
        median_is_ones = True
    norms = _operator_norms(mats)
    median_norm = operator_norm(median_mat)
    root_k = math.sqrt(k)
    quantiles = tuple((q, float(np.quantile(norms, q))) for q in REPORT_QUANTILES)
    fractions = tuple((c, float(np.mean(norms <= c * root_k))) for c in THRESHOLD_FACTORS)
    q90 = quantiles[-1][1]
    return MedianNormReport(
        k=k,
        mode=mode,
        count=int(mats.shape[0]),
        median_is_all_ones=median_is_ones,
        median_matrix_norm=float(median_norm),
        member_quantiles=quantiles,
        threshold_fractions=fractions,
        member_max=float(np.max(norms)),
        ratio_median_to_q90=float(median_norm / q90),
    )
