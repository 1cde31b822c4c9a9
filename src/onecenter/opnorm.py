"""Operator (spectral) norm tools and the sign-matrix median study.

The solver library treats R^(k*k) under the operator norm as just
another normed space, so the clustering routines need a deterministic
norm evaluator.  `operator_norm` is a power iteration on M^T M with an
all-ones start vector and a squared-sum Rayleigh quotient; on the
all-ones matrix J_k it returns exactly the float k, which the median
study below relies on.

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

from .errors import ArgumentError, ConvergenceError
from .spaces import NormedSpaceOps

_POWER_TOL = 1e-13
_POWER_MAX_ITER = 600
_STALL_BAND = 1e-9  # relative progress below this counts toward a stall
_STALL_ROUNDS = 50
_JACOBI_MAX_K = 8
THRESHOLD_FACTORS = (2.0, 2.1, 2.5)
REPORT_QUANTILES = (0.1, 0.5, 0.9)


def _as_square(M) -> np.ndarray:
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ArgumentError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ArgumentError("matrix entries must be finite")
    return A


def _jacobi_norm(A: np.ndarray, sweeps: int = 60, tol: float = 1e-14) -> float:
    """Largest singular value by one-sided Jacobi column orthogonalization."""
    B = A.copy()
    k = B.shape[0]
    for _ in range(sweeps):
        rotated = False
        for i in range(k - 1):
            for j in range(i + 1, k):
                a = float(B[:, i] @ B[:, i])
                b = float(B[:, j] @ B[:, j])
                c = float(B[:, i] @ B[:, j])
                if c == 0.0 or abs(c) <= tol * math.sqrt(a * b):
                    continue
                rotated = True
                zeta = (b - a) / (2.0 * c)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                cs = 1.0 / math.sqrt(1.0 + t * t)
                sn = cs * t
                bi = B[:, i].copy()
                B[:, i] = cs * bi - sn * B[:, j]
                B[:, j] = sn * bi + cs * B[:, j]
        if not rotated:
            break
    return float(np.sqrt(np.max(np.sum(B * B, axis=0))))


def _power_phase(A: np.ndarray, v: np.ndarray, max_iter: int, tol: float) -> tuple[float, bool]:
    """Power iteration from start v; returns (estimate, converged).

    The estimate is sqrt(|Av|^2 / |v|^2), which in exact arithmetic
    climbs monotonically toward the top singular value.  On convergence
    the previous round's estimate is returned; the two differ by at most
    tol relatively, and the older one is the one that is exact on
    all-ones matrices.  A phase aborts (converged=False) when the
    iterate lands in the kernel or when progress sits below the stall
    band for 50 consecutive rounds without reaching tol.
    """
    est_prev = -math.inf
    est = 0.0
    stalled = 0
    for _ in range(max_iter):
        Av = A @ v
        num = float(np.sum(Av * Av))
        den = float(np.sum(v * v))
        if den == 0.0:
            return est_prev if est_prev > 0.0 else 0.0, False
        est = math.sqrt(num / den)
        change = abs(est - est_prev)
        if change <= tol * max(1.0, abs(est)):
            return est_prev, True
        if change <= _STALL_BAND * max(1.0, abs(est)):
            stalled += 1
            if stalled >= _STALL_ROUNDS:
                return est, False
        else:
            stalled = 0
        est_prev = est
        w = A.T @ Av
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            # iterate fell into the kernel; est is only a lower bound
            return est, False
        v = w / nw
    return est, False


def operator_norm(M, tol: float = _POWER_TOL, max_iter: int = _POWER_MAX_ITER) -> float:
    """Largest singular value of a square matrix, deterministically.

    Power iteration on M^T M starting from the all-ones vector; when a
    phase stalls or dies in the kernel, the iteration restarts from
    deterministic perturbation patterns (a ramp, then a sign-alternating
    ramp).  The first converged phase wins; a later phase only replaces
    it if its value is larger by more than a relative 1e-9, which
    rescues starts that were orthogonal to the top singular vector
    without disturbing exact values.  On all-ones matrices the result is
    exactly k.  If no phase converges, matrices up to 8 x 8 fall back to
    one-sided Jacobi; larger ones raise ConvergenceError carrying the
    best estimate seen.
    """
    A = _as_square(M)
    k = A.shape[0]
    if not np.any(A):
        return 0.0
    ramp = 1.0 + np.arange(1, k + 1) / (3.0 * k)
    starts = (
        np.ones(k),
        ramp,
        np.where(np.arange(k) % 2 == 0, 1.0, -1.0) * ramp,
    )
    result = None
    best = 0.0
    for v in starts:
        est, ok = _power_phase(A, v, max_iter, tol)
        best = max(best, est)
        if ok:
            if result is None:
                result = est
            elif est > result * (1.0 + 1e-9):
                result = est
    if result is not None:
        return result
    if k <= _JACOBI_MAX_K:
        return _jacobi_norm(A)
    raise ConvergenceError(
        f"power iteration did not settle within {max_iter} iterations",
        best_estimate=best,
    )


def batched_norm_estimates(mats: np.ndarray, iters: int = 200) -> np.ndarray:
    """Power-iteration estimates for a stack of square matrices.

    Runs a fixed number of iterations from two deterministic starts per
    matrix and keeps the larger estimate.  Meant for ensemble statistics
    over thousands of matrices, not for certified single-matrix values;
    use operator_norm for those.
    """
    B = np.asarray(mats, dtype=np.float64)
    if B.ndim != 3 or B.shape[1] != B.shape[2]:
        raise ArgumentError(f"expected a stack of square matrices, got shape {B.shape}")
    m, k, _ = B.shape
    ramp = 1.0 + np.arange(1, k + 1) / (3.0 * k)
    alt = np.where(np.arange(k) % 2 == 0, 1.0, -1.0) * ramp
    out = np.zeros(m)
    for start in (np.ones(k), alt):
        v = np.broadcast_to(start, (m, k)).copy()
        for _ in range(iters):
            Av = np.einsum("mij,mj->mi", B, v)
            w = np.einsum("mji,mj->mi", B, Av)
            nw = np.linalg.norm(w, axis=1, keepdims=True)
            dead = nw[:, 0] == 0.0
            if np.any(dead):
                w[dead] = ramp
                nw[dead] = np.linalg.norm(ramp)
            v = w / nw
        Av = np.einsum("mij,mj->mi", B, v)
        num = np.sum(Av * Av, axis=1)
        den = np.sum(v * v, axis=1)
        out = np.maximum(out, np.sqrt(num / den))
    return out


class OperatorNormSpace(NormedSpaceOps):
    """R^(k*k) viewed as k x k matrices under the operator norm.

    Points are matrices flattened row-major.  Norm evaluations run a
    full power iteration each, so this space is for small instances and
    correctness tests rather than bulk workloads.
    """

    def __init__(self, k: int):
        if k <= 0:
            raise ArgumentError("matrix side k must be positive")
        super().__init__(k * k)
        self.k = int(k)

    def norm(self, v: np.ndarray) -> float:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.d,):
            raise ArgumentError(f"expected a flat vector of length {self.d}, got {v.shape}")
        return operator_norm(v.reshape(self.k, self.k))


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
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
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
    if k <= 0:
        raise ArgumentError("k must be positive")
    if mode not in ("sampled", "exhaustive"):
        raise ArgumentError(f"mode must be 'sampled' or 'exhaustive', got {mode!r}")
    if mode == "exhaustive":
        mats = _sign_matrices_exhaustive(k)
        median_mat = np.median(mats, axis=0)
        median_is_ones = bool(np.array_equal(median_mat, np.ones((k, k))))
    else:
        if samples < 100:
            raise ArgumentError("sampled mode needs at least 100 samples")
        mats = _sample_sign_matrices(k, samples, seed)
        median_mat = np.ones((k, k))
        median_is_ones = True
    norms = batched_norm_estimates(mats)
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
