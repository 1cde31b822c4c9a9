"""Spectral norm routine and the sign-matrix median demonstration."""

import math

import numpy as np
import pytest

from onecenter import (
    ArgumentError,
    OperatorNormSpace,
    WeightedPointSet,
    cluster_any_alpha,
    cluster_halfplus,
    median_counterexample_report,
    operator_norm,
    validate_norm_axioms,
    verify_ball,
)
from onecenter.opnorm import _sign_matrices_exhaustive


def test_identity_norm_is_one():
    for k in (1, 2, 5, 9):
        assert operator_norm(np.eye(k)) == 1.0


def test_all_ones_norm_is_exactly_k():
    for k in (2, 3, 8, 32, 100):
        assert operator_norm(np.ones((k, k))) == float(k)


def test_zero_matrix():
    assert operator_norm(np.zeros((4, 4))) == 0.0


def test_matches_svd_oracle_on_random_5x5():
    rng = np.random.default_rng(123)
    mats = [rng.normal(size=(5, 5)) * rng.uniform(0.1, 10.0) for _ in range(40)]
    # squared entries leave the double range at these scales
    mats += [rng.normal(size=(5, 5)) * 2.0**e for e in (-1000, -600, -170, 170, 600, 1000)]
    mats += [np.full((5, 5), 2.0**e) for e in (-1000, 1000)]
    for M in mats:
        got = operator_norm(M)
        want = float(np.linalg.svd(M, compute_uv=False)[0])
        assert got == pytest.approx(want, rel=1e-9)


def test_scaling_homogeneity():
    rng = np.random.default_rng(7)
    M = rng.normal(size=(6, 6))
    base = operator_norm(M)
    for c in (-3.0, 0.25, 100.0):
        assert operator_norm(c * M) == pytest.approx(abs(c) * base, rel=1e-9)


def test_norm_at_most_k_times_max_entry():
    rng = np.random.default_rng(8)
    for _ in range(20):
        k = int(rng.integers(2, 12))
        M = rng.normal(size=(k, k)) * 5.0
        assert operator_norm(M) <= k * float(np.abs(M).max()) * (1.0 + 1e-9)


def test_small_stiff_matrices_use_exact_fallback():
    # a relative eigengap of 1e-5 makes iterative estimates stall; the
    # value must be exact on both sides of k = 8
    for k in (8, 9):
        M = np.diag(np.full(k, 1.0 - 5e-6))
        M[0, 0] = 1.0
        assert operator_norm(M) == pytest.approx(1.0, rel=1e-9)


def test_rejects_non_square():
    with pytest.raises(ArgumentError):
        operator_norm(np.zeros((2, 3)))
    with pytest.raises(ArgumentError):
        operator_norm(np.array([1.0, 2.0]))


def test_exhaustive_ensemble_counts():
    assert _sign_matrices_exhaustive(2).shape == (15, 2, 2)
    assert _sign_matrices_exhaustive(3).shape == (511, 3, 3)
    # the all-minus-ones matrix is the excluded element
    for mats in (_sign_matrices_exhaustive(2), _sign_matrices_exhaustive(3)):
        assert not np.any(np.all(mats == -1.0, axis=(1, 2)))
        assert np.all(np.abs(mats) == 1.0)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_exhaustive_median_is_all_ones_exactly(k):
    report = median_counterexample_report(k, mode="exhaustive")
    assert report.count == 2 ** (k * k) - 1
    assert report.median_is_all_ones
    assert report.median_matrix_norm == float(k)


def test_k3_report_pins_the_ratio_of_one_to_member_max():
    report = median_counterexample_report(3, mode="exhaustive")
    # the all-ones member attains the ensemble maximum, so the median
    # output is exactly as bad as the worst member; member statistics
    # come from a stacked SVD, hence the tolerance here
    assert report.member_max == pytest.approx(3.0, rel=1e-9)
    assert report.median_matrix_norm / report.member_max == pytest.approx(1.0, rel=1e-9)


def test_k32_sampled_report():
    report = median_counterexample_report(32, mode="sampled", samples=2000, seed=0)
    assert report.median_matrix_norm == 32.0
    fractions = dict(report.threshold_fractions)
    assert fractions[2.5] >= 0.9
    assert report.ratio_median_to_q90 >= math.sqrt(32.0) / 2.5 - 1e-9


def test_ratio_grows_with_k():
    ratios = []
    for k in (8, 16, 32):
        report = median_counterexample_report(k, mode="sampled", samples=1500, seed=3)
        ratios.append(report.ratio_median_to_q90)
    assert ratios[0] <= ratios[1] <= ratios[2]


def test_report_validation():
    with pytest.raises(ArgumentError):
        median_counterexample_report(0, mode="exhaustive")
    with pytest.raises(ArgumentError):
        median_counterexample_report(5, mode="exhaustive")  # 2^25 is too many
    with pytest.raises(ArgumentError):
        median_counterexample_report(8, mode="sampled", samples=10)
    with pytest.raises(ArgumentError):
        median_counterexample_report(8, mode="guess")


def test_operator_norm_space_satisfies_axioms():
    rng = np.random.default_rng(5)
    space = OperatorNormSpace(4)
    assert space.d == 16
    samples = rng.normal(size=(30, 16))
    validate_norm_axioms(space, samples)
    # the flat vector norm matches the matrix operator norm
    v = rng.normal(size=16)
    assert space.norm(v) == pytest.approx(operator_norm(v.reshape(4, 4)), rel=1e-9)


def _planted_matrices():
    """60 flat 3x3 matrices: 45 within 0.95 of a center, 15 about 200 out."""
    rng = np.random.default_rng(11)
    center = rng.normal(size=(3, 3))
    points = []
    for i in range(60):
        E = rng.normal(size=(3, 3))
        length = rng.uniform(0.0, 0.95) if i < 45 else rng.uniform(195.0, 205.0)
        points.append(center + length * E / np.linalg.norm(E, 2))
    return np.array([M.ravel() for M in points])


@pytest.mark.parametrize("scale", [1.0, 2.0**-600, 2.0**600], ids=["1", "2^-600", "2^600"])
@pytest.mark.parametrize("solver, alpha", [(cluster_halfplus, 0.75), (cluster_any_alpha, 0.7)])
def test_solvers_cover_the_inliers_on_the_operator_norm_space(solver, alpha, scale):
    # scaling by a power of two is exact, so every scale poses the same
    # instance; at 2^-600 and 2^600 squared entries leave the double range
    space = OperatorNormSpace(3)
    ps = WeightedPointSet.from_coords(_planted_matrices() * scale)
    ball = solver(ps, space, alpha, scale)
    assert ball is not None
    ok, covered = verify_ball(ps, space, ball.center, ball.radius, alpha)
    assert ok
    assert covered == 45.0


def _per_row_operator_norm(A):
    """``operator_norm`` as it was computed one matrix at a time."""
    A = np.asarray(A, dtype=np.float64)
    if not np.any(A):
        return 0.0
    top = float(np.linalg.svd(A, compute_uv=False)[0])
    scale = float(np.max(np.abs(A)))
    row_sums = (A / scale).sum(axis=1)
    quotient = math.sqrt(float(np.sum(row_sums * row_sums)) / A.shape[0]) * scale
    return quotient if quotient >= top * (1.0 - 1e-9) else top


@pytest.mark.parametrize("k", [1, 2, 3, 5, 9])
def test_stacked_norms_equal_the_per_row_formula_bit_for_bit(k):
    rng = np.random.default_rng(k)
    m = 300
    families = [
        rng.normal(size=(m, k * k)),
        np.where(rng.random((m, k * k)) < 0.5, 1.0, -1.0),
        np.ones((m, k * k)) * rng.normal(size=(m, 1)),
        np.zeros((m, k * k)),
    ]
    families += [f * 2.0**e for e in (-600, 600) for f in families[:3]]
    mixed = np.vstack(families)
    rng.shuffle(mixed)
    space = OperatorNormSpace(k)
    for X in families + [mixed]:
        want = [_per_row_operator_norm(row.reshape(k, k)).hex() for row in X]
        assert [float(x).hex() for x in space.norms(X)] == want
        assert [operator_norm(row.reshape(k, k)).hex() for row in X[:20]] == want[:20]


def test_operator_norms_edge_batches():
    space = OperatorNormSpace(3)
    empty = space.norms(np.zeros((0, 9)))
    assert empty.shape == (0,) and empty.dtype == np.float64
    assert space.norms(np.zeros((2, 9))).tolist() == [0.0, 0.0]
    bad = np.ones((3, 9))
    bad[1, 4] = np.nan
    with pytest.raises(ArgumentError, match="finite"):
        space.norms(bad)
    with pytest.raises(ArgumentError, match="finite"):
        operator_norm([[1.0, math.inf], [0.0, 1.0]])
    with pytest.raises(ArgumentError):
        space.norms(np.ones((2, 8)))
    assert operator_norm(np.zeros((0, 0))) == 0.0


def test_k2_study_measures_members_with_operator_norm():
    # the +-1 matrices with singular values (sqrt 2, sqrt 2) take the
    # Rayleigh quotient, which rounds to fl(sqrt 2) exactly
    report = median_counterexample_report(2, mode="exhaustive")
    assert dict(report.member_quantiles)[0.1] == math.sqrt(2.0)
    assert dict(report.member_quantiles)[0.5] == math.sqrt(2.0)
    members = _sign_matrices_exhaustive(2)
    assert report.member_max == max(operator_norm(M) for M in members)
