"""Ground-truth machinery: brute force, verification, baseline, generators."""

import math

import numpy as np
import pytest
from scipy import stats

from onecenter import (
    ArgumentError,
    LpSpace,
    MatrixOracle,
    WeightedPointSet,
    any_alpha_solver,
    ball_cover,
    below_half_cover,
    brute_force_best,
    bucket_reduce,
    centroid_refine,
    cluster_any_alpha,
    cluster_halfplus,
    cluster_logtower,
    covered_weight,
    gap_constant,
    generate_planted,
    las_vegas_baseline,
    pair_reduce,
    verify_ball,
)

from conftest import random_metric_matrix

L2_2 = LpSpace(2.0, 2)


def test_brute_force_identical_points():
    ps = WeightedPointSet.from_coords(np.tile([4.0, 5.0], (6, 1)))
    ball = brute_force_best(ps, L2_2, 0.8)
    assert ball.radius == 0.0
    assert ball.center_index == 0


def test_brute_force_collinear_example():
    coords = np.array([[0.0], [1.0], [5.0]])
    ps = WeightedPointSet.from_coords(coords)
    ball = brute_force_best(ps, LpSpace(2.0, 1), 2.0 / 3.0)
    assert ball.center_index == 0
    assert ball.radius == 1.0
    assert np.array_equal(ball.center, [0.0])


def test_brute_force_two_approximation_on_planted():
    for seed in range(5):
        inst = generate_planted("lp", n=150, d=3, alpha=0.6, r=2.0, seed=seed)
        ball = brute_force_best(inst.ps, inst.space_ops(), 0.6)
        assert ball.radius <= 2.0 * inst.r + 1e-9


def test_brute_force_permutation_covariant():
    rng = np.random.default_rng(3)
    coords = rng.normal(size=(40, 3))
    ps = WeightedPointSet.from_coords(coords)
    space = LpSpace(2.0, 3)
    base = brute_force_best(ps, space, 0.5)
    perm = rng.permutation(40)
    permuted = brute_force_best(WeightedPointSet.from_coords(coords[perm]), space, 0.5)
    assert np.array_equal(np.asarray(permuted.center), coords[perm][permuted.center_index])
    assert np.allclose(coords[base.center_index], coords[perm][permuted.center_index])
    assert permuted.radius == base.radius


def test_brute_force_oracle_counts_n_squared_queries():
    n = 30
    oracle = MatrixOracle(random_metric_matrix(np.random.default_rng(1), n))
    ball = brute_force_best(WeightedPointSet.indexed(n), oracle, 0.6)
    assert oracle.query_count == n * n + n  # candidate sweeps plus the final recount
    assert verify_ball(WeightedPointSet.indexed(n), oracle, ball.center_index, ball.radius, 0.6)[0]


def test_verify_ball_on_planted_ground_truth():
    inst = generate_planted("lp", n=120, d=4, alpha=0.7, r=1.5, seed=4)
    ok, covered = verify_ball(inst.ps, inst.space_ops(), inst.centers[0], inst.r, 0.7)
    assert ok
    assert covered >= 0.7 * inst.ps.total_weight


def test_verify_ball_rejects_zero_radius_at_zero_weight_point():
    ps = WeightedPointSet.from_coords([[0.0, 0.0], [50.0, 0.0]], [0.0, 1.0])
    ok, covered = verify_ball(ps, L2_2, np.array([0.0, 0.0]), 0.0, 0.5)
    assert not ok
    assert covered == 0.0


def test_verify_ball_tolerance_is_relative():
    ps = WeightedPointSet.from_coords([[0.0, 0.0], [10.0, 0.0]], [1.0, 1.0])
    # exactly at the threshold passes, slightly under the slack passes,
    # anything further below fails
    assert verify_ball(ps, L2_2, np.array([0.0, 0.0]), 0.0, 0.5)[0]
    assert verify_ball(ps, L2_2, np.array([0.0, 0.0]), 0.0, 0.5 + 1e-14)[0]
    assert not verify_ball(ps, L2_2, np.array([0.0, 0.0]), 0.0, 0.6)[0]
    with pytest.raises(ArgumentError):
        verify_ball(ps, L2_2, np.array([0.0, 0.0]), -1.0, 0.5)
    with pytest.raises(ArgumentError):
        verify_ball(ps, L2_2, np.array([0.0, 0.0]), 1.0, 1.5)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
def test_verify_ball_rejects_non_finite_radius(radius):
    ps = WeightedPointSet.from_coords([[0.0, 0.0], [10.0, 0.0]], [1.0, 1.0])
    with pytest.raises(ArgumentError, match="radius"):
        verify_ball(ps, L2_2, np.array([0.0, 0.0]), radius, 0.5)
    with pytest.raises(ArgumentError, match="radius"):
        verify_ball(WeightedPointSet.indexed(2), MatrixOracle([[0.0, 1.0], [1.0, 0.0]]), 0, radius, 0.5)


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -1e-12])
def test_verify_ball_rejects_non_finite_or_negative_tolerance(rel_tol):
    ps = WeightedPointSet.from_coords([[0.0, 0.0], [10.0, 0.0]], [1.0, 1.0])
    with pytest.raises(ArgumentError, match="rel_tol"):
        verify_ball(ps, L2_2, np.array([0.0, 0.0]), 1.0, 0.5, rel_tol=rel_tol)


# every library entry point that takes the assumed inlier radius r
RADIUS_CALLS = {
    "cluster_halfplus": lambda ps, r: cluster_halfplus(ps, L2_2, 0.75, r),
    "pair_reduce": lambda ps, r: pair_reduce(ps, L2_2, r),
    "centroid_refine": lambda ps, r: centroid_refine(ps, L2_2, ps.coords[0], 10.0, r, 0.75),
    "ball_cover": lambda ps, r: ball_cover(any_alpha_solver(L2_2, 0.4).solve, ps, L2_2, 0.4, 0.4, 1.0, r),
    "below_half_cover": lambda ps, r: below_half_cover(ps, L2_2, 0.4, r),
    "cluster_any_alpha": lambda ps, r: cluster_any_alpha(ps, L2_2, 0.4, r),
    "bucket_reduce": lambda ps, r: bucket_reduce(ps, L2_2, 0.4, r, lambda m: m, any_alpha_solver(L2_2, 0.4)),
    "cluster_logtower": lambda ps, r: cluster_logtower(ps, L2_2, 0.4, 1, r),
    "las_vegas_baseline": lambda ps, r: las_vegas_baseline(ps, L2_2, 0.75, r, seed=0),
}


@pytest.mark.parametrize("r", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(RADIUS_CALLS))
def test_solvers_reject_non_finite_or_non_positive_radius(name, r):
    ps = generate_planted("lp", n=16, d=2, alpha=0.75, seed=5).ps
    with pytest.raises(ArgumentError, match="r must be finite and positive"):
        RADIUS_CALLS[name](ps, r)


@pytest.mark.parametrize("bad", [{"r": math.nan}, {"r": math.inf}, {"separation": math.nan}, {"separation": math.inf}])
def test_generate_planted_rejects_non_finite_scales(bad):
    with pytest.raises(ArgumentError):
        generate_planted("lp", n=16, d=2, alpha=0.75, **bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_verify_ball_rejects_non_finite_center(bad):
    ps = WeightedPointSet.from_coords([[0.0, 0.0], [10.0, 0.0]], [1.0, 1.0])
    with pytest.raises(ArgumentError, match="center"):
        verify_ball(ps, L2_2, np.array([bad, 0.0]), 1.0, 0.5)
    with pytest.raises(ArgumentError, match="center"):
        verify_ball(ps, L2_2, [0.0, bad], 1.0, 0.5)


def test_las_vegas_identical_points_first_try():
    ps = WeightedPointSet.from_coords(np.tile([1.0, 1.0], (5, 1)))
    ball, attempts = las_vegas_baseline(ps, L2_2, alpha=0.9, r=1.0, seed=0)
    assert attempts == 1
    assert ball is not None
    assert ball.radius == 2.0


def test_las_vegas_mean_attempts_near_inverse_alpha():
    inst = generate_planted("lp", n=200, d=3, alpha=0.5, r=1.0, seed=6)
    space = inst.space_ops()
    attempts = []
    for seed in range(1000):
        ball, k = las_vegas_baseline(inst.ps, space, 0.5, inst.r, seed=seed)
        assert ball is not None
        attempts.append(k)
    mean = float(np.mean(attempts))
    assert 1.0 <= mean <= 4.0  # Chernoff slack around 1/alpha = 2


def test_las_vegas_draws_weight_proportionally():
    # uniform weights: drawn first-attempt indexes should be uniform
    ps = WeightedPointSet.from_coords(np.zeros((8, 2)))
    counts = np.zeros(8)
    for seed in range(4000):
        ball, attempts = las_vegas_baseline(ps, L2_2, 0.5, 1.0, seed=seed)
        assert attempts == 1  # identical points: first draw always verifies
        counts[ball.center_index] += 1
    chi2 = stats.chisquare(counts)
    assert chi2.pvalue > 1e-4


def test_las_vegas_attempt_cap_reports_failure():
    rng = np.random.default_rng(5)
    ps = WeightedPointSet.from_coords(rng.uniform(-100, 100, size=(30, 2)))
    ball, attempts = las_vegas_baseline(ps, L2_2, 0.9, 1e-9, seed=1, max_attempts=25)
    assert ball is None
    assert attempts == 25


def test_generator_determinism_and_ground_truth():
    a = generate_planted("lp", n=100, d=3, alpha=0.6, r=1.0, seed=77)
    b = generate_planted("lp", n=100, d=3, alpha=0.6, r=1.0, seed=77)
    assert np.array_equal(a.ps.coords, b.ps.coords)
    assert np.array_equal(a.ps.weights, b.ps.weights)
    assert np.array_equal(a.inlier_mask, b.inlier_mask)
    c = generate_planted("lp", n=100, d=3, alpha=0.6, r=1.0, seed=78)
    assert not np.array_equal(a.ps.coords, c.ps.coords)


def test_generator_alpha_one_puts_everything_inside():
    inst = generate_planted("lp", n=50, d=2, alpha=1.0, r=1.0, seed=0, outlier_frac=0.0)
    dists = inst.space_ops().distances(inst.ps.coords, inst.centers[0])
    assert np.all(dists <= inst.r)


def test_generator_two_cluster_weights():
    inst = generate_planted("lp", n=180, d=3, alpha=0.4, r=1.0, seed=9, mode="two")
    w = inst.ps.total_weight
    assert len(inst.centers) == 2
    assert len(inst.cluster_weights) == 2
    space = inst.space_ops()
    for q, cw in zip(inst.centers, inst.cluster_weights):
        assert cw >= 0.4 * w - 1e-12 * w
        got = covered_weight(inst.ps, space, q, inst.r)
        assert got >= cw - 1e-12 * w


def test_generator_gap_mode_clearance():
    alpha = 0.35
    inst = generate_planted("lp", n=140, d=3, alpha=alpha, r=1.0, seed=10, mode="gap")
    space = inst.space_ops()
    outer = (2.0 * gap_constant(alpha) + 3.0) * inst.r
    dists = space.distances(inst.ps.coords, inst.centers[0])
    shell = (dists > inst.r) & (dists <= outer)
    in_ball = dists <= inst.r
    w = inst.ps.weights
    # the gap condition the below-half solver relies on
    assert float(w[in_ball].sum()) >= float(w[shell].sum()) + alpha * inst.ps.total_weight - 1e-9


def test_generator_center_indexes_point_at_exact_centers():
    inst = generate_planted("lp", n=90, d=4, alpha=0.55, r=1.0, seed=12, mode="single")
    assert np.array_equal(inst.ps.coords[inst.center_indexes[0]], inst.centers[0])
    minst = generate_planted("metric", n=64, d=3, alpha=0.6, r=1.0, seed=13)
    row = minst.matrix[minst.center_indexes[0]]
    inliers = minst.inlier_mask
    assert np.all(row[inliers] <= minst.r * (1.0 + 1e-12))


def test_generator_metric_matrix_is_valid():
    inst = generate_planted("metric", n=120, d=3, alpha=0.6, r=1.0, seed=14)
    MatrixOracle(inst.matrix, validate="full")  # raises on any violation
    assert inst.ps.coords is None


def test_generator_dyadic_weights_are_dyadic():
    inst = generate_planted("lp", n=77, d=2, alpha=0.6, r=1.0, seed=15, weights="dyadic")
    scaled = inst.ps.weights * 1024.0
    assert np.array_equal(scaled, np.round(scaled))
    assert np.all(inst.ps.weights > 0)


def test_generator_rejects_infeasible_parameters():
    with pytest.raises(ArgumentError):
        generate_planted("lp", n=100, d=3, alpha=0.6, r=1.0, seed=0, outlier_frac=0.5)
    with pytest.raises(ArgumentError):
        generate_planted("lp", n=100, d=3, alpha=0.6, r=1.0, seed=0, mode="two")
    with pytest.raises(ArgumentError):
        generate_planted("lp", n=100, d=3, alpha=0.0, r=1.0, seed=0)
    with pytest.raises(ArgumentError):
        generate_planted("lp", n=100, d=3, alpha=0.6, r=-1.0, seed=0)
    with pytest.raises(ArgumentError):
        generate_planted("lp", n=100, d=3, alpha=0.6, r=1.0, seed=0, separation=1.0)
    with pytest.raises(ArgumentError):
        generate_planted("plane", n=100, d=3, alpha=0.6, r=1.0, seed=0)
    with pytest.raises(ArgumentError):
        generate_planted("metric", n=9000, d=3, alpha=0.6, r=1.0, seed=0)


def test_planted_instance_accessors():
    inst = generate_planted("metric", n=30, d=3, alpha=0.6, r=1.0, seed=16)
    with pytest.raises(ArgumentError):
        inst.space_ops()
    oracle = inst.oracle()
    assert oracle.size == 30
    gt = inst.ground_truth()
    assert gt["r"] == 1.0
    linst = generate_planted("lp", n=30, d=3, alpha=0.6, r=1.0, seed=16)
    with pytest.raises(ArgumentError):
        linst.oracle()
