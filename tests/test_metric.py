"""Distance-oracle solvers: block recursion, peeling covers, query budgets."""

import math

import numpy as np
import pytest

from onecenter import (
    ArgumentError,
    CallableOracle,
    MatrixOracle,
    UnsupportedFractionError,
    WeightedPointSet,
    brute_force_best,
    exact_ceil_root,
    generate_planted,
    metric_cover,
    metric_halfplus,
    metric_query_bound,
    metric_quadratic,
)

from onecenter.selection import BLOCK_ELEMS

from conftest import TallyOracle, random_metric_matrix


def test_exact_ceil_root_dodges_float_traps():
    assert exact_ceil_root(27, 3) == 3  # cbrt(27) floats to 3.0000000000000004
    assert exact_ceil_root(28, 3) == 4
    assert exact_ceil_root(8, 3) == 2
    assert exact_ceil_root(9, 2) == 3
    assert exact_ceil_root(10, 2) == 4
    assert exact_ceil_root(1, 7) == 1
    assert exact_ceil_root(1000000, 3) == 100
    for n in (2, 5, 63, 64, 65, 4095, 4096, 4097):
        for C in (1, 2, 3, 5):
            m = exact_ceil_root(n, C)
            assert (m - 1) ** C < n <= m**C
    # 2 once 2**C reaches n, without forming m**C
    assert exact_ceil_root(40, 6) == 2 == exact_ceil_root(40, 64)
    assert exact_ceil_root(40, 5) == 3
    assert exact_ceil_root(2, 10**6) == 2
    assert exact_ceil_root(1, 10**6) == 1
    assert exact_ceil_root(2**62 + 1, 63) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 40, 64, 65])
def test_metric_depth_is_bounded_by_the_padding(n):
    # past ceil(log2 n) blocks are pairs, and another level only doubles the slots
    top = max(2, (n - 1).bit_length())
    oracle = MatrixOracle(random_metric_matrix(np.random.default_rng(n), n))
    ps = WeightedPointSet.indexed(n)
    for C in (top, 1):
        assert 0 <= metric_halfplus(ps, oracle, 0.6, C).center_index < n
        assert len(metric_cover(ps, oracle, 0.4, C).centers) >= 1
    for C in (top + 1, 64):
        for solve in (lambda: metric_halfplus(ps, oracle, 0.6, C), lambda: metric_cover(ps, oracle, 0.4, C)):
            with pytest.raises(ArgumentError, match=rf"C must be at most .* = {top} at n = {n}, got {C}"):
                solve()


def test_collinear_example_ties_to_lowest_index():
    m = np.array(
        [
            [0.0, 1.0, 5.0],
            [1.0, 0.0, 4.0],
            [5.0, 4.0, 0.0],
        ]
    )
    ball = metric_halfplus(
        WeightedPointSet.indexed(3), MatrixOracle(m), alpha=2.0 / 3.0, C=1
    )
    assert ball.center == 0
    assert ball.center_index == 0
    assert ball.radius == 1.0


def test_c1_equals_brute_force_exactly():
    rng = np.random.default_rng(42)
    for trial in range(25):
        n = int(rng.integers(2, 120))
        oracle = MatrixOracle(random_metric_matrix(rng, n), validate="none")
        weights = rng.choice([0.5, 1.0, 2.0], size=n)
        ps = WeightedPointSet.indexed(n, weights)
        alpha = float(rng.uniform(0.55, 1.0))
        a = metric_halfplus(ps, oracle, alpha=alpha, C=1)
        b = brute_force_best(ps, oracle, alpha)
        assert a.center == b.center_index
        assert a.radius == b.radius


def test_figure_one_shape_five_blocks_of_five():
    inst = generate_planted(
        "metric", n=25, d=3, alpha=13.0 / 25.0, r=1.0, seed=1, outlier_frac=0.2
    )
    ball = metric_halfplus(inst.ps, inst.oracle(), alpha=13.0 / 25.0, C=2)
    assert ball.radius <= 4.0 * inst.r + 1e-9


@pytest.mark.parametrize("C", [1, 2, 3])
def test_halfplus_radius_within_twice_c_of_brute_force(C):
    rng = np.random.default_rng(C)
    for trial in range(6):
        n = int(rng.integers(8, 200))
        matrix = random_metric_matrix(rng, n)
        ps = WeightedPointSet.indexed(n)
        s = metric_halfplus(ps, MatrixOracle(matrix, validate="none"), 0.6, C).radius
        r_bf = brute_force_best(ps, MatrixOracle(matrix, validate="none"), 0.6).radius
        assert s <= 2.0 * C * r_bf + 1e-9
        assert s >= r_bf  # nothing beats the exhaustive optimum


@pytest.mark.parametrize("C", [1, 2, 3])
def test_query_budget_constant_at_most_four(C):
    rng = np.random.default_rng(7)
    for n in (64, 256, 1024, 4096):
        oracle = TallyOracle(random_metric_matrix(rng, n))
        metric_halfplus(WeightedPointSet.indexed(n), oracle, alpha=0.75, C=C)
        assert oracle.tally == oracle.query_count
        assert oracle.query_count <= metric_query_bound(C, n)


def test_query_bound_formula():
    assert metric_query_bound(1, 100) == 4.0 * 100.0**2
    assert metric_query_bound(2, 100) == pytest.approx(8.0 * 100.0**1.5, rel=1e-12)


def test_halfplus_always_covers_alpha():
    inst = generate_planted("metric", n=100, d=4, alpha=0.7, r=1.0, seed=3)
    for C in (1, 2, 3):
        ball = metric_halfplus(inst.ps, inst.oracle(), alpha=0.7, C=C)
        assert ball.covered_weight >= 0.7 * inst.ps.total_weight
        assert ball.radius <= 2.0 * C * inst.r + 1e-9


def test_halfplus_validation():
    oracle = MatrixOracle(random_metric_matrix(np.random.default_rng(0), 6))
    ps = WeightedPointSet.indexed(6)
    with pytest.raises(UnsupportedFractionError):
        metric_halfplus(ps, oracle, alpha=0.5, C=1)
    with pytest.raises(ArgumentError):
        metric_halfplus(ps, oracle, alpha=0.6, C=0)
    with pytest.raises(ArgumentError):
        metric_halfplus(ps, oracle, alpha=0.6, C=1.5)
    with pytest.raises(ArgumentError):
        metric_halfplus(WeightedPointSet.indexed(5), oracle, alpha=0.6, C=1)


def test_halfplus_deterministic():
    inst = generate_planted("metric", n=64, d=3, alpha=0.6, r=1.0, seed=9)
    a = metric_halfplus(inst.ps, inst.oracle(), 0.6, 2)
    b = metric_halfplus(inst.ps, inst.oracle(), 0.6, 2)
    assert (a.center, a.radius, a.covered_weight) == (b.center, b.radius, b.covered_weight)


def test_quadratic_above_half_single_ball():
    inst = generate_planted("metric", n=80, d=3, alpha=0.6, r=1.0, seed=2)
    cover = metric_quadratic(inst.ps, inst.oracle(), 0.6)
    assert len(cover.centers) == 1
    assert cover.radii[0] <= 2.0 * inst.r + 1e-9


def test_quadratic_far_singleton_clusters():
    # four well-separated points, each holding w/4; alpha = 1/4 peels
    # one zero-radius ball per point
    m = np.array(
        [
            [0.0, 10.0, 20.0, 30.0],
            [10.0, 0.0, 10.0, 20.0],
            [20.0, 10.0, 0.0, 10.0],
            [30.0, 20.0, 10.0, 0.0],
        ]
    )
    ps = WeightedPointSet.indexed(4)
    cover = metric_quadratic(ps, MatrixOracle(m), 0.25)
    assert list(cover.centers) == [0, 1, 2, 3]
    assert list(cover.radii) == [0.0, 0.0, 0.0, 0.0]


def test_quadratic_tight_cluster_at_one_half():
    inst = generate_planted("metric", n=60, d=3, alpha=0.5, r=0.5, seed=5, outlier_frac=0.3)
    oracle = inst.oracle()
    cover = metric_quadratic(inst.ps, oracle, 0.5)
    y = 0.5 * inst.ps.total_weight
    assert 1 <= len(cover.centers) <= 2
    assert cover.radii[0] <= 2.0 * inst.r + 1e-9
    weights = inst.ps.weights.copy()
    for p, s in zip(cover.centers, cover.radii):
        d = inst.matrix[p]
        assert float(weights[d <= s].sum()) >= y - 1e-9 * y
        weights[d <= s] = 0.0


def test_cover_single_ball_regime_matches_halfplus():
    inst = generate_planted("metric", n=81, d=3, alpha=0.6, r=1.0, seed=4)
    cover = metric_cover(inst.ps, inst.oracle(), 0.6, 2)
    ball = metric_halfplus(inst.ps, inst.oracle(), 0.6, 2)
    assert len(cover.centers) == 1
    assert cover.centers[0] == ball.center
    assert cover.radii[0] == ball.radius


def test_cover_c1_matches_quadratic():
    # at C = 1 metric_cover peels as metric_quadratic does; above alpha =
    # 1/2 it goes through metric_halfplus instead, whose sweep of the
    # winner's covered weight costs n more queries
    rng = np.random.default_rng(6)
    for trial in range(12):
        n = int(rng.integers(4, 80))
        matrix = random_metric_matrix(rng, n)
        weights = rng.choice([1.0, 2.0], size=n)
        ps = WeightedPointSet.indexed(n, weights)
        alpha = float(rng.uniform(0.2, 0.5) if trial < 8 else rng.uniform(0.51, 1.0))
        oa, ob = MatrixOracle(matrix, validate="none"), MatrixOracle(matrix, validate="none")
        a = metric_cover(ps, oa, alpha, 1)
        b = metric_quadratic(ps, ob, alpha)
        assert a.centers == b.centers
        assert a.radii == b.radii
        assert a.approx_constant == b.approx_constant == 2.0
        assert oa.query_count == ob.query_count + (n if alpha > 0.5 else 0)


def test_cover_two_planted_clusters():
    inst = generate_planted(
        "metric", n=200, d=3, alpha=0.4, r=1.0, seed=8, mode="two", outlier_frac=0.1
    )
    cover = metric_cover(inst.ps, inst.oracle(), 0.4, 2)
    w = inst.ps.total_weight
    assert 1 <= len(cover.centers) <= 2
    for p, s in zip(cover.centers, cover.radii):
        assert s <= 4.0 * inst.r + 1e-9
        assert float(inst.ps.weights[inst.matrix[p] <= s].sum()) >= 0.4 * w - 1e-9 * w
    for j, q_idx in enumerate(inst.center_indexes):
        near = [
            inst.matrix[p, q_idx] <= s + inst.r + 1e-9
            for p, s in zip(cover.centers, cover.radii)
        ]
        assert any(near)


def test_cover_list_length_never_exceeds_inverse_alpha():
    rng = np.random.default_rng(10)
    for alpha in (0.21, 0.34, 0.5, 0.77):
        n = 60
        oracle = MatrixOracle(random_metric_matrix(rng, n), validate="none")
        cover = metric_cover(WeightedPointSet.indexed(n), oracle, alpha, 2)
        assert len(cover.centers) <= math.floor(1.0 / alpha)
        assert cover.fraction == alpha


def test_remark_binary_blocks_still_work():
    # C = ceil(lg n) forces m = 2; the recursion must still terminate
    # with verified balls and a modest query bill
    inst = generate_planted("metric", n=1024, d=3, alpha=0.6, r=1.0, seed=11)
    oracle = inst.oracle()
    ball = metric_halfplus(inst.ps, oracle, alpha=0.6, C=10)
    assert ball.covered_weight >= 0.6 * inst.ps.total_weight
    cover = metric_cover(inst.ps, inst.oracle(), 0.4, 10)
    w = inst.ps.total_weight
    assert 1 <= len(cover.centers) <= 2
    for p, s in zip(cover.centers, cover.radii):
        assert float(inst.ps.weights[inst.matrix[p] <= s].sum()) >= 0.4 * w - 1e-9 * w


def test_solvers_need_only_distance_access():
    inst = generate_planted("metric", n=49, d=3, alpha=0.55, r=1.0, seed=13)
    matrix = inst.matrix

    def fn(i, j):
        return float(matrix[i, j])

    hidden = CallableOracle(fn, 49)
    via_matrix = metric_halfplus(inst.ps, inst.oracle(), 0.55, 2)
    via_callable = metric_halfplus(inst.ps, hidden, 0.55, 2)
    assert via_callable.center == via_matrix.center
    assert via_callable.radius == via_matrix.radius


def test_metric_cover_fields():
    inst = generate_planted("metric", n=36, d=2, alpha=0.45, r=1.0, seed=14)
    cover = metric_cover(inst.ps, inst.oracle(), 0.45, 2)
    assert cover.approx_constant == 4.0
    assert len(cover.radii) == len(cover.centers)
    assert all(s >= 0.0 for s in cover.radii)


class BlockRecordingOracle(MatrixOracle):
    """Matrix oracle that records the element count of every block fetch."""

    def __init__(self, matrix):
        super().__init__(matrix, validate="none")
        self.blocks = []

    def dist_block(self, rows, cols):
        self.blocks.append(np.size(rows) * np.size(cols))
        return super().dist_block(rows, cols)


def test_candidate_blocks_stay_within_the_element_budget():
    inst = generate_planted("metric", n=1024, d=3, alpha=0.3, seed=4, mode="two")
    oracle = BlockRecordingOracle(inst.matrix)
    cover = metric_quadratic(inst.ps, oracle, 0.3)
    assert len(cover.centers) >= 2
    assert len(oracle.blocks) > 1
    assert max(oracle.blocks) <= BLOCK_ELEMS < 1024 * 1024
    assert sum(oracle.blocks) == oracle.query_count
