"""Point sets, covered weight, and distance oracles with query counting."""

import concurrent.futures

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onecenter import (
    ArgumentError,
    CallableOracle,
    LpSpace,
    MatrixOracle,
    PaddedOracle,
    WeightedPointSet,
    covered_weight,
    generate_planted,
    metric_halfplus,
)
from onecenter.oracle import _triangle_violation

from conftest import TallyOracle, random_metric_matrix


def test_point_set_totals_and_shape():
    ps = WeightedPointSet.from_coords([[0.0, 0.0], [1.0, 2.0]], [1.0, 3.0])
    assert ps.n == 2
    assert ps.d == 2
    assert ps.total_weight == pytest.approx(4.0, rel=1e-12)


def test_point_set_default_weights_are_unit():
    ps = WeightedPointSet.from_coords(np.zeros((5, 3)))
    assert ps.total_weight == 5.0


def test_point_set_rejects_bad_weights():
    with pytest.raises(ArgumentError):
        WeightedPointSet.from_coords([[0.0]], [-1.0])
    with pytest.raises(ArgumentError):
        WeightedPointSet.from_coords([[0.0]], [np.nan])
    with pytest.raises(ArgumentError):
        WeightedPointSet.from_coords([[0.0], [1.0]], [1.0])


def test_point_set_rejects_weights_whose_total_overflows():
    # each weight is finite, but their sum is inf
    with pytest.raises(ArgumentError, match="finite"):
        WeightedPointSet.from_coords([[0.0], [0.5], [1.0]], [1e308] * 3)
    ps = WeightedPointSet.from_coords([[0.0], [0.5], [1.0]], [1e308, 0.0, 0.0])
    with pytest.raises(ArgumentError, match="finite"):
        ps.with_weights([1e308] * 3)
    with pytest.raises(ArgumentError, match="finite"):
        WeightedPointSet.indexed(2, [1.7e308, 1.7e308])


def test_point_set_arrays_are_read_only():
    ps = WeightedPointSet.from_coords([[1.0, 2.0]], [1.0])
    with pytest.raises(ValueError):
        ps.coords[0, 0] = 9.0
    with pytest.raises(ValueError):
        ps.weights[0] = 9.0


def test_with_weights_keeps_coords():
    ps = WeightedPointSet.from_coords([[0.0], [1.0]], [1.0, 1.0])
    ps2 = ps.with_weights([2.0, 0.0])
    assert ps2.total_weight == 2.0
    assert np.array_equal(ps2.coords, ps.coords)


def test_indexed_point_set_has_no_coords():
    ps = WeightedPointSet.indexed(4)
    assert ps.coords is None
    assert ps.n == 4
    assert ps.total_weight == 4.0


def test_covered_weight_all_points_at_center():
    ps = WeightedPointSet.from_coords(np.ones((6, 2)), np.full(6, 0.5))
    space = LpSpace(2.0, 2)
    assert covered_weight(ps, space, np.array([1.0, 1.0]), 0.0) == 3.0


def test_covered_weight_small_radius_off_data_center():
    ps = WeightedPointSet.from_coords([[0.0, 0.0], [2.0, 0.0]])
    space = LpSpace(2.0, 2)
    # center is not a data point; radius below the closest distance
    assert covered_weight(ps, space, np.array([1.0, 0.0]), 0.5) == 0.0


def test_covered_weight_matches_planted_inlier_weight():
    inst = generate_planted("lp", n=300, d=4, alpha=0.7, r=1.0, seed=2)
    got = covered_weight(inst.ps, inst.space_ops(), inst.centers[0], inst.r)
    assert got == pytest.approx(float(inst.cluster_weights[0]), rel=1e-12)


def test_covered_weight_validates_arguments():
    ps = WeightedPointSet.from_coords([[0.0]], [1.0])
    space = LpSpace(2.0, 1)
    with pytest.raises(ArgumentError):
        covered_weight(ps, space, np.array([0.0]), -1.0)
    oracle = MatrixOracle([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ArgumentError):
        covered_weight(WeightedPointSet.indexed(2), oracle, np.zeros(1), 1.0)
    with pytest.raises(ArgumentError):
        covered_weight(WeightedPointSet.indexed(3), oracle, 0, 1.0)


def test_matrix_oracle_accepts_valid_metric():
    m = random_metric_matrix(np.random.default_rng(0), 20)
    oracle = MatrixOracle(m, validate="full")
    assert oracle.size == 20
    assert oracle.dist(3, 3) == 0.0
    assert oracle.dist(2, 9) == oracle.dist(9, 2)


def test_matrix_oracle_leaves_the_callers_array_writable():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    o = MatrixOracle(m)
    assert np.shares_memory(o.matrix, m)  # a view, not a copy
    assert m.flags.writeable
    assert not o.matrix.flags.writeable
    with pytest.raises(ValueError):
        o.matrix[0, 1] = 5.0
    m[0, 1] = 5.0
    assert m[0, 1] == 5.0


def test_matrix_oracle_rejections():
    with pytest.raises(ArgumentError):
        MatrixOracle(np.zeros((2, 3)))
    with pytest.raises(ArgumentError):
        MatrixOracle([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ArgumentError):
        MatrixOracle([[0.5, 1.0], [1.0, 0.0]])
    with pytest.raises(ArgumentError):
        MatrixOracle([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ArgumentError):
        MatrixOracle([[0.0, np.inf], [np.inf, 0.0]])
    bad = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(ArgumentError):
        MatrixOracle(bad, validate="full")
    with pytest.raises(ArgumentError):
        MatrixOracle(bad)  # auto still checks triangles at this size
    # explicit opt-out skips metric validation entirely
    assert MatrixOracle(bad, validate="none").dist(0, 2) == 5.0
    with pytest.raises(ArgumentError):
        MatrixOracle(bad, validate="everything")


def test_query_costs_per_call_shape():
    oracle = MatrixOracle(random_metric_matrix(np.random.default_rng(1), 10))
    assert oracle.query_count == 0
    oracle.dist(0, 1)
    assert oracle.query_count == 1
    oracle.dist_many(0, [1, 2, 3])
    assert oracle.query_count == 4
    oracle.sweep(5)
    assert oracle.query_count == 14
    oracle.reset_query_count()
    assert oracle.query_count == 0


def test_query_count_matches_independent_tally_through_a_solver():
    rng = np.random.default_rng(8)
    m = random_metric_matrix(rng, 64)
    oracle = TallyOracle(m)
    ps = WeightedPointSet.indexed(64)
    metric_halfplus(ps, oracle, alpha=0.6, C=2)
    assert oracle.query_count == oracle.tally
    assert oracle.tally > 0


def test_query_counter_safe_under_concurrent_increments():
    oracle = MatrixOracle(random_metric_matrix(np.random.default_rng(2), 8))

    def hammer(_):
        for _ in range(5000):
            oracle.dist(1, 2)
        return True

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        assert all(pool.map(hammer, range(8)))
    assert oracle.query_count == 8 * 5000


def test_index_range_checks():
    oracle = MatrixOracle([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ArgumentError):
        oracle.dist(0, 2)
    with pytest.raises(ArgumentError):
        oracle.dist(-1, 0)
    with pytest.raises(ArgumentError):
        oracle.dist_many(0, [0, 5])


def test_padded_oracle_aliases_extra_indexes_to_point_zero():
    m = np.array([[0.0, 2.0], [2.0, 0.0]])
    padded = PaddedOracle(MatrixOracle(m), 4)
    assert padded.size == 4
    assert padded.dist(3, 1) == 2.0  # padding behaves like point 0
    assert padded.dist(2, 3) == 0.0
    row = padded.sweep(1)
    assert np.array_equal(row, [2.0, 0.0, 2.0, 2.0])


def test_padded_oracle_counts_against_base():
    base = MatrixOracle([[0.0, 1.0], [1.0, 0.0]])
    padded = PaddedOracle(base, 5)
    padded.sweep(4)
    assert base.query_count == 5
    assert padded.query_count == 5
    padded.reset_query_count()
    assert base.query_count == 0


def test_callable_oracle_wraps_a_function():
    pts = np.array([[0.0], [3.0], [7.0]])

    def fn(i, j):
        return abs(float(pts[i, 0] - pts[j, 0]))

    oracle = CallableOracle(fn, 3)
    assert oracle.dist(0, 2) == 7.0
    assert np.array_equal(oracle.sweep(1), [3.0, 0.0, 4.0])
    assert oracle.query_count == 4


def _block_oracles():
    m = random_metric_matrix(np.random.default_rng(11), 9)
    yield MatrixOracle(m), None
    yield CallableOracle(lambda i, j: m[i, j], 9), None
    base = MatrixOracle(m[:6, :6])
    yield PaddedOracle(base, 9), base
    yield TallyOracle(m), None


def test_dist_block_equals_stacked_rows_and_costs_the_same():
    rows, cols = [4, 0, 8, 4], [1, 7, 7, 3, 0]
    for oracle, base in _block_oracles():
        counter = base if base is not None else oracle
        block = oracle.dist_block(rows, cols)
        charged = counter.query_count
        stacked = np.stack([oracle.dist_many(i, cols) for i in rows])
        assert block.shape == (4, 5) and block.dtype == np.float64
        assert np.array_equal(block, stacked)
        assert charged == counter.query_count - charged == 4 * 5
        assert oracle.query_count == counter.query_count
        if isinstance(oracle, TallyOracle):
            assert oracle.tally == oracle.query_count
        assert oracle.dist_block([], cols).shape == (0, 5)


def test_dist_block_range_checks():
    for oracle, _ in _block_oracles():
        for rows, cols in [([0, 9], [1]), ([0], [-1]), ([[0, 1]], [1]), (0, [1])]:
            with pytest.raises(ArgumentError):
                oracle.dist_block(rows, cols)
        assert oracle.query_count == 0


def _symmetric_600():
    # n > AUTO_TRIANGLE_LIMIT, so under "auto" symmetry is the last check;
    # 600 = 2 full 256-wide tiles and a ragged one of 88
    return random_metric_matrix(np.random.default_rng(12), 600)


def test_matrix_oracle_tiled_symmetry_check_accepts_large_metric():
    assert MatrixOracle(_symmetric_600()).size == 600


@pytest.mark.parametrize("i, j", [(20, 300), (300, 20), (530, 597), (5, 599)])
def test_matrix_oracle_rejects_asymmetry_in_a_single_tile(i, j):
    m = _symmetric_600()
    m[i, j] = np.nextafter(m[i, j], np.inf)
    with pytest.raises(ArgumentError, match="symmetric"):
        MatrixOracle(m)


def _triangle_violation_per_k(m):
    # the earlier loop over every (i, j, k), one k at a time: the reference
    worst = 0.0
    n = m.shape[0]
    for k in range(n):
        slack = m - (m[:, k : k + 1] + m[k : k + 1, :])
        worst = max(worst, float(slack.max()))
    return worst


@st.composite
def _symmetric_matrices(draw):
    """Symmetric, nonnegative, zero-diagonal matrices, n from 1 to 40.

    Entries are tie-heavy small integers, a {-0.0, 0.0, 1.0, 2.0} palette,
    uniform reals, or an integer l_1 metric (violation 0.0) with a few
    planted violations.  Then each zero entry, the diagonal included,
    may become -0.0 on its own, so m[i, j] and m[j, i] can differ in the
    sign of zero, which the symmetry check allows.
    """
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["integers", "palette", "uniform", "metric"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "metric":
        pts = rng.integers(0, 4, size=(n, 2)).astype(np.float64)
        m = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
        for _ in range(draw(st.integers(0, 3))):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                m[i, j] = m[j, i] = m[i, j] + draw(st.sampled_from([1e-12, 1e-9, 0.5, 3.0]))
    else:
        if kind == "integers":
            upper = rng.integers(0, 5, size=(n, n)).astype(np.float64)
        elif kind == "palette":
            upper = rng.choice([-0.0, 0.0, 1.0, 2.0], size=(n, n))
        else:
            upper = rng.uniform(0.0, 10.0, size=(n, n))
        m = np.triu(upper, 1)
        m = m + m.T
    zeros = np.flatnonzero(m == 0.0)
    flip = zeros[rng.random(zeros.size) < draw(st.sampled_from([0.0, 0.3, 1.0]))]
    m.flat[flip] = -0.0
    return m


@settings(max_examples=150, deadline=None)
@given(_symmetric_matrices())
def test_triangle_violation_equals_per_k_reference(m):
    expected = _triangle_violation_per_k(m)
    assert _triangle_violation(m).hex() == expected.hex()
    if expected > MatrixOracle.TRIANGLE_TOL:
        with pytest.raises(ArgumentError) as err:
            MatrixOracle(m, validate="full")
        assert str(err.value) == f"triangle inequality violated by {expected:.3e}"
    else:
        assert MatrixOracle(m, validate="full").size == m.shape[0]


def test_triangle_violation_pinned_cases():
    metric = random_metric_matrix(np.random.default_rng(5), 60)
    bad = metric.copy()
    bad[7, 41] = bad[41, 7] = bad[7, 41] + 2.5
    for m in (np.zeros((1, 1)), metric, bad):
        assert _triangle_violation(m).hex() == _triangle_violation_per_k(m).hex()
    assert _triangle_violation(metric) <= MatrixOracle.TRIANGLE_TOL
    assert _triangle_violation(bad) > 2.0
