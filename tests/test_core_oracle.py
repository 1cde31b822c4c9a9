"""Point sets, covered weight, distance oracles with query counting, and
the one rule for integer arguments."""

import concurrent.futures
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onecenter import (
    ArgumentError,
    CallableOracle,
    LpSpace,
    MatrixOracle,
    OperatorNormSpace,
    WeightedPointSet,
    cluster_logtower,
    covered_weight,
    exact_ceil_root,
    generate_planted,
    las_vegas_baseline,
    logtower_constant,
    median_counterexample_report,
    metric_cover,
    metric_halfplus,
    metric_query_bound,
)
from onecenter.oracle import _INF_BITS, _TRIANGLE_ROWS, _triangle_violation

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


def test_covered_weight_rejects_a_nan_radius():
    ps = WeightedPointSet.from_coords([[0.0, 0.0], [3.0, 4.0]])
    with pytest.raises(ArgumentError, match="nan"):
        covered_weight(ps, LpSpace(2, 2), np.zeros(2), math.nan)


_IDX4 = WeightedPointSet.indexed(4)
_LINE4 = MatrixOracle(np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0))))
_LP_PS = WeightedPointSet.from_coords(np.zeros((4, 2)))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: metric_halfplus(_IDX4, _LINE4, 0.75, math.nan), id="halfplus-C-nan"),
        pytest.param(lambda: metric_halfplus(_IDX4, _LINE4, 0.75, math.inf), id="halfplus-C-inf"),
        pytest.param(lambda: metric_cover(_IDX4, _LINE4, 0.4, math.nan), id="cover-C-nan"),
        pytest.param(lambda: metric_cover(_IDX4, _LINE4, 0.4, math.inf), id="cover-C-inf"),
        pytest.param(lambda: metric_query_bound(0, 10), id="query-bound-C-0"),
        pytest.param(lambda: metric_query_bound(2, 0.5), id="query-bound-n-half"),
        pytest.param(lambda: cluster_logtower(_LP_PS, LpSpace(2, 2), 0.3, 1.5, 1.0), id="logtower-k-1.5"),
        pytest.param(lambda: logtower_constant(0.3, 1.5), id="logtower-constant-k-1.5"),
        pytest.param(lambda: median_counterexample_report(2.5, samples=100), id="opnorm-k-2.5"),
        pytest.param(lambda: median_counterexample_report(2, samples=100.5), id="opnorm-samples-100.5"),
        pytest.param(lambda: LpSpace(2, 2.5), id="lp-d-2.5"),
        pytest.param(lambda: LpSpace(2, 0), id="lp-d-0"),
        pytest.param(lambda: OperatorNormSpace(2.5), id="opnorm-space-k-2.5"),
        pytest.param(lambda: CallableOracle(lambda i, j: 0.0, 2.5), id="callable-size-2.5"),
        pytest.param(lambda: exact_ceil_root(10.5, 2), id="ceil-root-n-10.5"),
        pytest.param(lambda: exact_ceil_root(10, math.nan), id="ceil-root-C-nan"),
        pytest.param(lambda: WeightedPointSet.indexed(2.5), id="indexed-n-2.5"),
        pytest.param(lambda: generate_planted("lp", n=20.5, d=2, alpha=0.75), id="generate-n-20.5"),
        pytest.param(lambda: las_vegas_baseline(_LP_PS, LpSpace(2, 2), 0.75, 1.0, seed=0.5), id="baseline-seed-0.5"),
    ],
)
def test_integer_arguments_must_be_finite_integers_at_least_a_minimum(call):
    with pytest.raises(ArgumentError, match="must be an integer >="):
        call()


def test_integral_floats_still_count_as_integers():
    assert LpSpace(2, 3.0).d == 3
    assert OperatorNormSpace(np.int64(2)).k == 2
    assert exact_ceil_root(10.0, 2.0) == 4
    assert metric_query_bound(2.0, 100) == metric_query_bound(2, 100)
    assert logtower_constant(0.3, 1.0) == logtower_constant(0.3, 1)
    inst = generate_planted("lp", n=16, d=2, alpha=0.3, seed=1, mode="gap")
    space = inst.space_ops()
    a, b = (cluster_logtower(inst.ps, space, 0.3, k, inst.r) for k in (1.0, 1))
    assert (a.center.tobytes(), a.radius, a.covered_weight) == (b.center.tobytes(), b.radius, b.covered_weight)


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
    with pytest.raises(ArgumentError, match="square"):
        MatrixOracle(np.zeros((2, 3)))
    with pytest.raises(ArgumentError, match="nonnegative"):
        MatrixOracle([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ArgumentError, match="diagonal"):
        MatrixOracle([[0.5, 1.0], [1.0, 0.0]])
    with pytest.raises(ArgumentError, match="symmetric"):
        MatrixOracle([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ArgumentError, match="finite"):
        MatrixOracle([[0.0, np.inf], [np.inf, 0.0]])
    bad = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(ArgumentError, match="triangle"):
        MatrixOracle(bad, validate="full")
    with pytest.raises(ArgumentError, match="triangle"):
        MatrixOracle(bad)  # auto still checks triangles at this size
    # explicit opt-out skips metric validation entirely
    assert MatrixOracle(bad, validate="none").dist(0, 2) == 5.0
    with pytest.raises(ArgumentError, match="validate"):
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
    with pytest.raises(ArgumentError):
        oracle.dist_many(0, [[0, 1]])
    for call in (lambda: oracle.dist(0.5, 1), lambda: oracle.dist_many(0, [1.0])):
        with pytest.raises(ArgumentError, match="integers"):
            call()


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
    return [MatrixOracle(m), CallableOracle(lambda i, j: m[i, j], 9), TallyOracle(m)]


def test_dist_block_equals_stacked_rows_and_costs_the_same():
    rows, cols = [4, 0, 8, 4], [1, 7, 7, 3, 0]
    for oracle in _block_oracles():
        block = oracle.dist_block(rows, cols)
        charged = oracle.query_count
        stacked = np.stack([oracle.dist_many(i, cols) for i in rows])
        assert block.shape == (4, 5) and block.dtype == np.float64
        assert np.array_equal(block, stacked)
        assert charged == oracle.query_count - charged == 4 * 5
        if isinstance(oracle, TallyOracle):
            assert oracle.tally == oracle.query_count
        assert oracle.dist_block([], cols).shape == (0, 5)
        assert oracle.dist_block(rows, []).shape == (4, 0)


def test_dist_block_range_checks():
    for oracle in _block_oracles():
        for rows, cols in [([0, 9], [1]), ([0], [-1]), ([[0, 1]], [1]), (0, [1]), ([0.5], [1])]:
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


def _with(m, *cells):
    m = m.copy()
    for i, j, x in cells:
        m[i, j] = x
    return m


_ASYM = (20, 300, 7.0)  # m[300, 20] keeps its value


# several defects at once: the first in the order finite, nonnegative,
# diagonal, symmetric names the error, wherever the tile pass meets them
@pytest.mark.parametrize("cells, message", [
    ([(400, 10, np.nan), _ASYM], "distance matrix must be finite"),
    ([_ASYM, (590, 3, np.inf)], "distance matrix must be finite"),
    ([(400, 10, -1.0)], "distances must be nonnegative"),
    ([_ASYM, (599, 598, -0.5), (598, 599, -0.5)], "distances must be nonnegative"),
    ([(5, 5, 1.0), _ASYM], "distance matrix diagonal must be zero"),
    ([(599, 599, np.nan), (1, 2, -1.0)], "distance matrix must be finite"),
    ([(300, 599, 1.0), _ASYM], "distance matrix must be symmetric"),
])
def test_matrix_oracle_names_the_first_of_several_defects(cells, message):
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        MatrixOracle(_with(_symmetric_600(), *cells))


def test_matrix_oracle_accepts_negative_zero():
    # -0.0 == 0.0: neither negative nor asymmetric, on or off the diagonal
    m = _with(_symmetric_600(), (400, 10, -0.0), (10, 400, 0.0), (7, 7, -0.0))
    assert MatrixOracle(m).dist(400, 10) == 0.0
    assert MatrixOracle([[0.0, -0.0], [0.0, -0.0]], validate="full").size == 2


def test_matrix_oracle_accepts_an_upper_tile_flagged_only_by_negative_zero():
    # -0.0 has the sign bit set, so the tile's integer bound flags it and
    # the float bounds, which accept it, decide
    m = _with(_symmetric_600(), (10, 400, -0.0), (400, 10, 0.0), (300, 520, -0.0), (520, 300, -0.0))
    assert m[:256, 256:512].view(np.uint64).max() >= _INF_BITS
    assert m[256:512, 512:].view(np.uint64).max() >= _INF_BITS
    assert MatrixOracle(m).dist(10, 400) == 0.0


@pytest.mark.parametrize("x, message", [
    (np.inf, "distance matrix must be finite"),
    (np.nan, "distance matrix must be finite"),
    (-1.0, "distances must be nonnegative"),
    (-5e-324, "distances must be nonnegative"),
])
@pytest.mark.parametrize("mirrored", [False, True])
def test_matrix_oracle_names_a_defect_in_an_upper_tile(x, message, mirrored):
    cells = [(10, 400, x), (300, 520, -0.0)] + ([(400, 10, x)] if mirrored else [])
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        MatrixOracle(_with(_symmetric_600(), *cells))


def test_matrix_oracle_accepts_without_an_n_by_n_temporary():
    n = 2000
    x = np.random.default_rng(5).normal(size=n)
    m = np.abs(np.subtract.outer(x, x))  # a line metric; n > 512 skips the triangle check
    tracemalloc.start()
    try:
        MatrixOracle(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n // 4  # an n x n bool mask alone is n * n bytes


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


def test_triangle_violation_across_row_chunks():
    # more rows than one chunk of sums, with the violations in later chunks
    n = 2 * _TRIANGLE_ROWS + 37
    metric = random_metric_matrix(np.random.default_rng(6), n)
    bad = metric.copy()
    bad[3, n - 2] = bad[n - 2, 3] = bad[3, n - 2] + 1.25
    bad[_TRIANGLE_ROWS + 1, n - 1] += 0.5
    bad[n - 1, _TRIANGLE_ROWS + 1] += 0.5
    for m in (metric, bad):
        assert _triangle_violation(m).hex() == _triangle_violation_per_k(m).hex()
    assert _triangle_violation(bad) > 1.0


def test_dist_dist_many_and_sweep_are_one_row_dist_block_calls():
    idx = [8, 0, 3, 3, 5]
    for oracle in _block_oracles():
        for i in range(9):
            for j in (0, 4, 8):
                before = oracle.query_count
                got = oracle.dist(i, j)
                assert oracle.query_count - before == 1
                assert got.hex() == float(oracle.dist_block([i], [j])[0, 0]).hex()
            before = oracle.query_count
            row = oracle.dist_many(i, idx)
            assert oracle.query_count - before == len(idx)
            assert row.tobytes() == oracle.dist_block([i], idx)[0].tobytes()
            before = oracle.query_count
            row = oracle.sweep(i)
            assert oracle.query_count - before == 9
            assert row.tobytes() == oracle.dist_block([i], np.arange(9))[0].tobytes()
        if isinstance(oracle, TallyOracle):
            assert oracle.tally == oracle.query_count


def test_scalar_accessors_raise_dist_blocks_errors():
    oracle = MatrixOracle(random_metric_matrix(np.random.default_rng(4), 5))
    cases = [
        (lambda: oracle.dist(0, 5), lambda: oracle.dist_block([0], [5])),
        (lambda: oracle.dist(-1, 0), lambda: oracle.dist_block([-1], [0])),
        (lambda: oracle.dist(0.5, 1), lambda: oracle.dist_block([0.5], [1])),
        (lambda: oracle.dist_many(0, [[0, 1]]), lambda: oracle.dist_block([0], [[0, 1]])),
        (lambda: oracle.dist_many(0, [1.0]), lambda: oracle.dist_block([0], [1.0])),
    ]
    for scalar, block in cases:
        with pytest.raises(ArgumentError) as want:
            block()
        with pytest.raises(ArgumentError, match=re.escape(str(want.value))):
            scalar()
    assert oracle.query_count == 0
