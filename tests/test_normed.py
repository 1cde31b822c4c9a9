"""Pair-and-join reduction plus centroid refinement for alpha > 1/2."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onecenter import (
    ArgumentError,
    DegenerateInputError,
    LpSpace,
    UnsupportedFractionError,
    WeightedPointSet,
    centroid_refine,
    cluster_halfplus,
    generate_planted,
    halfplus_constant,
    pair_reduce,
    refine_iteration_cap,
    validate_norm_axioms,
    verify_ball,
)
from onecenter import normed
from onecenter.normed import _pair_reduce_arrays, _refine_loop
from onecenter.spaces import _BLOCK, _pair_gaps

from conftest import RowCountingLp

L2_3 = LpSpace(2.0, 3)


def _line(points, weights):
    coords = np.array([[float(x), 0.0, 0.0] for x in points])
    return WeightedPointSet.from_coords(coords, weights)


def test_far_pair_cancels_to_weight_difference():
    ps = _line([0.0, 5.0], [1.0, 1.0])
    red = pair_reduce(ps, L2_3, r=1.0)
    assert red.weights.tolist() == [0.0]
    assert red.points[0, 0] == 0.0  # tie keeps the earlier point


def test_close_pair_merges_onto_heavier_point():
    ps = _line([0.0, 1.0], [2.0, 3.0])
    red = pair_reduce(ps, L2_3, r=1.0)
    assert red.weights.tolist() == [5.0]
    assert red.points[0, 0] == 1.0


def test_odd_input_padded_with_zero_weight_copy_of_first():
    ps = _line([0.0, 10.0, 4.0], [1.0, 2.0, 0.75])
    red = pair_reduce(ps, L2_3, r=1.0)
    assert red.points.shape[0] == 2
    # second pair is (third point, zero-weight copy of the first)
    assert red.weights[1] == 0.75
    assert red.points[1, 0] == 4.0


def test_pair_reduce_costs_exactly_ceil_half_n_distances():
    rng = np.random.default_rng(0)
    for n in (2, 3, 8, 9, 51, 100):
        space = RowCountingLp(2.0, 4)
        ps = WeightedPointSet.from_coords(rng.normal(size=(n, 4)))
        pair_reduce(ps, space, r=0.5)
        assert space.rows == math.ceil(n / 2)


def test_pair_reduce_weight_bounds():
    rng = np.random.default_rng(4)
    for seed in range(10):
        r2 = np.random.default_rng(seed)
        n = int(r2.integers(2, 120))
        coords = r2.normal(size=(n, 3))
        weights = r2.uniform(0.0, 2.0, size=n)
        ps = WeightedPointSet.from_coords(coords, weights)
        red = pair_reduce(ps, L2_3, r=float(rng.uniform(0.05, 2.0)))
        assert np.all(red.weights >= 0.0)
        assert float(red.weights.sum()) <= float(weights.sum()) + 1e-12
        pair_sums = np.array(
            [
                weights[2 * i] + (weights[2 * i + 1] if 2 * i + 1 < n else 0.0)
                for i in range(red.points.shape[0])
            ]
        )
        assert np.all(red.weights <= pair_sums + 1e-12)


def test_pair_reduce_keeps_positive_weight_on_planted_majority():
    for seed in range(6):
        inst = generate_planted("lp", n=257, d=5, alpha=0.6, r=1.0, seed=seed)
        red = pair_reduce(inst.ps, inst.space_ops(), inst.r)
        assert float(red.weights.sum()) > 0.0


def test_pair_reduce_triple_radius_cover_property():
    # a radius-r majority ball survives as a radius-3r majority ball
    for seed in range(6):
        inst = generate_planted(
            "lp", n=400, d=4, alpha=0.62, r=1.0, seed=seed, weights="dyadic"
        )
        space = inst.space_ops()
        red = pair_reduce(inst.ps, space, inst.r)
        total = float(red.weights.sum())
        near = space.distances(red.points, inst.centers[0]) <= 3.0 * inst.r
        assert float(red.weights[near].sum()) >= inst.alpha * total - 1e-9 * total


def test_pair_reduce_rejects_nonpositive_radius():
    ps = _line([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ArgumentError):
        pair_reduce(ps, L2_3, r=0.0)


def test_centroid_of_identical_points_is_that_point():
    q = np.array([2.5, -0.75, 8.0])
    ps = WeightedPointSet.from_coords(np.tile(q, (4, 1)))
    out = centroid_refine(ps, L2_3, a=q + 0.5, K=10.0, r=1.0, alpha=0.75)
    assert np.array_equal(out, q)


def test_centroid_refine_validates_containment_factor():
    ps = WeightedPointSet.from_coords(np.zeros((2, 3)))
    with pytest.raises(ArgumentError):
        centroid_refine(ps, L2_3, a=np.zeros(3), K=5.0, r=1.0, alpha=0.75)
    with pytest.raises(UnsupportedFractionError):
        centroid_refine(ps, L2_3, a=np.zeros(3), K=50.0, r=1.0, alpha=0.5)


def test_centroid_refine_rejects_a_nan_containment_factor():
    ps = WeightedPointSet.from_coords(np.zeros((2, 3)))
    with pytest.raises(ArgumentError, match="K must be"):
        centroid_refine(ps, L2_3, a=np.zeros(3), K=math.nan, r=1.0, alpha=0.75)


def test_centroid_refine_degenerate_when_nothing_in_range():
    ps = WeightedPointSet.from_coords(np.zeros((3, 3)))
    far = np.array([1e6, 0.0, 0.0])
    with pytest.raises(DegenerateInputError):
        centroid_refine(ps, L2_3, a=far, K=10.0, r=1.0, alpha=0.75)


def test_single_refine_step_contracts_k10_to_7p5():
    # alpha 3/4 gives eps 1/4: K=10 contracts the center error to
    # (K - K*eps - 1) r = 6.5 r, i.e. a fresh containment factor of 7.5.
    alpha, K, r = 0.75, 10.0, 1.0
    for seed in range(8):
        # separation 4 puts outliers inside B(a, K r) so they fight the centroid
        inst = generate_planted("lp", n=300, d=4, alpha=alpha, r=r, seed=seed, separation=4.0)
        q = inst.centers[0]
        space = inst.space_ops()
        rng = np.random.default_rng(seed + 1000)
        off = rng.normal(size=4)
        a = q + off / space.norm(off) * (K - 1.0) * r  # B(q, r) inside B(a, K r)
        out = centroid_refine(inst.ps, space, a=a, K=K, r=r, alpha=alpha)
        assert space.norm(out - q) <= (K - K * (alpha - 0.5) - 1.0) * r + 1e-9


def test_refine_iteration_cap_formula():
    assert refine_iteration_cap(0.75) == math.ceil(math.log(5.0) / math.log(4.0 / 3.0))
    # shrinking K from 3C+4 by (1 - eps) per step always fits the cap
    for alpha in (0.51, 0.6, 0.75, 0.9, 1.0):
        eps = alpha - 0.5
        C = halfplus_constant(alpha)
        K = 3.0 * C + 4.0
        steps = 0
        while K > C:
            K *= 1.0 - eps
            steps += 1
        assert steps <= refine_iteration_cap(alpha)


def test_halfplus_constant_values():
    assert halfplus_constant(0.75) == 6.0
    assert halfplus_constant(1.0) == 4.0
    with pytest.raises(UnsupportedFractionError):
        halfplus_constant(0.5)


def test_single_point_returns_itself():
    ps = WeightedPointSet.from_coords([[1.0, 2.0, 3.0]], [2.0])
    ball = cluster_halfplus(ps, L2_3, alpha=0.75, r=2.0)
    assert np.array_equal(ball.center, [1.0, 2.0, 3.0])
    assert ball.radius == 6.0 * 2.0
    assert ball.covered_weight == 2.0


def test_planted_halfplus_instance_verifies():
    inst = generate_planted("lp", n=512, d=8, alpha=0.6, r=1.0, seed=7)
    space = inst.space_ops()
    ball = cluster_halfplus(inst.ps, space, alpha=0.6, r=1.0)
    assert ball.radius == halfplus_constant(0.6) * 1.0
    ok, covered = verify_ball(inst.ps, space, ball.center, ball.radius, 0.6)
    assert ok
    assert covered == ball.covered_weight


@pytest.mark.parametrize("alpha", [0.55, 0.75, 0.95])
def test_halfplus_verifies_across_fractions_and_norms(alpha):
    for p in (1.0, 2.0, math.inf):
        inst = generate_planted(
            "lp", n=301, d=6, alpha=alpha, r=0.5, seed=int(p if p != math.inf else 9), p=p
        )
        space = inst.space_ops()
        ball = cluster_halfplus(inst.ps, space, alpha=alpha, r=inst.r)
        ok, _ = verify_ball(inst.ps, space, ball.center, ball.radius, alpha)
        assert ok
        assert ball.radius == halfplus_constant(alpha) * inst.r


def test_halfplus_deterministic_bit_identical():
    inst = generate_planted("lp", n=200, d=5, alpha=0.7, r=1.0, seed=3)
    space = inst.space_ops()
    a = cluster_halfplus(inst.ps, space, alpha=0.7, r=1.0)
    b = cluster_halfplus(inst.ps, space, alpha=0.7, r=1.0)
    assert np.array_equal(a.center, b.center)
    assert a.radius == b.radius
    assert a.covered_weight == b.covered_weight


def _halfplus_row_bound(n, alpha):
    # see test_halfplus_norm_rows_are_linear_in_n
    cap = refine_iteration_cap(alpha)
    rows, m = n, n
    while m > 1:
        rows += (m + 1) // 2 + cap * m
        m = (m + 1) // 2
    return rows


@pytest.mark.parametrize("alpha", [0.55, 0.75, 0.95])
def test_halfplus_norm_rows_are_linear_in_n(alpha):
    """The paper's O(nd) for cluster_halfplus, as norm rows counted.

    Bound, from the code: a level of m > 1 points spends ceil(m/2) rows
    on its pair reduction and hands ceil(m/2) points to the level below;
    a level of one point spends nothing.  Each pass of the level's refine
    loop evaluates at most one distance row per point (m rows) and shrinks K by
    (1 - eps) at least once, and K needs at most
    refine_iteration_cap(alpha) shrinks to fall from 3C + 4 to C.  So a
    level costs at most ceil(m/2) + cap * m rows; cluster_halfplus adds
    at most n rows for the final coverage.  Summed over the halving
    levels that is about (2 * cap + 2) * n, linear in n for fixed alpha.
    A level that certifies its rows (normed._ShiftedRow) also spends one
    norm per centroid step on the center's shift, at most cap a level,
    and the rows it skips outweigh those many times over here.
    """
    sizes = [1024, 4096, 16384, 65536]
    rows = []
    for n in sizes:
        inst = generate_planted("lp", n=n, d=2, alpha=alpha, r=1.0, seed=1)
        space = RowCountingLp(2.0, 2)
        ball = cluster_halfplus(inst.ps, space, alpha=alpha, r=1.0)
        assert ball.covered_weight >= alpha * inst.ps.total_weight
        assert space.rows <= _halfplus_row_bound(n, alpha)
        rows.append(space.rows)
    slope = np.polyfit(np.log(sizes), np.log(rows), 1)[0]
    assert abs(slope - 1.0) <= 0.05, (rows, slope)


def test_halfplus_argument_validation():
    ps = WeightedPointSet.from_coords(np.zeros((4, 3)))
    with pytest.raises(UnsupportedFractionError):
        cluster_halfplus(ps, L2_3, alpha=0.5, r=1.0)
    with pytest.raises(ArgumentError):
        cluster_halfplus(ps, L2_3, alpha=0.75, r=-1.0)
    with pytest.raises(ArgumentError):
        cluster_halfplus(ps.with_weights(np.zeros(4)), L2_3, alpha=0.75, r=1.0)


def test_lp_spaces_satisfy_norm_axioms():
    rng = np.random.default_rng(12)
    samples = rng.normal(size=(40, 5)) * 10.0
    for p in (1.0, 1.5, 2.0, 4.0, math.inf):
        validate_norm_axioms(LpSpace(p, 5), samples)


def _assert_row_is_exact(row, exact):
    """row <= t is exact <= t at thresholds on and just below exact values."""
    values = np.unique(exact)
    for t in np.concatenate([values[::7], np.nextafter(values[::11], -math.inf), [0.0, math.inf]]):
        assert (row <= t).tobytes() == (exact <= t).tobytes()


def _naive_refine_loop(points, weights, space, center, alpha, r):
    """The refine loop without skipping: one full membership pass per step."""
    eps = alpha - 0.5
    C = halfplus_constant(alpha)
    K = 3.0 * C + 4.0
    while K > C:
        mask = space.distances(points, center) <= K * r
        total = float(np.sum(weights[mask]))
        if total <= 0.0:
            break
        center = points[mask].T @ weights[mask] / total
        K *= 1.0 - eps
    return center


@st.composite
def _refine_cases(draw):
    n = draw(st.integers(1, 64))
    d = draw(st.integers(1, 4))
    # a few well-separated clumps with jitter, so masks both shrink and settle
    clumps = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    spread = 10.0 ** draw(st.integers(-2, 3))
    anchors = rng.normal(size=(clumps, d)) * spread * 20.0
    points = anchors[rng.integers(0, clumps, size=n)] + rng.normal(size=(n, d)) * spread
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0]), min_size=n, max_size=n)))
    if draw(st.booleans()):
        weights[0] = 1.0
    alpha = draw(st.one_of(st.just(0.5 + 1e-3), st.floats(0.5 + 1e-3, 1.0)))
    p = draw(st.sampled_from([1.0, 2.0, math.inf]))
    r = spread * 2.0 ** draw(st.integers(-6, 6))
    start = draw(st.sampled_from(["point", "mean", "far"]))
    if start == "point":
        center = points[draw(st.integers(0, n - 1))].copy()
    elif start == "mean":
        center = points.mean(axis=0)
    else:
        center = np.full(d, 1e12)
    return points, weights, center, alpha, p, r


@given(_refine_cases())
@example((np.zeros((3, 2)), np.array([1.0, 0.0, 2.0]), np.full(2, 1e12), 0.75, 2.0, 1.0))
@example((np.zeros((2, 1)), np.zeros(2), np.zeros(1), 0.6, 1.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_refine_loop_matches_naive_loop_bit_for_bit(case):
    points, weights, center, alpha, p, r = case
    fast_space = RowCountingLp(p, points.shape[1])
    slow_space = RowCountingLp(p, points.shape[1])
    got, row = _refine_loop(points, weights, fast_space, center, alpha, r)
    want = _naive_refine_loop(points, weights, slow_space, center, alpha, r)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert fast_space.rows <= slow_space.rows
    # the returned row answers threshold tests at the returned center
    _assert_row_is_exact(row, LpSpace(p, points.shape[1]).distances(points, got))


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize(
    "n, d, start", [(_BLOCK + 1, 8, "point"), (3 * _BLOCK + 17, 3, "off"), (2 * _BLOCK, 9, "mean")]
)
def test_refine_loop_matches_naive_loop_on_sets_of_several_blocks(p, n, d, start):
    inst = generate_planted("lp", n=n, d=d, alpha=0.7, r=1.0, seed=n + d, weights="dyadic", p=p)
    points, weights = inst.ps.coords, inst.ps.weights
    center = {"point": points[n // 2], "off": inst.centers[0] + 3.0, "mean": points.mean(axis=0)}[start]
    got, _ = _refine_loop(points, weights, LpSpace(p, d), center, 0.6, inst.r)
    want = _naive_refine_loop(points, weights, LpSpace(p, d), center, 0.6, inst.r)
    assert got.tobytes() == want.tobytes()
    assert not np.array_equal(got, center)


def _where_pair_reduce(points, weights, space, r):
    """The pair reduction with each survivor picked by a per-pair select."""
    if points.shape[0] % 2 == 1:
        points = np.vstack([points, points[:1]])
        weights = np.concatenate([weights, [0.0]])
    a, b = points[0::2], points[1::2]
    wa, wb = weights[0::2], weights[1::2]
    v = np.where(_pair_gaps(space, points) <= 2.0 * r, wa + wb, np.abs(wa - wb))
    return np.where((wa >= wb)[:, None], a, b), v


def _assert_same_reduction(points, weights, space, r):
    reduced, v, kept = _pair_reduce_arrays(points, weights, space, r)
    want = _where_pair_reduce(points, weights, space, r)
    for g, w in zip((reduced, v), want):
        assert g.shape == w.shape and g.flags.c_contiguous
        assert g.tobytes() == w.tobytes()
    # one survivor index per pair, naming the gathered row; odd n's
    # padding copy never survives
    assert np.array_equal(kept // 2, np.arange(kept.size))
    assert points[kept].tobytes() == reduced.tobytes()


@given(
    n=st.integers(1, 41),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    weights=st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5]), min_size=41, max_size=41),
)
@settings(max_examples=200, deadline=None)
def test_pair_survivor_gather_matches_per_pair_select(n, d, seed, weights):
    rng = np.random.default_rng(seed)
    # few distinct values, signed zeros among them, so rows and weights tie
    points = rng.choice([-1.5, -0.0, 0.0, 0.25, 3.0], size=(n, d))
    _assert_same_reduction(points, np.array(weights[:n]), LpSpace(2.0, d), float(rng.choice([0.1, 1.0, 4.0])))


def test_pair_survivor_gather_matches_per_pair_select_on_several_blocks():
    rng = np.random.default_rng(5)
    n = 4 * _BLOCK + 7
    points = rng.normal(size=(n, 8))
    weights = rng.choice([0.0, 1.0, 2.0], size=n)
    _assert_same_reduction(points, weights, LpSpace(1.0, 8), 1.0)
    _assert_same_reduction(np.asfortranarray(points), weights, LpSpace(2.0, 8), 1.0)


def test_refine_loop_skips_stationary_steps_at_small_eps():
    # alpha just above 1/2 takes about 1600 steps, nearly all stationary
    inst = generate_planted("lp", n=64, d=2, alpha=0.6, r=1.0, seed=5)
    alpha = 0.5 + 1e-3
    fast_space = RowCountingLp(2.0, 2)
    slow_space = RowCountingLp(2.0, 2)
    start = inst.ps.coords[0]
    got, row = _refine_loop(inst.ps.coords, inst.ps.weights, fast_space, start, alpha, inst.r)
    want = _naive_refine_loop(inst.ps.coords, inst.ps.weights, slow_space, start, alpha, inst.r)
    assert got.tobytes() == want.tobytes()
    assert slow_space.rows >= 1000 * 64
    assert fast_space.rows * 10 <= slow_space.rows
    # the loop ends on a stationary step and hands back that step's row:
    # its threshold tests compute nothing more
    rows = fast_space.rows
    _assert_row_is_exact(row, LpSpace(2.0, 2).distances(inst.ps.coords, got))
    assert fast_space.rows == rows


@pytest.mark.parametrize("n", [8, 128])
def test_stationary_steps_at_an_exact_row_cost_one_test(n, monkeypatch):
    # at alpha 0.52 the plain loop makes 56 passes, nearly all stationary;
    # where the row at the center is exact (every level under
    # _CERTIFY_MIN_ROWS points), K falls to the mask's farthest member in
    # float compares, so a stationary pass is followed by a centroid step
    # or by the end of the loop
    inst = generate_planted("lp", n=n, d=2, alpha=0.6, r=1.0, seed=5)
    points, weights, start, alpha = inst.ps.coords, inst.ps.weights, inst.ps.coords[0], 0.52
    tests, steps = [], []
    le, centroid = normed._ShiftedRow.__le__, normed._centroid
    monkeypatch.setattr(normed._ShiftedRow, "__le__", lambda row, t: tests.append(t) or le(row, t))
    monkeypatch.setattr(normed, "_centroid", lambda *a: steps.append(1) or centroid(*a))
    got, row = _refine_loop(points, weights, LpSpace(2.0, 2), start, alpha, inst.r)
    monkeypatch.undo()
    space = LpSpace(2.0, 2)
    assert got.tobytes() == _naive_refine_loop(points, weights, space, start, alpha, inst.r).tobytes()
    passes = len(_plain_steps(points, weights, space, start, alpha, inst.r))
    assert passes == 56
    assert len(tests) <= 2 * len(steps) and len(tests) < passes // 2  # 7 and 23 tests
    _assert_row_is_exact(row, space.distances(points, got))



# ---------------------------------------------------------------------------
# Certified rows: refine loops over at least _CERTIFY_MIN_ROWS points in a
# space with a rounding allowance decide mask bits from a shifted exact row.


class PlainLp(RowCountingLp):
    """The same norm, stating no rounding allowance: every row is computed."""

    def __init__(self, p, d):
        super().__init__(p, d)
        self._allowance = None


def _undecided_spy(monkeypatch):
    """Record how many rows each exact-value request of a _ShiftedRow asks for."""
    asked = []
    exact = normed._ShiftedRow._exact

    def spy(self, idx):
        asked.append(int(idx.size))
        return exact(self, idx)

    monkeypatch.setattr(normed._ShiftedRow, "_exact", spy)
    return asked


def _ball_bytes(ball):
    return ball.center.tobytes(), np.float64(ball.radius).tobytes(), np.float64(ball.covered_weight).tobytes()


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 9, 64])
def test_certified_halfplus_matches_the_plain_path_bit_for_bit(p, d):
    inst = generate_planted("lp", n=3000, d=d, alpha=0.75, r=1.0, seed=d, weights="dyadic", p=p)
    certified, plain = RowCountingLp(p, d), PlainLp(p, d)
    got = cluster_halfplus(inst.ps, certified, 0.75, inst.r)
    want = cluster_halfplus(inst.ps, plain, 0.75, inst.r)
    assert _ball_bytes(got) == _ball_bytes(want)
    assert certified.rows < plain.rows


def test_certified_halfplus_decides_nearly_every_bit_from_the_shift(monkeypatch):
    # on a planted set each level's center moves by a small fraction of
    # K*r from its reference, the reduced level's, so only points near a
    # threshold the loop tests could need their own row; here one does
    asked = _undecided_spy(monkeypatch)
    n = 20000
    inst = generate_planted("lp", n=n, d=8, alpha=0.75, r=1.0, seed=3, weights="dyadic")
    certified, plain = RowCountingLp(2.0, 8), PlainLp(2.0, 8)
    got = cluster_halfplus(inst.ps, certified, 0.75, inst.r)
    assert _ball_bytes(got) == _ball_bytes(cluster_halfplus(inst.ps, plain, 0.75, inst.r))
    assert sum(asked) == 1
    # the certified levels keep the pair gaps and their partners' rows
    # (40,497 rows here, 60,335 when each level's first pass was whole):
    # the rest of the plain path's 115,013 rows are gone
    assert certified.rows < 0.4 * plain.rows


def _plain_steps(points, weights, space, center, alpha, r):
    """(center, K*r) of every pass of the loop without skipping."""
    eps = alpha - 0.5
    C = halfplus_constant(alpha)
    K = 3.0 * C + 4.0
    steps = []
    while K > C:
        steps.append((center, K * r))
        mask = space.distances(points, center) <= K * r
        total = float(np.sum(weights[mask]))
        if total <= 0.0:
            break
        center = points[mask].T @ weights[mask] / total
        K *= 1.0 - eps
    return steps


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("alpha", [0.55, 0.75])
def test_certified_refine_loop_on_points_within_ulps_of_each_threshold(p, alpha, monkeypatch):
    # zero-weight points at K*r from each center the plain loop visits:
    # they cannot move a centroid by more than its last bits, so each
    # sits within a few ulps of a threshold the certified loop tests
    rng = np.random.default_rng(int(alpha * 100) + int(min(p, 9)))
    d = 3
    inst = generate_planted("lp", n=1000, d=d, alpha=0.7, r=1.0, seed=11, weights="dyadic", p=p)
    space = LpSpace(p, d)
    start = inst.centers[0] + 0.05
    steps = _plain_steps(inst.ps.coords, inst.ps.weights, space, start, alpha, inst.r)
    dirs = rng.normal(size=(4 * len(steps), d))
    dirs /= space.norms(dirs)[:, None]
    ring = np.vstack([c + dirs[4 * i : 4 * i + 4] * t for i, (c, t) in enumerate(steps)])
    points = np.vstack([inst.ps.coords, ring])
    weights = np.concatenate([inst.ps.weights, np.zeros(len(ring))])
    near = [
        np.abs(space.distances(ring, c) - t) <= 8 * np.spacing(t)
        for c, t in _plain_steps(points, weights, space, start, alpha, inst.r)
    ]
    assert np.count_nonzero(np.any(near, axis=0)) >= len(ring) // 2
    asked = _undecided_spy(monkeypatch)
    got, row = _refine_loop(points, weights, space, start, alpha, inst.r)
    assert got.tobytes() == _naive_refine_loop(points, weights, space, start, alpha, inst.r).tobytes()
    assert sum(asked) > 0  # the fallback ran
    exact = space.distances(points, got)
    for t in np.unique(exact)[::97]:
        assert (row <= t).tobytes() == (exact <= t).tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from([1.0, 2.0, math.inf]),
    d=st.integers(1, 9),
    scale=st.sampled_from([2.0**-420, 1e-3, 1.0, 1e6, 2.0**450, 2.0**498]),
    moves=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=4),
    ulps=st.integers(-3, 3),
)
@settings(max_examples=150, deadline=None)
def test_shifted_row_masks_equal_the_exact_row(seed, p, d, scale, moves, ulps):
    # thresholds at a point's exact value and a few ulps off it: decided
    # bits must be the exact ones, and undecided ones are computed
    rng = np.random.default_rng(seed)
    space = LpSpace(p, d)
    points = rng.normal(size=(300, d)) * scale
    ref = points[0] + rng.normal(size=d) * scale * 0.1
    row = normed._ShiftedRow(points, space, ref, mu=4.0 * space._allowance)
    center = ref
    for move in moves:
        center = center + rng.normal(size=d) * scale * move
        row.at(center)
        exact = space.distances(points, center)
        for k in rng.integers(0, 300, size=3):
            t = float(exact[k])
            for _ in range(abs(ulps)):
                t = float(np.nextafter(t, math.copysign(math.inf, ulps)))
            assert (row <= t).tobytes() == (exact <= t).tobytes()


def test_shifted_row_spends_at_most_half_the_level_on_exact_values():
    # exact values are kept until the center moves: asked again at one
    # center, the undecided points cost nothing
    angles = np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False)
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    points = np.vstack([ring, 0.5 * ring])
    space = RowCountingLp(2.0, 2)
    row = normed._ShiftedRow(points, space, np.zeros(2), mu=4.0 * space._allowance)
    center = np.array([1e-9, 0.0])
    row.at(center)
    exact = space.distances(points, center) <= 1.0
    spent = []
    for _ in range(3):
        before = space.rows
        assert (row <= 1.0).tobytes() == exact.tobytes()
        spent.append(space.rows - before)
    # the shift and the 200 points on the unit ring, then nothing
    assert spent == [1 + 200, 0, 0]


def test_shifted_row_computes_the_whole_row_once_exact_values_pass_half_the_level():
    # the two rings are undecided at thresholds 1 and 0.5 in turn: 400 new
    # exact values would pass half the level, so the whole row is computed
    # at the center instead, and later tests there cost no row
    angles = np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False)
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    points = np.vstack([ring, 0.5 * ring])
    space = RowCountingLp(2.0, 2)
    row = normed._ShiftedRow(points, space, np.zeros(2), mu=4.0 * space._allowance)
    center = np.array([1e-9, 0.0])
    row.at(center)
    exact = space.distances(points, center)
    spent = []
    for t in (1.0, 0.5, 1.0, 0.5):
        before = space.rows
        assert (row <= t).tobytes() == (exact <= t).tobytes()
        spent.append(space.rows - before)
    assert spent == [1 + 200, 400, 0, 0]


# ---------------------------------------------------------------------------
# Inherited rows: a certified level's first reference row is the reduced
# level's, copied for the pair survivors, with only the partners computed.


@given(
    n=st.one_of(st.integers(2, 300), st.sampled_from([2 * _BLOCK + 1, 2 * _BLOCK + 2])),
    d=st.sampled_from([1, 3, 8, 64]),
    p=st.sampled_from([1.0, 2.0, math.inf]),
    scale=st.sampled_from([2.0**-420, 1e-3, 1.0, 1e6, 2.0**450, 2.0**498]),
    seed=st.integers(0, 2**32 - 1),
    below_from=st.sampled_from(["point", "off", "level"]),
)
@settings(max_examples=150, deadline=None)
def test_inherited_row_is_the_fresh_row_bit_for_bit(n, d, p, scale, seed, below_from):
    rng = np.random.default_rng(seed)
    space = LpSpace(p, d)
    # coarse coordinates, so rows repeat, and few weights, so pairs tie
    # and some weigh nothing
    jitter = rng.normal(size=(n, d)) * rng.choice([0.0, 1e-9, 1.0])
    points = (rng.choice([-1.5, -0.0, 0.0, 0.25, 0.3, 3.0], size=(n, d)) + jitter) * scale
    weights = rng.choice([0.0, 0.0, 0.5, 1.0, 2.5], size=n)
    reduced, v, kept = _pair_reduce_arrays(points, weights, space, scale)
    if below_from == "level" and float(np.add.reduce(v)) > 0.0:
        # the row a reduced level hands up: exact at its reference only
        below = normed._halfplus_center(reduced, v, space, 0.75, 3.0 * scale)[1]
    elif below_from == "point":
        below = normed._ShiftedRow(reduced, space, reduced[rng.integers(reduced.shape[0])])
    else:
        below = normed._ShiftedRow(reduced, space, reduced[0] + rng.normal(size=d) * scale)
    if below is None:  # a reduced level of one point keeps no row
        return
    ref, got = normed._inherited_row(points, space, kept, below)
    assert ref is below.ref
    assert got.tobytes() == space.distances(points, ref).tobytes()


def test_certified_level_first_pass_costs_its_partners_and_one_shift_norm():
    n, d, alpha = 3001, 3, 0.75
    inst = generate_planted("lp", n=n, d=d, alpha=alpha, r=1.0, seed=2, weights="dyadic")
    points, weights, r = inst.ps.coords, inst.ps.weights, inst.r
    space = RowCountingLp(2.0, d)
    reduced, v, kept = _pair_reduce_arrays(points, weights, space, r)
    coarse, below = normed._halfplus_center(reduced, v, space, alpha, 3.0 * r)
    assert coarse is not below.ref  # the reduced level moved off its reference
    before = space.rows
    row = normed._ShiftedRow(points, space, coarse, mu=4.0 * space._allowance, below=[kept, below])
    t = (3.0 * halfplus_constant(alpha) + 4.0) * r
    mask = row <= t
    assert space.rows - before == n // 2 + 1  # a fresh first pass costs n
    assert mask.tobytes() == (LpSpace(2.0, d).distances(points, coarse) <= t).tobytes()
    # the whole level keeps the inherited reference to its end here
    top = normed._halfplus_center(points, weights, LpSpace(2.0, d), alpha, r)[1]
    assert top.ref.tobytes() == below.ref.tobytes()
