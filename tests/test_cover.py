"""Multi-ball covers, the gap-condition solver, and bucket composition."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onecenter import (
    ArgumentError,
    LpSpace,
    UnsupportedFractionError,
    WeightedPointSet,
    any_alpha_constant,
    any_alpha_solver,
    ball_cover,
    below_half_cover,
    bucket_constant,
    bucket_reduce,
    cluster_any_alpha,
    cluster_logtower,
    gap_constant,
    generate_planted,
    logtower_base_fraction,
    logtower_constant,
    scale_base,
    scale_count,
    verify_factor,
)
from onecenter import cover
from onecenter.cover import _dedupe_rows, _iterated_bucket_fn, _polylog_fn
from onecenter.normed import _pair_reduce_arrays, _refine_loop

from conftest import RowCountingLp


def test_formula_identities():
    assert gap_constant(0.5) == 6.0
    assert bucket_constant(6.0) == 50.0
    # at alpha = 1/2 the scale ladder has one step of size 23 and the
    # half-fraction gap solver uses C = 10
    assert scale_count(0.5) == 1
    assert gap_constant(0.25) == 10.0
    assert scale_base(0.5) == 23.0
    assert verify_factor(0.5) == 12.0
    assert any_alpha_constant(0.5) == 12.0 * 23.0
    assert logtower_base_fraction(0.8, 1) == pytest.approx(0.08, rel=1e-12)
    for alpha in (0.1, 0.3, 0.5, 0.9):
        # radius growth per scale equals the gap solver's shell factor
        assert scale_base(alpha) == pytest.approx(
            2.0 * gap_constant(alpha / 2.0) + 3.0, rel=1e-15
        )


def test_logtower_constant_growth():
    assert logtower_constant(0.6, 0) == any_alpha_constant(0.6)
    c1 = logtower_constant(0.6, 1)
    c2 = logtower_constant(0.6, 2)
    assert math.isfinite(c1) and math.isfinite(c2)
    assert c1 == bucket_constant(any_alpha_constant(logtower_base_fraction(0.6, 1)))
    assert c2 > c1 > any_alpha_constant(0.6)


def test_ball_cover_above_half_is_single_ball():
    inst = generate_planted("lp", n=256, d=4, alpha=0.6, r=1.0, seed=0)
    space = inst.space_ops()
    solver = any_alpha_solver(space, 0.6)
    cover = ball_cover(solver.solve, inst.ps, space, 0.6, 0.6, solver.constant, 1.0)
    assert len(cover.balls) == 1
    assert cover.balls[0].covered_weight >= 0.6 * inst.ps.total_weight


def test_ball_cover_two_clusters_finds_both():
    # separation must exceed the (large) cover radius so the clusters
    # cannot be captured by one ball
    solver_constant = any_alpha_constant(0.4)
    sep = 4.0 * solver_constant
    inst = generate_planted(
        "lp", n=220, d=3, alpha=0.4, r=1.0, seed=5, mode="two", separation=sep
    )
    space = inst.space_ops()
    solver = any_alpha_solver(space, 0.4)
    cover = ball_cover(solver.solve, inst.ps, space, 0.4, 0.4, solver_constant, 1.0)
    w = inst.ps.total_weight
    assert len(cover.balls) == 2
    for ball in cover.balls:
        assert ball.covered_weight >= 0.4 * w - 1e-9 * w
    for q in inst.centers:
        closest = min(space.norm(np.asarray(c) - q) for c in cover.centers())
        assert closest <= (solver_constant + 1.0) * inst.r + 1e-9


def test_ball_cover_empty_when_no_valid_ball():
    rng = np.random.default_rng(9)
    coords = rng.uniform(-1000.0, 1000.0, size=(40, 2))
    ps = WeightedPointSet.from_coords(coords)
    space = LpSpace(2.0, 2)
    solver = any_alpha_solver(space, 0.9)
    cover = ball_cover(solver.solve, ps, space, 0.9, 0.9, 1.0, 1e-9)
    assert cover.balls == ()


def test_ball_cover_peeling_conservation_is_exact():
    inst = generate_planted(
        "lp", n=300, d=3, alpha=0.45, r=1.0, seed=11, weights="dyadic", mode="single"
    )
    space = inst.space_ops()
    solver = any_alpha_solver(space, 0.45)
    C = solver.constant
    cover = ball_cover(solver.solve, inst.ps, space, 0.45, 0.45, C, 1.0)
    assert cover.balls
    weights = inst.ps.weights.copy()
    for ball in cover.balls:
        mask = space.distances(inst.ps.coords, np.asarray(ball.center)) <= C * inst.r
        assert float(np.sum(weights[mask])) == ball.covered_weight
        weights[mask] = 0.0
    # dyadic weights make the peeled totals exact in binary
    assert float(weights.sum()) == inst.ps.total_weight - sum(
        b.covered_weight for b in cover.balls
    )


def test_ball_cover_argument_checks():
    ps = WeightedPointSet.from_coords(np.zeros((2, 2)))
    space = LpSpace(2.0, 2)
    solver = any_alpha_solver(space, 0.5)
    with pytest.raises(ArgumentError):
        ball_cover(solver.solve, ps, space, 0.6, 0.5, 1.0, 1.0)  # beta < alpha
    with pytest.raises(ArgumentError):
        ball_cover(solver.solve, ps, space, 0.5, 0.5, -1.0, 1.0)
    with pytest.raises(ArgumentError):
        ball_cover(solver.solve, ps, space, 0.5, 0.5, 1.0, 0.0)


def test_nan_radius_multiples_are_rejected():
    ps = WeightedPointSet.from_coords(np.zeros((2, 2)))
    space = LpSpace(2.0, 2)
    solver = any_alpha_solver(space, 0.5)
    for C in (math.nan, math.inf):
        with pytest.raises(ArgumentError):
            ball_cover(solver.solve, ps, space, 0.5, 0.5, C, 1.0)
    with pytest.raises(ArgumentError):
        bucket_constant(math.nan)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_below_half_cover_on_planted_gap_instances(alpha):
    inst = generate_planted("lp", n=257, d=4, alpha=alpha, r=1.0, seed=3, mode="gap")
    space = inst.space_ops()
    cover = below_half_cover(inst.ps, space, alpha, inst.r)
    w = inst.ps.total_weight
    C = gap_constant(alpha)
    assert cover.approx_constant == C
    assert 1 <= len(cover.balls) <= math.floor(1.0 / alpha)
    for ball in cover.balls:
        assert ball.radius == C * inst.r
        assert ball.covered_weight >= alpha * w - 1e-9 * w
    best = min(space.norm(np.asarray(c) - inst.centers[0]) for c in cover.centers())
    assert best <= (C + 1.0) * inst.r + 1e-9
    if alpha > 0.5:
        assert len(cover.balls) == 1


def test_below_half_cover_single_point():
    ps = WeightedPointSet.from_coords([[2.0, 2.0]], [3.0])
    space = LpSpace(2.0, 2)
    cover = below_half_cover(ps, space, 0.4, 1.0)
    assert len(cover.balls) == 1
    assert cover.balls[0].radius == gap_constant(0.4) * 1.0
    assert cover.balls[0].covered_weight == 3.0


def test_below_half_cover_two_separated_clusters():
    inst = generate_planted("lp", n=240, d=3, alpha=0.4, r=1.0, seed=8, mode="two")
    space = inst.space_ops()
    cover = below_half_cover(inst.ps, space, 0.4, inst.r)
    C = gap_constant(0.4)
    assert 1 <= len(cover.balls) <= 2
    for q in inst.centers:
        best = min(space.norm(np.asarray(c) - q) for c in cover.centers())
        assert best <= (C + 1.0) * inst.r + 1e-9


@pytest.mark.parametrize("alpha", [0.3, 0.4, 0.5])
def test_any_alpha_verified_ball_on_planted(alpha):
    inst = generate_planted("lp", n=300, d=5, alpha=alpha, r=1.0, seed=1)
    space = inst.space_ops()
    ball = cluster_any_alpha(inst.ps, space, alpha, inst.r)
    w = inst.ps.total_weight
    assert ball is not None
    assert ball.covered_weight >= alpha * w
    assert ball.radius <= any_alpha_constant(alpha) * inst.r + 1e-9
    # far-outlier instances succeed already at the first scale
    assert ball.radius == verify_factor(alpha) * inst.r


def test_any_alpha_identical_points():
    ps = WeightedPointSet.from_coords(np.tile([1.5, -2.0], (7, 1)))
    space = LpSpace(2.0, 2)
    ball = cluster_any_alpha(ps, space, 0.3, 1.0)
    assert ball is not None
    assert ball.covered_weight == ps.total_weight
    assert np.array_equal(ball.center, [1.5, -2.0])


def test_any_alpha_returns_none_when_hypothesis_fails():
    rng = np.random.default_rng(2)
    coords = rng.uniform(-1e6, 1e6, size=(50, 2))
    ps = WeightedPointSet.from_coords(coords)
    space = LpSpace(2.0, 2)
    assert cluster_any_alpha(ps, space, 0.9, 1e-9) is None


def test_bucket_reduce_planted_instance():
    # alpha 0.18 lifts to alpha' = 0.6; plant the 0.6 cluster
    inst = generate_planted("lp", n=512, d=4, alpha=0.6, r=1.0, seed=4)
    space = inst.space_ops()
    inner = any_alpha_solver(space, 0.18)
    ball = bucket_reduce(inst.ps, space, 0.18, inst.r, lambda m: min(m, 32.0), inner)
    w = inst.ps.total_weight
    assert ball is not None
    assert ball.covered_weight >= 0.6 * w - 1e-9 * w
    assert ball.radius == bucket_constant(inner.constant) * inst.r


def test_bucket_membership_fraction_lower_bound():
    # buckets whose in-ball share beats alpha'/2 hold at least alpha'/2
    # of all weight whenever the planted ball holds alpha' of it
    alpha_out = 0.6
    inst = generate_planted("lp", n=512, d=4, alpha=alpha_out, r=1.0, seed=12)
    space = inst.space_ops()
    dists = space.distances(inst.ps.coords, inst.centers[0])
    in_ball = dists <= inst.r
    w = inst.ps.weights
    total = inst.ps.total_weight
    size = 32
    kept = 0.0
    for lo in range(0, inst.ps.n, size):
        hi = min(inst.ps.n, lo + size)
        bucket_w = float(w[lo:hi].sum())
        if float(w[lo:hi][in_ball[lo:hi]].sum()) > (alpha_out / 2.0) * bucket_w:
            kept += bucket_w
    assert kept >= (alpha_out / 2.0) * total - 1e-9 * total


def test_bucket_reduce_single_bucket_degenerates_to_inner():
    inst = generate_planted("lp", n=128, d=3, alpha=0.65, r=1.0, seed=6)
    space = inst.space_ops()
    inner = any_alpha_solver(space, 0.21125)  # 0.65^2 / 2
    ball = bucket_reduce(inst.ps, space, 0.21125, inst.r, lambda m: m, inner)
    w = inst.ps.total_weight
    assert ball is not None
    assert ball.covered_weight >= math.sqrt(2.0 * 0.21125) * w - 1e-9 * w


def test_bucket_reduce_rejects_bad_bucket_functions():
    ps = WeightedPointSet.from_coords(np.zeros((512, 2)))
    space = LpSpace(2.0, 2)
    inner = any_alpha_solver(space, 0.2)
    with pytest.raises(ArgumentError):
        bucket_reduce(ps, space, 0.2, 1.0, lambda m: 0.5, inner)
    with pytest.raises(ArgumentError):
        bucket_reduce(ps, space, 0.2, 1.0, lambda m: m + 1.0, inner)
    with pytest.raises(ArgumentError):
        bucket_reduce(
            ps, space, 0.2, 1.0, lambda m: min(m, 20.0) if m <= 64 else 10.0, inner
        )

    def broken(m):
        raise ValueError("no")

    with pytest.raises(ArgumentError):
        bucket_reduce(ps, space, 0.2, 1.0, broken, inner)


def test_bucket_reduce_rejects_alpha_above_half():
    ps = WeightedPointSet.from_coords(np.zeros((8, 2)))
    space = LpSpace(2.0, 2)
    inner = any_alpha_solver(space, 0.2)
    with pytest.raises(UnsupportedFractionError):
        bucket_reduce(ps, space, 0.6, 1.0, lambda m: m, inner)


def test_logtower_k0_equals_any_alpha():
    inst = generate_planted("lp", n=200, d=4, alpha=0.35, r=1.0, seed=2)
    space = inst.space_ops()
    a = cluster_logtower(inst.ps, space, 0.35, 0, inst.r)
    b = cluster_any_alpha(inst.ps, space, 0.35, inst.r)
    assert a is not None and b is not None
    assert np.array_equal(a.center, b.center)
    assert a.radius == b.radius
    assert a.covered_weight == b.covered_weight


def test_logtower_k0_accepts_beta_one_as_any_alpha_does():
    inst = generate_planted("lp", n=120, d=3, alpha=0.9, r=1.0, seed=6, outlier_frac=0.0)
    space = inst.space_ops()
    a = cluster_logtower(inst.ps, space, 1.0, 0, 4.0)
    b = cluster_any_alpha(inst.ps, space, 1.0, 4.0)
    assert a is not None and b is not None
    assert a.center.tobytes() == b.center.tobytes()
    assert a.radius.hex() == b.radius.hex()
    assert a.covered_weight.hex() == b.covered_weight.hex() == inst.ps.total_weight.hex()
    assert logtower_constant(1.0, 0) == any_alpha_constant(1.0)
    with pytest.raises(ArgumentError, match="beta"):
        cluster_logtower(inst.ps, space, 1.0, 1, 4.0)


def test_logtower_single_stage_on_planted_instance():
    inst = generate_planted("lp", n=2048, d=3, alpha=0.6, r=1.0, seed=10)
    space = inst.space_ops()
    ball = cluster_logtower(inst.ps, space, 0.6, 1, inst.r)
    w = inst.ps.total_weight
    assert ball is not None
    assert ball.covered_weight >= 0.6 * w - 1e-9 * w
    assert ball.radius == logtower_constant(0.6, 1) * inst.r
    assert math.isfinite(ball.radius)


def test_logtower_overflow_guard():
    ps = WeightedPointSet.from_coords(np.zeros((16, 2)))
    calls = [
        lambda space: cluster_logtower(ps, space, 0.5, 3, 1.0),
        lambda space: cluster_logtower(ps, space, 0.5, -1, 1.0),
        lambda space: cluster_logtower(ps, space, 1.5, 1, 1.0),
        # the composed constant overflows at k = 4; at k = 20 the base fraction underflows to 0
        lambda space: cluster_logtower(ps, space, 0.6, 4, 1.0),
        lambda space: cluster_logtower(ps, space, 0.6, 20, 1.0),
        # (8/alpha + 7)^scale_count overflows at 1e-8; times verify_factor it is inf at 1e-7
        lambda space: cluster_any_alpha(ps, space, 1e-8, 1.0),
        lambda space: cluster_any_alpha(ps, space, 1e-7, 1.0),
    ]
    for call in calls:
        space = RowCountingLp(2.0, 2)
        with pytest.raises(ArgumentError):
            call(space)
        assert space.rows == 0


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("beta", [0.3, 0.6, 0.9, 0.999])
def test_logtower_buckets_never_split_an_input_the_library_can_hold(beta, k):
    # stage j of cluster_logtower buckets by g_j(n) = min(n, f^(2^(j-1))(n));
    # e shrinks as beta grows, to 16 near beta = 1, and even (log2 n)^16
    # stays above n from n = 3 until far past 2^60
    exponent = int(math.floor(2.0 / logtower_base_fraction(beta, k)))
    f = _polylog_fn(exponent)
    ns = list(range(3, 4097))
    ns += [m for t in range(12, 61) for m in (2**t - 1, 2**t, 2**t + 1) if m <= 2**60]
    ns += [3 * 2**t for t in range(11, 59)]
    for j in range(1, k + 1):
        g = _iterated_bucket_fn(f, 2 ** (j - 1))
        # n = 2 is the one split: two singleton buckets
        assert g(2) == 1.0
        for n in ns:
            assert g(n) == float(n), (beta, k, j, n)
            assert math.ceil(n / g(n)) == 1


# ---------------------------------------------------------------------------
# the below-half recursion without its memo, as the bit-for-bit reference


def _ref_halfplus_center(points, weights, space, alpha, r):
    if points.shape[0] == 1:
        return points[0]
    reduced_pts, v, _ = _pair_reduce_arrays(points, weights, space, r)
    if float(v.sum()) > 0.0:
        coarse = _ref_halfplus_center(reduced_pts, v, space, alpha, 3.0 * r)
    else:
        coarse = reduced_pts[0]
    return _refine_loop(points, weights, space, coarse, alpha, r)[0]


def _ref_below_half_centers(points, weights, space, alpha, r, lo=None, memo=None):
    # lo and memo are accepted so this can stand in for the library's
    # function, and ignored: every row is computed afresh
    n = points.shape[0]
    if n == 1:
        return [points[0]] if weights[0] > 0.0 else []
    w = float(weights.sum())
    if w <= 0.0:
        return []
    half = n // 2
    candidates = _ref_below_half_centers(points[:half], weights[:half], space, alpha, r)
    candidates += _ref_below_half_centers(points[half:], weights[half:], space, alpha, r)
    candidates = _dedupe_rows(candidates)
    y = alpha * w
    C = 2.0 + 2.0 / alpha
    hit = None
    for z in candidates:
        dz = space.distances(points, z)
        near = dz <= (C + 2.0) * r
        bw = float(weights[near].sum())
        if bw < y:
            continue
        fraction = (bw + y) / (2.0 * bw)
        u = _ref_halfplus_center(points, np.where(near, weights, 0.0), space, fraction, r)
        du = space.distances(points, u)
        if float(weights[du <= C * r].sum()) >= y:
            hit = (u, du)
            break
    if hit is None:
        return []
    u, du = hit
    if alpha > 0.5:
        return [u]
    peeled = weights.copy()
    peeled[du <= C * r] = 0.0
    rest = float(peeled.sum())
    if rest < y or rest <= 0.0:
        return [u]
    return [u] + _ref_below_half_centers(points, peeled, space, min(y / rest, 1.0), r)


def _ball_bits(ball):
    if ball is None:
        return None
    center = tuple(float(x).hex() for x in ball.center)
    return center, float(ball.radius).hex(), float(ball.covered_weight).hex()


@st.composite
def _below_half_cases(draw):
    n = draw(st.integers(1, 64))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    clumps = draw(st.integers(1, 4))
    spread = 10.0 ** draw(st.integers(-2, 3))
    anchors = rng.normal(size=(clumps, d)) * spread * 20.0
    points = anchors[rng.integers(0, clumps, size=n)] + rng.normal(size=(n, d)) * spread
    if draw(st.booleans()):
        # duplicate points: copy some rows over others
        src = rng.integers(0, n, size=n // 2)
        points[rng.integers(0, n, size=n // 2)] = points[src]
    if draw(st.booleans()):
        # signed zeros: both 0.0 and -0.0 coordinates, duplicates differing only in sign
        zeros = rng.random(size=points.shape) < 0.3
        points[zeros] = np.where(rng.random(size=points.shape) < 0.5, 0.0, -0.0)[zeros]
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0]), min_size=n, max_size=n)))
    weights[draw(st.integers(0, n - 1))] = 1.0
    alpha = draw(st.one_of(st.sampled_from([0.1, 0.25, 0.3, 0.5, 0.6, 1.0]), st.floats(0.05, 1.0)))
    p = draw(st.sampled_from([1.0, 2.0, 3.0, math.inf]))
    r = spread * 2.0 ** draw(st.integers(-6, 4))
    return points, weights, alpha, p, r


@given(_below_half_cases())
@example((np.array([[0.0], [-0.0], [0.0]]), np.array([1.0, 0.0, 1.0]), 0.3, 2.0, 1.0))
@example((np.zeros((5, 2)), np.array([0.0, 1.0, 0.0, 0.0, 0.0]), 0.1, math.inf, 1.0))
@settings(max_examples=120, deadline=None)
def test_memoized_below_half_recursion_matches_the_reference_bit_for_bit(case):
    points, weights, alpha, p, r = case
    ps = WeightedPointSet.from_coords(points, weights)
    d = points.shape[1]
    fast, slow = RowCountingLp(p, d), RowCountingLp(p, d)
    got_cover = below_half_cover(ps, fast, alpha, r)
    got_ball = cluster_any_alpha(ps, fast, alpha, r)
    with mock.patch.object(cover, "_below_half_centers", _ref_below_half_centers):
        want_cover = below_half_cover(ps, slow, alpha, r)
        want_ball = cluster_any_alpha(ps, slow, alpha, r)
    assert len(got_cover.balls) == len(want_cover.balls)
    assert [_ball_bits(b) for b in got_cover.balls] == [_ball_bits(b) for b in want_cover.balls]
    assert _ball_bits(got_ball) == _ball_bits(want_ball)
    assert fast.rows <= slow.rows
    # every memo entry is what its key says: a block's distance row to a
    # center, or a block's first-level pair norms
    padded, padded_weights = cover._pad_pow2(points, weights)
    memo = {}
    list(cover._below_half_centers(padded, padded_weights, slow, alpha, r, 0, memo))
    # some point has positive weight, so any block of two or more points
    # computes at least one distance row
    assert memo or padded.shape[0] == 1
    for key, row in memo.items():
        block = padded[key[0] : key[0] + key[1]]
        if len(key) == 3:
            want = slow.distances(block, np.frombuffer(key[2]))
        else:
            want = slow.norms(block[0::2] - block[1::2])
        assert row.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# norm rows of the lazy below-half recursion on planted gap instances


def _gap_rows_per_point(solve, n):
    inst = generate_planted("lp", n=n, d=2, alpha=0.3, r=1.0, seed=1, mode="gap")
    space = RowCountingLp(2.0, 2)
    solve(inst.ps, space, 0.3, inst.r)
    return space.rows / n


def _loglog_slope(ns, per_point):
    return float(np.polyfit(np.log(ns), np.log(np.multiply(ns, per_point)), 1)[0])


def test_lazy_below_half_norm_rows_are_linear_in_n_on_planted_gap_instances():
    """Norm rows of cluster_any_alpha and below_half_cover on planted l_2,
    d=2, alpha 0.3 gap instances (seed 1).

    This pins what the lazy recursion does on these instances, not the
    paper's worst-case bound.  Measured rows per point: cluster_any_alpha
    14.3 / 14.5 / 14.5 / 14.5 at n = 1,024 / 4,096 / 16,384 / 65,536
    (log-log slope 1.003); below_half_cover 21.0 / 20.5 / 20.5 at n =
    1,024 / 4,096 / 16,384 (slope 0.992).  The bounds, 16 and 23, are
    about 10% above the largest measured value.
    """
    ns = [1024, 4096, 16384, 65536]
    any_alpha = [_gap_rows_per_point(cluster_any_alpha, n) for n in ns]
    assert max(any_alpha) < 16.0, any_alpha
    assert abs(_loglog_slope(ns, any_alpha) - 1.0) <= 0.1
    cover_ns = ns[:3]
    covers = [_gap_rows_per_point(below_half_cover, n) for n in cover_ns]
    assert max(covers) < 23.0, covers
    assert abs(_loglog_slope(cover_ns, covers) - 1.0) <= 0.1


def test_lazy_below_half_recursion_skips_most_rows_of_the_eager_reference():
    # cluster_any_alpha stops at its first verified center; the eager
    # reference builds every candidate list in full.  Measured at n=1,024:
    # 14.3 rows per point lazily, 447.6 with the reference
    lazy = _gap_rows_per_point(cluster_any_alpha, 1024)
    with mock.patch.object(cover, "_below_half_centers", _ref_below_half_centers):
        eager = _gap_rows_per_point(cluster_any_alpha, 1024)
    assert 4.0 * lazy <= eager, (lazy, eager)
