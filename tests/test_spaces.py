"""Column kernels: pinned to the first formula in every layout, blocked difference batches, dimension checks, the norms hook, the rounding allowance."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onecenter import (
    ArgumentError, LpSpace, NormedSpaceOps, OperatorNormSpace, cluster_halfplus, generate_planted,
    lp_coordinate_median, spaces,
)

from conftest import RowCountingLp

P_VALUES = [1.0, 1.5, 2.0, 3.0, math.inf]


def _abs_norms(p, vs):
    """Row norms as first written: one abs pass, then the p formula."""
    a = np.abs(np.asarray(vs, dtype=np.float64))
    if math.isinf(p):
        return a.max(axis=1)
    if p == 1.0:
        return a.sum(axis=1)
    if p == 2.0:
        return np.sqrt((a * a).sum(axis=1))
    return (a**p).sum(axis=1) ** (1.0 / p)


def _hex(xs):
    return [float(x).hex() for x in xs]


class _CountingLp(LpSpace):
    """Overrides only ``norms`` and records the row count of every batch."""

    def __init__(self, p, d):
        super().__init__(p, d)
        self.batches = []

    def norms(self, vs):
        self.batches.append(len(vs))
        return super().norms(vs)


# signed zeros, and magnitudes whose powers underflow or overflow
_ENTRY = st.sampled_from([0.0, -0.0, 1e-200, -1e-200, 1e200, -1e200, 1.0, -2.5]) | st.floats(
    -1e6, 1e6, allow_nan=False
)


@given(
    p=st.sampled_from(P_VALUES),
    d=st.integers(1, 5),
    m=st.integers(1, 6),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_lp_kernels_equal_abs_formula_bit_for_bit(p, d, m, data):
    rows = np.array(data.draw(st.lists(_ENTRY, min_size=m * d, max_size=m * d))).reshape(m, d)
    center = np.array(data.draw(st.lists(_ENTRY, min_size=d, max_size=d)))
    space = _CountingLp(p, d)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        want = _hex(_abs_norms(p, rows))
        assert _hex(space.norms(rows)) == want
        assert _hex(space.norms(rows.tolist())) == want
        assert _hex(space.norms(rows.astype(np.float32))) == _hex(_abs_norms(p, rows.astype(np.float32)))
        assert _hex(space.norm(row) for row in rows) == want
        assert _hex(space.norm(row.tolist()) for row in rows) == want
        space.batches.clear()
        for points in (rows, rows.tolist(), rows.astype(np.float32)):
            got = space.distances(points, center)
            assert _hex(got) == _hex(_abs_norms(p, np.asarray(points, dtype=np.float64) - center))
        assert _hex(space.distances(rows, center.tolist())) == _hex(_abs_norms(p, rows - center))
    # under one block, one full batch per distances call; norm never goes through norms
    assert space.batches == [m] * 4


@pytest.mark.parametrize("p", P_VALUES)
def test_overflowing_rows_give_the_same_inf(p):
    rows = np.array([[1e200, 1e200], [-1e200, 0.0], [1e-200, -1e-200], [-0.0, -0.0]])
    with np.errstate(over="ignore", under="ignore"):
        got, want = LpSpace(p, 2).norms(rows), _abs_norms(p, rows)
    assert _hex(got) == _hex(want)
    if 2.0 <= p < math.inf:  # 1e200 squared or cubed overflows
        assert got[0] == math.inf
    assert got[3].hex() == "0x0.0p+0"


# every width where the pairwise order changes shape: sequential below 8,
# eight accumulators and a tail up to 128, split halves past it
_PARITY_DIMS = list(range(1, 40)) + [63, 64, 65, 127, 128, 129, 200, 257, 300]


@pytest.mark.parametrize("d", _PARITY_DIMS)
def test_column_kernels_give_the_c_ordered_row_sum_bits_in_every_layout(d):
    rng = np.random.default_rng(d)
    for m in (1, 2, 7, 300):
        c = rng.normal(size=(m, d)) * 2.0 ** rng.integers(-30, 30, size=(m, d))
        c[rng.random((m, d)) < 0.05] = 0.0
        wide = np.zeros((2 * m, 3 * d))
        wide[::2, ::3] = c
        layouts = (c, np.asfortranarray(c), wide[::2, ::3], np.asfortranarray(wide)[::2, ::3],
                   c[::-1, ::-1].copy()[::-1, ::-1])
        for p in P_VALUES:
            want = _hex(_abs_norms(p, c))
            for rows in layouts:
                before = rows.copy()
                assert _hex(LpSpace(p, d).norms(rows)) == want, (p, m, rows.flags.c_contiguous)
                assert np.array_equal(rows, before)  # norms never writes its input


def _batches(m):
    """Row counts of the ``norms`` calls behind one m-row difference batch."""
    block = spaces._BLOCK
    return [min(block, m - lo) for lo in range(0, m, block)]


_BLOCKED_SPACES = [(p, d) for p in P_VALUES for d in (1, 3, 8, 9)] + [("op", 1), ("op", 4), ("op", 9)]


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("p, d", _BLOCKED_SPACES, ids=str)
def test_blocked_distances_and_gaps_equal_the_single_call_bit_for_bit(layout, p, d):
    # batches longer than one block are subtracted and normed block by
    # block in every layout, and each norm has the bits of the formula
    # on the C-ordered difference
    block = spaces._BLOCK
    rng = np.random.default_rng(d)
    space = OperatorNormSpace(math.isqrt(d)) if p == "op" else LpSpace(p, d)
    norms = space.norms
    if p == "op":
        formula = norms
    else:
        formula = lambda diff: _abs_norms(p, diff)  # noqa: E731
    batches = []  # row count of every norms call; together they hold each row once
    space.norms = lambda vs: (batches.append(len(vs)), norms(vs))[1]
    for m in (1, block - 1, block, block + 1, 3 * block + 5):
        x = rng.normal(size=(4 * m, d)) * 2.0 ** rng.integers(-30, 30, size=(4 * m, d))
        rows = {"C": x[:m], "F": np.asfortranarray(x[:m]), "strided": x[: 2 * m : 2]}[layout]
        pairs = {"C": x[: 2 * m], "F": np.asfortranarray(x[: 2 * m]), "strided": x[::2]}[layout]
        crows, cpairs = np.ascontiguousarray(rows), np.ascontiguousarray(pairs)
        center = rng.normal(size=d)
        assert _hex(norms(rows)) == _hex(formula(crows))
        batches.clear()
        assert _hex(space.distances(rows, center)) == _hex(formula(crows - center))
        assert batches == _batches(m)
        batches.clear()
        assert _hex(spaces._pair_gaps(space, pairs)) == _hex(formula(cpairs[0::2] - cpairs[1::2]))
        assert batches == _batches(m)


@pytest.mark.parametrize("p", P_VALUES)
def test_distances_on_a_long_c_batch_allocate_no_m_by_d_difference(p):
    m, d = 1 << 17, 8
    rng = np.random.default_rng(0)
    points, center = rng.normal(size=(m, d)), rng.normal(size=d)
    space = LpSpace(p, d)
    space.distances(points, center)  # first-call set-up is not the kernel's
    tracemalloc.start()
    try:
        space.distances(points, center)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * d * 8 / 4


def test_solver_row_counts_past_one_block_are_unchanged():
    # blocks split batches, never rows; pinned with the refine loop's
    # certified rows and its stationary steps as threshold tests (27,457
    # when those steps looked up each mask's farthest member, 51,766 when
    # every refine pass computed its row)
    inst = generate_planted("lp", n=9000, d=3, alpha=0.75, seed=4, weights="dyadic")
    space = RowCountingLp(2.0, 3)
    cluster_halfplus(inst.ps, space, 0.75, inst.r)
    assert space.rows == 27305
    x = lp_coordinate_median(inst.ps, space, 0.75)
    assert space.rows == 27305  # selection only
    space.distances(inst.ps.coords, x)
    assert space.rows == 27305 + 9000


@pytest.mark.parametrize("p", P_VALUES)
def test_wrong_dimensions_raise_argument_error(p):
    space = LpSpace(p, 2)
    with pytest.raises(ArgumentError):
        space.norm([3.0, 4.0, 5.0])
    with pytest.raises(ArgumentError):
        space.norm([[3.0, 4.0]])
    with pytest.raises(ArgumentError):
        space.norms(np.array([3.0, 4.0]))
    with pytest.raises(ArgumentError):
        space.norms(np.ones((4, 3)))
    with pytest.raises(ArgumentError):
        space.distances(np.ones((4, 2)), [1.0, 2.0, 3.0])
    with pytest.raises(ArgumentError):
        space.distances(np.ones((4, 2)), [1.0])  # would broadcast
    with pytest.raises(ArgumentError):
        space.distances(np.ones((4, 1)), [1.0, 2.0])  # would broadcast
    with pytest.raises(ArgumentError):
        space.distances(np.ones(2), [1.0, 2.0])
    assert space.norms(np.empty((0, 2))).shape == (0,)


def test_norms_is_the_one_abstract_method():
    assert NormedSpaceOps.__abstractmethods__ == frozenset({"norms"})


@pytest.mark.parametrize("space", [LpSpace(p, 4) for p in (1.0, 2.0, 3.0, math.inf)]
                         + [OperatorNormSpace(k) for k in (1, 2, 3, 5)], ids=repr)
def test_norm_is_the_one_row_norms_call_bit_for_bit(space):
    rng = np.random.default_rng(17)
    rows = [rng.normal(size=space.d) * 2.0**e for e in (-600, -40, 0, 7, 600)]
    rows += [np.zeros(space.d), np.ones(space.d), np.where(rng.random(space.d) < 0.5, 1.0, -1.0)]
    with np.errstate(over="ignore"):  # l_p rows at 2^600 overflow to inf alike
        for v in rows:
            assert space.norm(v).hex() == float(space.norms(v[None, :])[0]).hex()
    with pytest.raises(ArgumentError, match="vector of length"):
        space.norm(np.zeros(space.d + 1))


def _within_allowance(value, terms, p, rel, tau):
    """Whether a computed row value is within rel (relative) plus tau of
    the exact l_p norm of the exact difference terms (Fractions)."""
    v = Fraction(value)
    if p != 2.0:
        z = max(abs(t) for t in terms) if math.isinf(p) else sum(abs(t) for t in terms)
        return abs(v - z) <= rel * z + tau
    sq = sum(t * t for t in terms)  # compare squares: sqrt(sq) is not a Fraction
    upper = v - tau <= 0 or (v - tau) ** 2 <= (1 + rel) ** 2 * sq
    return upper and (1 - rel) ** 2 * sq <= (v + tau) ** 2


@given(
    p=st.sampled_from([1.0, 2.0, math.inf]),
    d=st.integers(1, 70),
    seed=st.integers(0, 2**32 - 1),
    low=st.integers(-1074, 440),
    spread=st.integers(0, 60),
)
@settings(max_examples=200, deadline=None)
def test_row_values_are_within_an_eighth_of_the_stated_allowance(p, d, seed, low, spread):
    # coordinates of mixed magnitudes, subnormal ones included, so that
    # differences, sums and (for p = 2) squares round or underflow; none
    # overflows, which the allowance does not cover
    rng = np.random.default_rng(seed)
    top = min(low + spread, 440)
    points = rng.normal(size=(12, d)) * np.exp2(rng.integers(low, top + 1, size=(12, d)))
    center = rng.normal(size=d) * np.exp2(rng.integers(low, top + 1, size=d))
    space = LpSpace(p, d)
    rel = Fraction(space._allowance) / 8
    tau = Fraction(2) ** -500
    values = space.distances(points, center)
    for x, value in zip(points, values):
        terms = [Fraction(a) - Fraction(b) for a, b in zip(x.tolist(), center.tolist())]
        assert _within_allowance(float(value), terms, p, rel, tau), (p, d, value)


def test_allowance_is_stated_for_p_1_2_inf_only_and_inherited():
    eps = np.finfo(np.float64).eps
    for p in (1.0, 2.0, math.inf):
        assert LpSpace(p, 5)._allowance == 4 * 9 * eps
        assert RowCountingLp(p, 5)._allowance == 4 * 9 * eps
    for space in (LpSpace(1.5, 5), LpSpace(3.0, 5), OperatorNormSpace(2)):
        assert space._allowance is None


@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_norms_of_more_than_one_block_equal_blocked_distances(p, layout):
    rng = np.random.default_rng(int(min(p, 9)))
    vs = rng.normal(size=(2 * spaces._BLOCK + 5, 7)) * 3.0
    if layout == "F":
        vs = np.asfortranarray(vs)
    elif layout == "strided":
        vs = np.ascontiguousarray(np.repeat(vs, 2, axis=1))[:, ::2]
    before = vs.copy()
    space = LpSpace(p, 7)
    got = space.norms(vs)
    assert got.tobytes() == space.distances(vs, np.zeros(7)).tobytes()
    assert got.tobytes() == np.concatenate([space.norms(vs[lo : lo + 1000]) for lo in range(0, len(vs), 1000)]).tobytes()
    assert np.array_equal(vs, before)
