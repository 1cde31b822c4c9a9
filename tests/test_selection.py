"""Weighted selection: pinned examples, oracle cross-checks, and properties."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onecenter import (
    ArgumentError,
    kernel_backend,
    select_rows,
    smallest_radius_at_weight,
    weighted_median,
    weighted_quantile_radius,
)
from onecenter import selection
from onecenter.selection import best_candidate

from conftest import scan_select


def test_median_symmetric_odd_case():
    assert weighted_median([1, 2, 3], [1, 1, 1]) == 2


def test_median_heavy_first_entry():
    # cumulative weight at value 0 is 3 >= 2 = half the total
    assert weighted_median([0, 10], [3, 1]) == 0


def test_median_matches_scan_oracle_on_1000_random_entries():
    rng = np.random.default_rng(20260814)
    values = rng.normal(size=1000) * 50.0
    weights = rng.uniform(0.0, 3.0, size=1000)
    expected = scan_select(values, weights, 0.5 * float(weights.sum()))
    assert weighted_median(values, weights) == expected


def test_median_matches_scan_oracle_many_shapes():
    rng = np.random.default_rng(11)
    for _ in range(80):
        n = int(rng.integers(1, 200))
        values = np.round(rng.normal(size=n) * 10.0, 2)  # force value ties
        weights = rng.choice([0.0, 0.5, 1.0, 2.0], size=n)
        if weights.sum() == 0.0:
            weights[0] = 1.0
        expected = scan_select(values, weights, 0.5 * float(weights.sum()))
        assert weighted_median(values, weights) == expected


def test_median_uniform_weights_is_classical_lower_median():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4, 7, 10, 101, 256):
        values = rng.normal(size=n)
        lower = float(np.sort(values)[math.ceil(n / 2) - 1])
        assert weighted_median(values, np.ones(n)) == lower


def test_median_permutation_invariant():
    rng = np.random.default_rng(5)
    values = rng.normal(size=301)
    weights = rng.uniform(0.1, 2.0, size=301)
    base = weighted_median(values, weights)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(301)
        assert weighted_median(values[perm], weights[perm]) == base


def test_median_tie_resolves_to_smallest_qualifying_value():
    # both 1.0 entries qualify once the cumulative weight crosses half
    assert weighted_median([2.0, 1.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0]) == 1.0
    # zero-weight smaller value must not win on its own
    assert weighted_median([0.0, 5.0], [0.0, 1.0]) == 5.0


def test_quantile_radius_examples():
    assert weighted_quantile_radius([0, 1, 2], [1, 1, 1], 0.5) == 1
    assert weighted_quantile_radius([0, 1, 2], [1, 1, 1], 1.0) == 2


def test_quantile_radius_matches_scan_oracle_on_500_random_entries():
    rng = np.random.default_rng(77)
    dists = rng.uniform(0.0, 9.0, size=500)
    weights = rng.uniform(0.0, 2.0, size=500)
    for alpha in (0.1, 0.3, 0.5, 0.9, 1.0):
        expected = scan_select(dists, weights, alpha * float(weights.sum()))
        assert weighted_quantile_radius(dists, weights, alpha) == expected


def test_quantile_radius_nondecreasing_in_alpha():
    rng = np.random.default_rng(13)
    dists = rng.uniform(0.0, 5.0, size=400)
    weights = rng.uniform(0.0, 1.0, size=400)
    alphas = np.linspace(0.01, 1.0, 40)
    radii = [weighted_quantile_radius(dists, weights, a) for a in alphas]
    assert all(r1 <= r2 for r1, r2 in zip(radii, radii[1:]))


def test_quantile_radius_alpha_validation():
    for alpha in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ArgumentError):
            weighted_quantile_radius([0, 1], [1, 1], alpha)


def test_smallest_radius_infinite_sentinel_when_target_exceeds_total():
    assert smallest_radius_at_weight([0.0, 1.0], [1.0, 1.0], 3.0) == math.inf


def test_smallest_radius_nonpositive_target_returns_min():
    assert smallest_radius_at_weight([4.0, 2.0, 7.0], [1.0, 1.0, 1.0], 0.0) == 2.0
    assert smallest_radius_at_weight([4.0, 2.0], [1.0, 1.0], -1.0) == 2.0


def test_a_nan_target_is_an_argument_error():
    # both edge-case comparisons are false for NaN, which used to fall
    # through to the row maximum
    with pytest.raises(ArgumentError, match="NaN"):
        smallest_radius_at_weight([1.0, 2.0], [1.0, 1.0], math.nan)
    with pytest.raises(ArgumentError, match="NaN"):
        select_rows([[1.0, 2.0]], [1.0, 1.0], math.nan)


def test_selection_argument_errors():
    with pytest.raises(ArgumentError):
        weighted_median([], [])
    with pytest.raises(ArgumentError):
        weighted_median([1.0, 2.0], [0.0, 0.0])
    with pytest.raises(ArgumentError):
        weighted_median([1.0], [-1.0])
    with pytest.raises(ArgumentError):
        weighted_median([math.nan], [1.0])
    with pytest.raises(ArgumentError):
        weighted_median([1.0, 2.0], [1.0])
    with pytest.raises(ArgumentError):
        weighted_median([[1.0, 2.0]], [[1.0, 1.0]])


def test_selection_rejects_finite_weights_whose_total_overflows():
    # the total overflows to inf, so half of it is inf and only the last
    # cumsum reaches it: 2.0 would come back where 1.0 carries half
    w = [1e308, 1e308]
    calls = [
        lambda: weighted_median([1.0, 2.0], w),
        lambda: weighted_quantile_radius([1.0, 2.0], w, 0.5),
        lambda: smallest_radius_at_weight([1.0, 2.0], w, 1.0),
        lambda: select_rows([[1.0, 2.0]], w, 1.0),
    ]
    for call in calls:
        with np.errstate(over="ignore"), pytest.raises(ArgumentError, match="total is finite"):
            call()


@given(
    data=st.lists(
        st.tuples(
            st.floats(-1e6, 1e6, allow_nan=False),
            st.floats(0.0, 100.0, allow_nan=False),
        ),
        min_size=1,
        max_size=60,
    ),
    alpha=st.floats(0.01, 1.0),
)
@example(data=[(0.0, 0.0), (1.0, 5e-324)], alpha=0.5)  # alpha * total underflows in floats
@settings(max_examples=200, deadline=None)
def test_quantile_radius_is_definitional(data, alpha):
    values = np.array([v for v, _ in data])
    weights = np.array([w for _, w in data])
    if float(weights.sum()) <= 0.0:
        weights[0] = 1.0
    got = weighted_quantile_radius(values, weights, alpha)

    def prefix(t):
        return sum(map(Fraction, weights[values <= t]), Fraction(0))

    # the target and prefix sums are exact, so none of them rounds or underflows
    total = prefix(math.inf)
    target, slack = Fraction(alpha) * total, total / 10**9
    # the returned value is attained and its closed prefix reaches the target
    assert got in values
    assert prefix(got) >= target - slack
    # no strictly smaller attained value reaches the target
    smaller = values[values < got]
    if smaller.size:
        assert prefix(smaller.max()) < target + slack


def test_kernel_backend_reports_known_name():
    assert kernel_backend() == "numpy"


def _rowwise(block, weights, target):
    return [smallest_radius_at_weight(row, weights, target) for row in block]


@st.composite
def _blocks(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 12))
    # a small value alphabet makes ties within a row common
    value = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25]) | st.floats(0.0, 1e3, allow_nan=False)
    block = np.array(draw(st.lists(value, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    weight = st.sampled_from([0.0, 0.1, 0.25, 1.0, 3.0]) | st.floats(0.0, 10.0, allow_nan=False)
    weights = np.array(draw(st.lists(weight, min_size=cols, max_size=cols)))
    total = float(np.sum(weights))
    target = draw(
        st.sampled_from([0.0, -1.0, total, total + 1.0, np.nextafter(total, 0.0)])
        | st.floats(0.0, max(total, 1e-9), allow_nan=False)
    )
    return block, weights, target


@given(_blocks())
@settings(max_examples=400, deadline=None)
def test_select_rows_equals_scalar_selection_row_by_row(case):
    block, weights, target = case
    got = select_rows(block, weights, target)
    assert got.shape == (block.shape[0],)
    # bit for bit, inf included
    assert [x.hex() for x in map(float, got)] == [x.hex() for x in _rowwise(block, weights, target)]


def test_stable_order_equals_a_stable_argsort():
    rng = np.random.default_rng(21)
    # long rows with many ties, where the default sort reorders equal values
    for block in (
        rng.integers(0, 10, size=(8, 500)).astype(float),
        rng.random((3, 300)),
        np.zeros((2, 40)),
        np.array([[0.0, -0.0, 0.0, 1.0]]),
    ):
        assert np.array_equal(selection._stable_order(block), np.argsort(block, axis=1, kind="stable"))


_U = 2.0**-52  # one ulp of 1.0


def _order_family(name, rng, rows, cols):
    if name == "uniform":
        return rng.random((rows, cols))
    if name == "small integers":
        return rng.integers(-3, 4, size=(rows, cols)).astype(float)
    if name == "signed zeros":
        return rng.choice([0.0, -0.0, 1.0, -1.0], size=(rows, cols))
    if name == "subnormals":
        return rng.choice([5e-324, -5e-324, 1e-310, -1e-310, 2.2e-308, 0.0, -0.0], size=(rows, cols))
    if name == "extremes":
        return rng.choice([1e308, -1e308, np.finfo(float).max, -np.finfo(float).max, 1.0, -1.0],
                          size=(rows, cols))
    if name == "all equal":
        return np.full((rows, cols), rng.normal())
    # near-ties: a few values, each moved by up to 2^-40 of itself, so
    # that values differing only in the bits the index replaces meet
    base = rng.normal(size=3) * 2.0 ** rng.integers(-20, 20, size=3)
    return rng.choice(base, size=(rows, cols)) * (1.0 + rng.integers(0, 1 << 12, size=(rows, cols)) * _U)


_FAMILIES = ["uniform", "small integers", "signed zeros", "subnormals", "extremes", "all equal", "near-ties"]


def _argsort_spy(monkeypatch):
    """Patch ``np.argsort``; the returned list gets the shape of the
    argument of every later call, in order."""
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda a, *args, **kw: (calls.append(np.shape(a)), argsort(a, *args, **kw))[1])
    return calls


@pytest.mark.parametrize("family", _FAMILIES)
def test_stable_order_equals_a_stable_argsort_on_every_family(family, monkeypatch):
    # lengths 1, 2, 2^k and 2^k + 1: where the index takes one bit more
    calls = _argsort_spy(monkeypatch)
    resorted = 0
    rng = np.random.default_rng(_FAMILIES.index(family))
    for cols in (1, 2, 3, 4, 5, 8, 9, 64, 65, 4096, 4097):
        for _ in range(3):
            block = _order_family(family, rng, 4, cols)
            want = np.argsort(block, axis=1, kind="stable")
            calls.clear()
            assert np.array_equal(selection._stable_order(block), want), (family, cols)
            # at most one fallback argsort, and no row in it twice
            assert len(calls) <= 1 and all(shape[0] <= 4 for shape in calls)
            resorted += len(calls)
    if family == "near-ties":
        assert resorted


def _padded_aliases(rng, rows, cols):
    # as in a padded metric block: the last 96 columns alias column 0
    block = rng.random((rows, cols + 96))
    block[:, cols:] = block[:, :1]
    return block


@pytest.mark.parametrize("family", ["no negatives", "exactly one negative", "96 padded aliases"])
def test_stable_order_on_sign_and_alias_families(family):
    rng = np.random.default_rng(3)
    for cols in (1, 2, 63, 64, 65, 4000):
        for _ in range(3):
            if family == "no negatives":
                block = rng.choice([0.0, -0.0, 0.5, 1.0, 2.0], size=(4, cols)) * rng.integers(1, 3, size=(4, cols))
            elif family == "exactly one negative":
                block = rng.choice([0.0, -0.0, 1.0, 3.0], size=(4, cols))
                block.flat[int(rng.integers(block.size))] = -float(rng.choice([0.5, 1.0, 5e-324]))
            else:
                block = _padded_aliases(rng, 4, cols)
            want = np.argsort(block, axis=1, kind="stable")
            assert np.array_equal(selection._stable_order(block), want), (family, cols)


def test_stable_order_repairs_a_group_whose_index_bits_invert_value_order(monkeypatch):
    # with 8 columns the index fills the low 3 bits, so 1 + 5u and 1 + 3u
    # get one truncated key, 1.0's, and sort by index: an inversion
    row = np.array([[1 + 5 * _U, 1 + 3 * _U, 1.0, 2.0, 1 + 3 * _U, 0.5, 1 + 5 * _U, 1 + 4 * _U]])
    block = np.vstack([row, row[:, ::-1], np.arange(8.0)[None, :]])
    want = np.argsort(block, axis=1, kind="stable")
    calls = _argsort_spy(monkeypatch)
    assert np.array_equal(selection._stable_order(block), want)
    assert calls == [(2, 8)]  # rows 0 and 1, whole, in one call; row 2 is clean
    calls.clear()
    assert np.array_equal(selection._stable_order(block[2:]), [np.arange(8)])
    assert calls == []


def test_stable_order_resorts_rows_of_inverted_one_ulp_pairs_whole_in_one_argsort(monkeypatch):
    # 1, 1, 2, 2, ... with each even index one ulp higher: every pair of
    # a row shares its truncated key and comes out inverted, 2,048 pairs a row
    vals = np.repeat(np.arange(1.0, 2049.0), 2)
    vals[0::2] = np.nextafter(vals[0::2], math.inf)
    block = np.tile(vals, (64, 1))
    block[1::2] *= 3.0  # another scale on odd rows, with the same inversions
    want = np.argsort(block, axis=1, kind="stable")
    calls = _argsort_spy(monkeypatch)
    got = selection._stable_order(block)
    assert calls == [(64, 4096)]  # one stable argsort, each row once
    assert np.array_equal(got, want)
    assert [float(x).hex() for x in np.take_along_axis(block, got, axis=1).ravel()] == [
        float(x).hex() for x in np.take_along_axis(block, want, axis=1).ravel()
    ]
    calls.clear()
    w = np.ones(4096)
    radii = select_rows(block, w, 1000.0)
    assert len(calls) == 1 and calls[0][0] <= 64
    assert [r.hex() for r in radii] == [_stable_argsort_select(row, w, 1000.0).hex() for row in block]


def test_select_rows_edge_cases():
    block = np.array([[4.0, 2.0, 7.0], [1.0, 1.0, 0.5]])
    w = np.ones(3)
    assert list(select_rows(block, w, 3.5)) == [math.inf, math.inf]
    assert list(select_rows(block, w, 0.0)) == [2.0, 0.5]
    assert list(select_rows(block, w, -2.0)) == [2.0, 0.5]
    # ties: equal values are taken in index order, so zero weights sit
    # where a stable sort puts them
    tied = np.array([[1.0, 1.0, 1.0, 2.0], [2.0, 1.0, 2.0, 1.0]])
    assert list(select_rows(tied, [0.0, 1.0, 0.0, 1.0], 2.0)) == _rowwise(tied, [0.0, 1.0, 0.0, 1.0], 2.0)


def test_select_rows_target_equal_to_a_total_the_cumsum_rounds_below():
    w = np.full(10, 0.1)
    total = float(np.sum(w))
    assert np.cumsum(w)[-1] < total  # the pairwise sum rounds up, the running sum down
    block = np.array([np.arange(10.0), np.arange(10.0)[::-1]])
    assert list(select_rows(block, w, total)) == [9.0, 9.0] == _rowwise(block, w, total)


def test_select_rows_argument_errors():
    for block, w in [
        ([1.0, 2.0], [1.0, 1.0]),  # one row is not a block
        ([[1.0, 2.0]], [[1.0, 1.0]]),
        ([[1.0, 2.0]], [1.0]),
        (np.zeros((2, 0)), []),
        ([[1.0, math.nan]], [1.0, 1.0]),
        ([[1.0, math.inf]], [1.0, 1.0]),
        ([[1.0, 2.0]], [1.0, -1.0]),
        ([[1.0, 2.0]], [1.0, math.inf]),
    ]:
        with pytest.raises(ArgumentError):
            select_rows(block, w, 1.0)


def _best_by_loop(block, candidates, weights, target, radius=smallest_radius_at_weight):
    best_i, best_s = -1, math.inf
    for c in candidates:
        s = radius(block[c], weights, target)
        if s < best_s or (s == best_s and c < best_i):
            best_i, best_s = c, s
    return best_i, best_s


@pytest.mark.parametrize("budget", [1, 7, 1 << 18])
def test_best_candidate_lowest_index_wins_across_chunks(monkeypatch, budget):
    monkeypatch.setattr(selection, "BLOCK_ELEMS", budget)
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 30))
        block = rng.integers(0, 4, size=(n, n)).astype(float)
        weights = rng.choice([0.0, 1.0, 2.0], size=n)
        target = float(rng.uniform(0.0, weights.sum() + 1.0))
        candidates = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        fetched = []

        def fetch(chunk):
            fetched.append(len(chunk) * n)
            return block[chunk]

        i, s, row = best_candidate(fetch, candidates, weights, target)
        assert (i, s) == _best_by_loop(block, candidates, weights, target)
        if i < 0:
            assert row is None
        else:
            assert np.array_equal(row, block[i])
        assert max(fetched) <= max(budget, n)


def test_best_candidate_without_a_finite_radius_has_no_winner():
    block = np.zeros((3, 3))
    assert best_candidate(lambda c: block[c], [2, 0, 1], np.ones(3), 4.0) == (-1, math.inf, None)
    assert best_candidate(lambda c: block[c], [], np.ones(3), 1.0) == (-1, math.inf, None)


def _reference_radius(values, weights, target):
    """The row's radius by a plain stable argsort and scan, sharing no
    code with the library's path."""
    if target > float(np.sum(weights)):
        return math.inf
    if target <= 0.0:
        return float(np.min(values))
    return _stable_argsort_select(values, weights, target)


def _wide_case(family, rng):
    """A block wide enough to prune, its weights with zero-weight
    columns, and a target."""
    rows, cols = int(rng.integers(8, 40)), int(rng.integers(40, 160))
    block = rng.random((rows, cols)) * 10.0
    weights = rng.choice([0.5, 1.0, 2.0], size=cols)
    weights[rng.random(cols) < 0.2] = 0.0
    weights[0] = 1.0
    if family == "near-ties":
        # rows a few ulps apart, and tenths whose running sums round, so
        # held weights land inside the slack; a few far rows get pruned
        base = np.round(rng.random(cols) * 4.0, 1)
        block = base + rng.integers(0, 3, size=(rows, cols)) * np.spacing(base + 1.0)
        block[rng.random(rows) < 0.3] += 5.0
        weights = np.where(weights > 0.0, 0.1, 0.0)
        prefix = np.cumsum(weights[np.argsort(block[0], kind="stable")])
        target = float(rng.choice(prefix[prefix > 0.0]))
        return block, weights, float(np.nextafter(target, rng.choice([0.0, np.inf])))
    if family == "tiny weights":
        weights = np.where(weights > 0.0, 10.0 ** rng.uniform(-16.0, 0.0, size=cols), 0.0)
    elif family == "one positive weight":
        weights = np.zeros(cols)
        weights[int(rng.integers(cols))] = float(rng.choice([1e-300, 0.1, 3.0]))
    elif family == "rounds short":
        # the running sum may end below np.sum's total: those rows
        # return their whole row's largest value
        weights = np.where(weights > 0.0, 0.1, 0.0)
        return block, weights, float(np.sum(weights))
    elif family == "target edges":
        total = float(np.sum(weights))
        return block, weights, float(rng.choice([0.0, -1.0, np.nextafter(total, np.inf), total + 1.0]))
    return block, weights, float(np.sum(weights) * rng.uniform(0.05, 1.0))


_WIDE_FAMILIES = ["uniform", "near-ties", "tiny weights", "one positive weight", "rounds short", "target edges"]


@pytest.mark.parametrize("budget", [1, 5 * 160, 1 << 18])
@pytest.mark.parametrize("family", _WIDE_FAMILIES)
def test_best_candidate_equals_the_loop_bit_for_bit_on_wide_blocks(family, budget, monkeypatch):
    monkeypatch.setattr(selection, "BLOCK_ELEMS", budget)
    monkeypatch.setattr(selection, "_PRUNE_MIN_COLS", 32)
    pruned, compacted = [], []
    near_rows, stable_order = selection._near_rows, selection._stable_order

    def near_rows_spy(v, *args):
        rows = near_rows(v, *args)
        pruned.append(rows.size < v.shape[0])
        return rows

    def stable_order_spy(v):
        compacted.append(v.shape[1] < len(weights))
        return stable_order(v)

    monkeypatch.setattr(selection, "_near_rows", near_rows_spy)
    monkeypatch.setattr(selection, "_stable_order", stable_order_spy)
    rng = np.random.default_rng(_WIDE_FAMILIES.index(family))
    for _ in range(25):
        block, weights, target = _wide_case(family, rng)
        candidates = rng.permutation(block.shape[0])[: int(rng.integers(1, block.shape[0] + 1))]
        i, s, row = best_candidate(lambda chunk: block[chunk], candidates, weights, target)
        want_i, want_s = _best_by_loop(block, candidates, weights, target, radius=_reference_radius)
        assert (i, s.hex()) == (want_i, float(want_s).hex())
        if i < 0:
            assert row is None
        else:
            assert np.array_equal(row, block[i])
    if family != "target edges":
        assert any(pruned) and any(compacted)


def test_best_candidate_validates_as_select_rows_does_and_only_once(monkeypatch):
    monkeypatch.setattr(selection, "BLOCK_ELEMS", 4)  # one two-column row per chunk
    good = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    late_nan = good.copy()
    late_nan[2, 1] = math.nan
    cases = [
        (np.array([[math.nan, 1.0]] * 3), [1.0, -1.0], 1.0),  # values before weights
        (good, [1.0, -1.0], math.nan),  # weights before the target
        (good, [1e308, 1e308], 1.0),  # a total that overflows
        (good, [1.0, 1.0], math.nan),
        (late_nan, [1.0, 1.0], 1.0),  # a defect in a later chunk only
        (good[:, :1], [1.0, 1.0], 1.0),
    ]
    for block, weights, target in cases:
        with np.errstate(over="ignore"):
            with pytest.raises(ArgumentError) as want:
                select_rows(block, weights, target)
            with pytest.raises(ArgumentError) as got:
                best_candidate(lambda chunk: block[chunk], [0, 1, 2], weights, target)
        assert str(got.value) == str(want.value)
    checked = []
    total = selection._checked_total
    monkeypatch.setattr(selection, "_checked_total", lambda w: (checked.append(1), total(w))[1])
    assert best_candidate(lambda chunk: good[chunk], [2, 0, 1], [1.0, 1.0], 1.0)[:2] == (0, 1.0)
    assert len(checked) == 1
    # with no candidates nothing is fetched or checked
    assert best_candidate(lambda chunk: 1 / 0, [], [-1.0], math.nan) == (-1, math.inf, None)
    assert len(checked) == 1


def _stable_argsort_select(values, weights, target):
    """The numpy single-row selection as first written: stable argsort,
    cumsum, the first index reaching the target, else the last index."""
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    idx = min(int(np.searchsorted(cum, target, side="left")), len(cum) - 1)
    return float(values[order[idx]])


@st.composite
def _selection_cases(draw):
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ties", "equal", "signed-zeros", "spread"]))
    if kind == "ties":  # few distinct values, so long tie runs
        values = rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0], size=n)
    elif kind == "equal":
        values = np.full(n, draw(st.sampled_from([-0.0, 0.0, 3.0])))
    elif kind == "signed-zeros":
        values = rng.choice([-0.0, 0.0], size=n)
    else:
        values = rng.normal(size=n)
    # zero weights, and tenths whose running sums round away from the total
    weights = rng.choice([0.0, 0.1, 1.0, 3.0], size=n)
    if weights.sum() == 0.0:
        weights[rng.integers(n)] = 0.1
    total = float(np.sum(weights))
    prefix = np.cumsum(weights[np.argsort(values, kind="stable")])
    kind = draw(st.sampled_from(["prefix", "total", "below-total", "uniform"]))
    if kind == "prefix":  # equal to an exact running sum
        target = float(rng.choice(prefix[prefix > 0.0]))
    elif kind == "total":  # may exceed the last running sum: last-index fallback
        target = total
    elif kind == "below-total":
        target = float(np.nextafter(total, 0.0))
    else:
        target = float(total * rng.random()) or total
    return values, weights, target


@given(_selection_cases())
@settings(max_examples=300, deadline=None)
def test_smallest_radius_at_weight_equals_stable_argsort_scan_bit_for_bit(case):
    values, weights, target = case
    # a "prefix" target is a sequential running sum, which can round above
    # np.sum's pairwise total; the public function answers inf there
    if target > float(np.sum(weights)):
        expected = math.inf
    else:
        expected = _stable_argsort_select(values, weights, target)
    # float.hex tells -0.0 from 0.0
    assert smallest_radius_at_weight(values, weights, target).hex() == expected.hex()


@pytest.mark.parametrize(
    "values, weights, target",
    [
        ([-0.0], [2.0], 1.0),  # n = 1
        ([0.0, -0.0, 0.0, -0.0], [0.0, 1.0, 1.0, 1.0], 1.0),  # signed zeros tie
        ([-0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 0.5),  # zero weights lead the run
        ([5.0] * 1000, [0.0, 1.0] * 500, 250.0),  # one long run, exact prefix
        ([3.0, 1.0, 2.0, 1.0], [1.0, 0.0, 2.0, 1.0], 1.0),  # exact prefix at a tie
        (list(range(10)), [0.1] * 10, float(np.sum([0.1] * 10))),  # cumsum rounds below
        ([2.0, 2.0, 1.0] * 5, [0.1] * 15, float(np.sum([0.1] * 15))),
    ],
)
def test_smallest_radius_at_weight_pinned_to_stable_argsort_scan(values, weights, target):
    values, weights = np.array(values), np.array(weights)
    assert smallest_radius_at_weight(values, weights, target).hex() == _stable_argsort_select(values, weights, target).hex()


def test_smallest_radius_at_weight_last_index_fallback_is_reached():
    values, weights = np.arange(10.0)[::-1].copy(), np.full(10, 0.1)
    total = float(np.sum(weights))
    assert np.cumsum(weights)[-1] < total
    assert smallest_radius_at_weight(values, weights, total) == 9.0 == _stable_argsort_select(values, weights, total)


# The bracketed selection is tried on rows at least _BRACKET_MIN_COLS
# wide; lowered here, with a sample of every (cols >> 8)-th column, it
# runs on rows of a few thousand values.
_LOW_CUT, _LOW_SHIFT = 1024, 8


def _bracket_spy(monkeypatch, low=True):
    """Record each ``_bracket_rows`` result, NaN marking a row handed
    back to the full scan; with ``low``, lower the cut-off first."""
    if low:
        monkeypatch.setattr(selection, "_BRACKET_MIN_COLS", _LOW_CUT)
        monkeypatch.setattr(selection, "_SAMPLE_SHIFT", _LOW_SHIFT)
    seen = []
    bracket_rows = selection._bracket_rows

    def spy(*args):
        out = bracket_rows(*args)
        seen.append(out.copy())  # _scan_rows fills the NaN rows in place
        return out

    monkeypatch.setattr(selection, "_bracket_rows", spy)
    return seen


def _full_scan(monkeypatch, fn):
    """``fn()`` with every row scanned whole, as below the cut-off."""
    with monkeypatch.context() as m:
        m.setattr(selection, "_BRACKET_MIN_COLS", 1 << 62)
        return fn()


def _bracket_case(family, rng):
    """A block of rows at least the lowered cut-off wide, weights, and targets."""
    rows, cols = int(rng.integers(1, 4)), int(rng.integers(_LOW_CUT, 4 * _LOW_CUT))
    weights = rng.integers(512, 1537, size=cols) / 1024.0
    fractions = [0.05, 0.5, 0.75, 0.97]
    if family == "planted normals":
        # distances to a planted center: three quarters of the weight near it
        near = rng.random((rows, cols)) < 0.75
        block = np.abs(np.where(near, rng.normal(size=(rows, cols)), 100.0 + rng.normal(size=(rows, cols))))
    elif family == "ties at the answer":
        # a handful of values, so lo, hi and the answer each sit in a long tie run
        block = rng.choice([0.5, 1.0, 1.5, 2.0], size=(rows, cols), p=[0.4, 0.1, 0.4, 0.1])
        weights = np.ones(cols)
    elif family == "tiny and zero weights":
        block = rng.normal(size=(rows, cols))
        weights = 10.0 ** rng.uniform(-16.0, 0.0, size=cols)
        weights[rng.random(cols) < 0.2] = 0.0
    elif family == "signed zeros":
        block = rng.choice([-0.0, 0.0, -1.0, 1.0], size=(rows, cols), p=[0.3, 0.3, 0.2, 0.2])
    elif family == "one heavy weight":
        block = rng.normal(size=(rows, cols))
        weights[int(rng.integers(cols))] = 1.5 * float(np.sum(weights))
        fractions = [0.2, 0.5, 0.6]
    else:  # "near the total": targets within one weight of the total
        block = rng.normal(size=(rows, cols))
        total = float(np.sum(weights))
        return block, weights, [total - 0.5 * float(weights.min()), float(np.nextafter(total, 0.0)), total]
    total = float(np.sum(weights))
    return block, weights, [f * total for f in fractions]


def _hex_list(xs):
    return [float(x).hex() for x in xs]


_BRACKET_FAMILIES = ["planted normals", "ties at the answer", "tiny and zero weights", "signed zeros",
                     "one heavy weight", "near the total"]


@pytest.mark.parametrize("family", _BRACKET_FAMILIES)
def test_bracketed_selection_equals_the_full_scan_bit_for_bit(family, monkeypatch):
    seen = _bracket_spy(monkeypatch)
    rng = np.random.default_rng(_BRACKET_FAMILIES.index(family))
    for _ in range(6):
        block, weights, targets = _bracket_case(family, rng)
        for target in targets:
            want = _full_scan(monkeypatch, lambda: select_rows(block, weights, target))
            got = select_rows(block, weights, target)
            assert _hex_list(got) == _hex_list(want), (family, target)
            assert [smallest_radius_at_weight(row, weights, target).hex() for row in block] == _hex_list(want)
    taken = np.concatenate(seen)
    if family == "planted normals":
        assert not np.isnan(taken).any()  # every row is answered inside its bracket
    else:
        assert (~np.isnan(taken)).any()


def test_bracketed_selection_hands_back_a_running_sum_within_the_slack(monkeypatch):
    # targets equal to a sequential running sum of tenths, or one ulp off
    # it: the band's running sum lands within the slack, so the bracket
    # cannot tell which entry reaches the target and the row is scanned whole
    seen = _bracket_spy(monkeypatch)
    rng = np.random.default_rng(8)
    for _ in range(8):
        cols = int(rng.integers(_LOW_CUT, 3 * _LOW_CUT))
        values = rng.normal(size=cols)
        weights = np.full(cols, 0.1)
        prefix = np.cumsum(weights[np.argsort(values, kind="stable")])
        at = float(prefix[int(rng.integers(cols // 4, 3 * cols // 4))])
        for target in (at, float(np.nextafter(at, 0.0)), float(np.nextafter(at, 1.0))):
            seen.clear()
            want = _full_scan(monkeypatch, lambda: smallest_radius_at_weight(values, weights, target))
            assert smallest_radius_at_weight(values, weights, target).hex() == want.hex()
            assert want.hex() == _stable_argsort_select(values, weights, target).hex()
            assert len(seen) == 1 and np.isnan(seen[0]).all()


def test_bracketed_median_of_a_strided_column_at_the_shipped_cut_off(monkeypatch):
    # columns of a C-ordered coordinate array, as lp_coordinate_median
    # passes them, at the shipped cut-off and sample size
    taken = _bracket_spy(monkeypatch, low=False)
    rng = np.random.default_rng(19)
    n = selection._BRACKET_MIN_COLS + 123
    coords = rng.normal(size=(n, 3)) * np.where(rng.random((n, 1)) < 0.75, 1.0, 50.0)
    weights = rng.integers(512, 1537, size=n) / 1024.0
    for k in range(3):
        want = _full_scan(monkeypatch, lambda: weighted_median(coords[:, k], weights))
        assert weighted_median(coords[:, k], weights).hex() == want.hex()
        assert want.hex() == _stable_argsort_select(coords[:, k], weights, 0.5 * float(np.sum(weights))).hex()
    assert len(taken) == 3 and not np.isnan(np.concatenate(taken)).any()


def _sort_scan_spy(monkeypatch):
    """Count the rows handed to the full sort and scan."""
    rows = []
    sort_scan = selection._sort_scan

    def spy(v, *args):
        rows.append(v.shape[0])
        return sort_scan(v, *args)

    monkeypatch.setattr(selection, "_sort_scan", spy)
    return rows


def _exact_weights(kind, rng, cols):
    if kind == "unit":
        return np.ones(cols)
    if kind == "integer":
        return rng.integers(1, 9, size=cols).astype(np.float64)
    return rng.integers(512, 1537, size=cols) / 1024.0  # dyadic


@pytest.mark.parametrize("kind", ["unit", "integer", "dyadic"])
def test_bracket_takes_targets_hit_exactly_when_every_sum_is_exact(kind, monkeypatch):
    # targets equal to a running sum of the stable order, so the band's
    # sum hits them exactly; with these weights every sum is exact, so
    # the bracket needs no slack and no row goes to the full scan
    _bracket_spy(monkeypatch)
    sent = _sort_scan_spy(monkeypatch)
    rng = np.random.default_rng(["unit", "integer", "dyadic"].index(kind))
    for _ in range(6):
        cols = 2 * int(rng.integers(_LOW_CUT // 2, 2 * _LOW_CUT))
        values = rng.normal(size=cols)
        weights = _exact_weights(kind, rng, cols)
        prefix = np.cumsum(weights[np.argsort(values, kind="stable")])
        for target in (0.5 * float(np.sum(weights)), float(prefix[int(rng.integers(cols // 4, 3 * cols // 4))])):
            want = _full_scan(monkeypatch, lambda: smallest_radius_at_weight(values, weights, target))
            assert want.hex() == _stable_argsort_select(values, weights, target).hex()
            sent.clear()
            assert smallest_radius_at_weight(values, weights, target).hex() == want.hex()
            assert sent == []


def test_unit_weight_median_of_an_even_count_stays_in_the_bracket(monkeypatch):
    # the shipped cut-off: n/2 is always some running sum of unit weights
    sent = _sort_scan_spy(monkeypatch)
    rng = np.random.default_rng(23)
    n = selection._BRACKET_MIN_COLS + 122
    values = rng.normal(size=n)
    weights = np.ones(n)
    got = weighted_median(values, weights)
    assert sent == []
    assert got.hex() == _stable_argsort_select(values, weights, n / 2).hex()


def test_exact_sums_needs_one_power_of_two_quantum_below_2_to_the_53():
    def exact(w):
        w = np.asarray(w, dtype=np.float64)
        return selection._exact_sums(w, float(np.sum(w)))

    assert exact([1.0, 3.0, 0.5, 0.25])
    assert exact([2.0**-900, 3 * 2.0**-900])
    assert exact([2.0**900, 2.0**901])
    assert not exact([2.0**-1000, 3 * 2.0**-1000])  # scale out of range: no claim
    assert not exact([0.1, 0.2])
    assert not exact([2.0**53, 1.0])  # the total needs 54 bits
    assert not exact([1.0, 2.0**-53])
    assert not exact([2.0**-1074, 1.0])
