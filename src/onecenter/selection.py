"""Weighted selection primitives.

Everything in this library reduces to one question: given values with
nonnegative weights, what is the smallest value v such that the total
weight of entries <= v reaches a target?  ``select_rows`` answers it for
every row of a block; ``smallest_radius_at_weight`` is its one-row call,
and ``weighted_median`` and ``weighted_quantile_radius`` ask it at a
fraction of the total weight.

It is answered by a numpy sort + cumsum scan (``_scan_rows``), O(n log n)
per row and fully deterministic.  The sort is one in-place integer sort
of keys that pack each value's bits with its index, which is exactly the
stable permutation (``_stable_order``).  A row of at least 2^15
positive-weight columns sorts only a band of it, bracketed from a fixed
sample, and is scanned whole unless the band's answer passes the
rounding test of ``_slack`` (``_bracket_rows``).
"""

from __future__ import annotations

import math

import numpy as np

from .core import require_fraction
from .errors import ArgumentError


def kernel_backend() -> str:
    """Name of the selection backend, recorded in run metadata: 'numpy'."""
    return "numpy"


def _as_block(values, weights, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """The values, one row (``ndim`` 1) or a block (2), as a 2-D block, and the weights."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    w = np.ascontiguousarray(weights, dtype=np.float64)
    if v.ndim != ndim or w.ndim != 1:
        raise ArgumentError("values and weights must be one-dimensional" if ndim == 1 else
                            "distance block must be two-dimensional and weights one-dimensional")
    return np.atleast_2d(v), w


def _check_block(v: np.ndarray, w: np.ndarray) -> None:
    # v is one row or a block of rows, each as long as w
    if v.shape[-1] != w.shape[0]:
        raise ArgumentError("values and weights differ in length")
    if v.shape[-1] == 0:
        raise ArgumentError("empty input")
    if not np.isfinite(v).all():
        raise ArgumentError("values must be finite")


def _checked_total(w: np.ndarray) -> float:
    """Sum of the weights, which must be finite and nonnegative; finite
    weights may still overflow the sum, which is an error too."""
    if not np.isfinite(w).all() or (w < 0).any():
        raise ArgumentError("weights must be finite and nonnegative")
    total = float(w.sum())
    if not math.isfinite(total):
        raise ArgumentError(f"weights sum to {total}; rescale them so the total is finite")
    return total


def _check_target(target_weight: float) -> None:
    if math.isnan(target_weight):
        raise ArgumentError("target_weight must not be NaN")


def weighted_median(values, weights) -> float:
    """Smallest value v whose cumulative weight reaches half the total.

    With uniform weights this is the classical lower median.
    """
    return _select_fraction(values, weights, 0.5)


def weighted_quantile_radius(distances, weights, alpha: float) -> float:
    """Smallest d such that entries <= d carry at least alpha of the weight."""
    require_fraction(alpha)
    return _select_fraction(distances, weights, alpha)


def _select_fraction(values, weights, fraction: float) -> float:
    """Selection at ``fraction`` of the total weight, which must be positive."""
    v, w = _as_block(values, weights, 1)
    _check_block(v, w)
    total = _checked_total(w)
    if total <= 0.0:
        raise ArgumentError("total weight must be positive")
    return float(_scan_rows(v, w, fraction * total)[0])


def smallest_radius_at_weight(distances, weights, target_weight: float) -> float:
    """Smallest d with total weight of entries <= d reaching ``target_weight``.

    Absolute-threshold variant used by the peeling solvers.  Returns
    ``inf`` when the target exceeds the total available weight, and the
    minimum entry when the target is zero or negative; a NaN target is
    an ArgumentError.  It is the one-row ``select_rows`` call.
    """
    v, w = _as_block(distances, weights, 1)
    return float(select_rows(v, w, target_weight)[0])


def _stable_order(v: np.ndarray) -> np.ndarray:
    """``np.argsort(v, axis=1, kind="stable")``, computed faster.

    Each value becomes one int64 key: its bits, with the low 63 flipped
    for negatives so that integer order is float order (``+ 0.0`` first
    turns -0.0 into 0.0; with no negative value there is nothing to
    flip), the low k bits then replaced by the column index, where k is
    the fewest bits that hold every index.  The keys are unique, so any
    sort of them gives one permutation, and it is the stable one
    wherever the truncated keys keep values apart.  Values whose keys
    differ only in the low k bits sort by index instead; each adjacent
    such pair is compared by value through flat gathers, and the rows
    holding an inverted pair are re-sorted whole by one stable argsort,
    so the fallback costs at most one such argsort of those rows.
    """
    c = v.shape[1]
    k = (c - 1).bit_length()
    low = (1 << k) - 1
    key = (v + 0.0).view(np.int64)
    if key.size and key.min() < 0:
        flip = key >> 63  # all ones for negative values, else zero
        flip &= np.int64(0x7FFF_FFFF_FFFF_FFFF)
        key ^= flip
    key &= ~low
    key |= np.arange(c)
    key.sort(axis=1)
    # adjacent keys equal above the low k bits may be out of value order
    same = (key[:, 1:] ^ key[:, :-1]).view(np.uint64) <= low
    key &= low
    if same.any():
        pairs = np.flatnonzero(same)
        rows = pairs // (c - 1)
        at = pairs + rows  # flat position in key of each pair's first entry
        base = rows * c
        flat_key, flat_v = key.reshape(-1), v.reshape(-1)
        bad = flat_v[flat_key[at] + base] > flat_v[flat_key[at + 1] + base]
        if bad.any():
            redo = np.flatnonzero(np.bincount(rows[bad], minlength=v.shape[0]))
            key[redo] = np.argsort(v[redo], axis=1, kind="stable")
    return key


def select_rows(distances, weights, target_weight: float) -> np.ndarray:
    """Row-wise ``smallest_radius_at_weight`` over a block of distances.

    ``out[i]`` equals ``smallest_radius_at_weight(distances[i], weights,
    target_weight)`` bit for bit, including the ``inf`` and row-minimum
    edge cases.  The block and the weights are validated once, with the
    same errors as the scalar function, and ``_scan_rows`` sorts and
    scans the whole block along axis 1 (a row of at least 2^15
    positive-weight columns only the band of it that a checked bracket
    leaves, with the same answer).  ``best_candidate`` needs only
    the smallest of these radii, and skips the rows that the bound test
    of ``_slack`` rules out.
    """
    v, w = _as_block(distances, weights, 2)
    _check_block(v, w)
    total = _checked_total(w)
    _check_target(target_weight)
    if target_weight > total:
        return np.full(v.shape[0], math.inf)
    if target_weight <= 0.0:
        return np.min(v, axis=1)
    return _scan_rows(v, w, float(target_weight))


def _scan_rows(v: np.ndarray, w: np.ndarray, target: float) -> np.ndarray:
    """Numpy selection of every row of a validated block, 0 < target <= total.

    Each row is taken in stable order, its weights are summed in that
    order, and the value at the first index whose running sum reaches
    the target is returned; a row whose running sum falls short returns
    its last value in stable order, the largest.  Zero-weight columns
    are left out of the sort and the sum: a stable order restricted to
    a subset is that subset's stable order, ``x + 0.0 == x``, and a
    target above zero is first reached at a positive weight, so every
    row that reaches it picks the same entry.  Rows of at least
    ``_BRACKET_MIN_COLS`` positive-weight columns are first tried inside
    a bracket (``_bracket_rows``), which picks the same entry or hands
    the row back to the full sort and scan (``_sort_scan``).
    """
    if w.min() > 0.0:
        kept, wk = v, w
    else:
        cols = np.flatnonzero(w > 0.0)
        kept, wk = v[:, cols], w[cols]
    if kept.shape[1] < _BRACKET_MIN_COLS:
        return _sort_scan(v, kept, wk, target)
    out = _bracket_rows(kept, wk, target)
    missed = np.isnan(out)
    if missed.any():
        out[missed] = _sort_scan(v[missed], kept[missed], wk, target)
    return out


def _sort_scan(v: np.ndarray, kept: np.ndarray, wk: np.ndarray, target: float) -> np.ndarray:
    """``_scan_rows`` by one stable order of each whole row: ``kept`` and
    ``wk`` are the positive-weight columns of v and their weights."""
    order = _stable_order(kept)
    reached = np.cumsum(wk[order], axis=1) >= target
    rows = np.arange(kept.shape[0])
    out = kept[rows, order[rows, reached.argmax(axis=1)]]
    if not reached[:, -1].all():  # rounding left some whole row short
        short = ~reached[:, -1]
        out[short] = _stable_max(v[short])
    return out


# Rows with at least this many positive-weight columns go through
# ``_bracket_rows``.  Measured on a 2-core x86 host, one row of normal
# values, bracket against full scan: 0.51 against 0.39 ms at 2^14
# columns, 0.72 against 0.79 ms at 2^15, 1.17 against 1.67 ms at 2^16,
# 2.8 against 6.3 ms at 2 * 10^5.
_BRACKET_MIN_COLS = 1 << 15
# The bracket's sample is every (cols >> _SAMPLE_SHIFT)-th column:
# between 2^13 and 2^14 values of a row at least 2^15 wide.
_SAMPLE_SHIFT = 13


def _bracket_rows(v: np.ndarray, w: np.ndarray, target: float) -> np.ndarray:
    """``_sort_scan`` of each row of v, or NaN where the bracket cannot
    vouch for the answer; every weight in w is positive.

    The bracket [lo, hi] is read off a fixed strided sample of the row:
    its weighted quantiles at target/total -+ 4/sqrt(sample size), or
    -inf and inf where those fractions leave (0, 1).  No randomness is
    involved.  One pass sums, in any order, the weight of the entries
    < lo; only the band lo <= x <= hi is put in stable order, and its
    running sum starts from that weight.  The band's entry is kept when
    it passes the bracket test of ``_slack``; a row that fails the
    test, or whose band never reaches target + slack, is NaN.  A row
    that fails only because some running sum lies within the slack of
    the target (with unit weights and an even count, every row: the
    median target n/2 is hit exactly) is tried again with zero slack
    when every sum of w is exact (``_exact_sums``, checked once, on the
    first such row).
    """
    n, c = v.shape
    total = float(w.sum())
    slack = _slack(c, total)
    exact = None
    out = np.full(n, math.nan)
    if target + slack >= total:
        return out  # no band's running sum gets past the total by the slack
    step = c >> _SAMPLE_SHIFT
    sample_w = w[::step]
    frac = target / total
    half = 4.0 / math.sqrt(sample_w.size)
    for i, row in enumerate(v):
        sample = row[::step]
        order = _stable_order(sample[None, :])[0]
        cum = np.cumsum(sample_w[order])
        at = np.searchsorted(cum, np.array([frac - half, frac + half]) * cum[-1])
        lo = sample[order[at[0]]] if frac > half else -math.inf
        hi = sample[order[at[1]]] if frac + half < 1.0 else math.inf
        below = float((row < lo) @ w)
        band = np.flatnonzero((row >= lo) & (row <= hi))
        band_v = row[band]
        band_order = _stable_order(band_v[None, :])[0]
        run = np.cumsum(np.concatenate(([below], w[band[band_order]])))
        k = _band_pick(run, target, slack)
        if k < 0:
            if exact is None:
                exact = _exact_sums(w, total)
            if exact:
                k = _band_pick(run, target, 0.0)
        if k >= 0:
            out[i] = band_v[band_order[k]]
    return out


def _band_pick(run: np.ndarray, target: float, slack: float) -> int:
    """Band position of the entry the bracket test vouches for, or -1:
    the running sum before it is below target - slack and with it at
    least target + slack."""
    k = int(np.searchsorted(run, target + slack))
    return k - 1 if 0 < k < run.size and run[k - 1] < target - slack else -1


def _exact_sums(w: np.ndarray, total: float) -> bool:
    """True when every sum of positive weights w, in any order, is exact.

    That holds when each weight is an integer multiple of one power of
    two q and the total is below 2^53 q: every partial sum is then such
    a multiple, representable, so no addition rounds.  Take scale, the
    power of two with total * scale in [2^52, 2^53); every q that works
    is a multiple of 1 / scale, so some q works exactly when every
    w * scale (exact: a power-of-two product below 2^53) is an integer
    of at least 1.  Unit, integer and dyadic weights pass; a total
    outside about [2^-960, 2^1000), where scale would not be a normal
    double, fails.
    """
    e = math.frexp(total)[1]
    if not -960 < e < 1000:
        return False
    scale = math.ldexp(1.0, 53 - e)
    ws = w * scale
    if ws.min() < 1.0:
        return False
    # in place: at 200k weights a second full-size temporary made the
    # test 1.9 ms instead of 0.55 ms (in process, 2-core x86 host)
    np.rint(ws, out=ws)
    ws *= 1.0 / scale
    ws -= w
    return not ws.any()


def _stable_max(v: np.ndarray) -> np.ndarray:
    """Each row's last value in stable order: its maximum, taken at the
    highest index holding it (which tells 0.0 from -0.0)."""
    flipped = v[:, ::-1]
    last = v.shape[1] - 1 - np.argmax(flipped == flipped.max(axis=1)[:, None], axis=1)
    return v[np.arange(v.shape[0]), last]


def _slack(c: int, total: float) -> float:
    """Rounding allowance, 4 (c + 1) eps total for rows of c columns, of
    the two tests that skip work without changing an answer; the one
    statement of the argument behind both.

    A sum of up to c nonnegative weights, in any order, is within
    (c - 1) eps / 2 of the exact total weight.  Each test sets a sum in
    some order against the full scan's running sum (stable order) or
    the rounded total: one such error each, and the slack covers all
    three with room to spare.  Bound test (``_near_rows``): a row's
    radius is at most b only if the weight of its entries <= b is at
    least target - slack, so a row that fails can neither win nor tie.
    Bracket test (``_bracket_rows``): every entry < lo precedes the band
    [lo, hi] in stable order, so the band's running sum, started from
    the weight below lo, is the full scan's within the slack, and its
    entry k is the full scan's pick when that sum is below
    target - slack before it and at least target + slack with it.
    """
    return 4.0 * (c + 1) * np.finfo(np.float64).eps * total


# Element budget of one candidate block in ``best_candidate``: a few MB
# of distances, sort keys and running sums, whatever n is.
BLOCK_ELEMS = 1 << 18

# Blocks narrower than this are scored whole: on them the probe and the
# bound test cost about as much as the sorts they save.
_PRUNE_MIN_COLS = 1024
# About this many positive-weight columns are sampled to pick the probe.
_PROBE_COLS = 512


def best_candidate(fetch, candidates, weights, target_weight: float):
    """Candidate with the smallest ``smallest_radius_at_weight`` radius.

    ``fetch(chunk)`` returns the ``len(chunk) x len(weights)`` distance
    rows of the candidate indices in ``chunk``; candidates are fetched in
    chunks of at most ``BLOCK_ELEMS`` elements.  Every block is checked
    as ``select_rows`` checks it, and the weights and the target once,
    on the first chunk, with the same errors in the same order.  Ties go
    to the lowest candidate index, whatever the order of ``candidates``.
    Returns ``(index, radius, row)``, with ``row`` the candidate's full
    fetched row, or ``(-1, inf, None)`` when there are no candidates or
    every radius is ``inf``; all of it equals scoring every row with
    ``select_rows``, bit for bit, and ``radius`` is the winner's own.

    Only rows that can change the answer are scored exactly
    (``_near_rows``): a row is skipped only when the bound test of
    ``_slack`` proves it can neither win nor tie.
    """
    cand = np.asarray(candidates, dtype=np.intp).reshape(-1)
    step = max(1, BLOCK_ELEMS // max(1, len(weights)))
    best_i, best_s, best_row = -1, math.inf, None
    total = None
    for lo in range(0, cand.size, step):
        chunk = cand[lo : lo + step]
        v, w = _as_block(fetch(chunk), weights, 2)
        _check_block(v, w)
        if total is None:
            total = _checked_total(w)
            _check_target(target_weight)
            target = float(target_weight)
        if target > total:
            continue  # every radius is inf; later blocks are still fetched and checked
        if target <= 0.0:
            rows, radii = np.arange(v.shape[0]), np.min(v, axis=1)
        else:
            rows = _near_rows(v, w, target, total, best_s)
            radii = _scan_rows(v if rows.size == v.shape[0] else v[rows], w, target)
        if radii.size == 0:
            continue
        tied = np.flatnonzero(radii == radii.min())
        j = tied[np.argmin(chunk[rows[tied]])]
        k, s = int(rows[j]), float(radii[j])
        if s < best_s or (s == best_s and chunk[k] < best_i):
            best_i, best_s, best_row = int(chunk[k]), s, v[k]
    return best_i, best_s, best_row


def _near_rows(v: np.ndarray, w: np.ndarray, target: float, total: float, bound: float) -> np.ndarray:
    """Indices of the rows of v whose radius may be at most ``bound``
    by the bound test of ``_slack``.

    They include every row whose radius is at most ``bound``, and so
    every row holding the smallest radius in v when that is at most
    ``bound``.  With no bound yet (``inf``) one probe row is scored
    exactly and sets it: the row whose unweighted quantile, at the
    target's share of the total over a sample of the positive-weight
    columns, is smallest.  Which row that is changes only the time.
    Narrow blocks, and one-row blocks with no bound, are taken whole.
    """
    n, c = v.shape
    if c < _PRUNE_MIN_COLS or (n < 2 and bound == math.inf):
        return np.arange(n)
    if bound == math.inf:
        cols = np.flatnonzero(w > 0.0)
        cols = cols[:: max(1, cols.size // _PROBE_COLS)]
        rank = min(cols.size - 1, int(cols.size * target / total))
        probe = int(np.argmin(np.partition(v[:, cols], rank, axis=1)[:, rank]))
        bound = float(_scan_rows(v[probe : probe + 1], w, target)[0])
    held = (v <= bound) @ w
    return np.flatnonzero(held >= target - _slack(c, total))
