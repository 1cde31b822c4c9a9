"""Shared test helpers: reference implementations and counting wrappers.

The reference selection here is deliberately written in plain python,
independent of the library's numpy path, so the tests can cross-check
that path against something simple enough to eyeball.
"""

import numpy as np

from onecenter import DistanceOracle, LpSpace


def scan_select(values, weights, target):
    """Sort-and-scan weighted selection: smallest v with cum weight >= target."""
    pairs = sorted((float(v), float(w)) for v, w in zip(values, weights))
    acc = 0.0
    for v, w in pairs:
        acc += w
        if acc >= target:
            return v
    return pairs[-1][0]


class TallyOracle(DistanceOracle):
    """Matrix-backed oracle keeping its own tally of scalar evaluations.

    The tally lives in the _dist_block_impl hook, outside the base class
    counter, so tests can assert the two agree exactly after a solver run.
    """

    def __init__(self, matrix):
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        super().__init__(matrix.shape[0])
        self.matrix = matrix
        self.tally = 0

    def _dist_block_impl(self, rows, cols):
        self.tally += int(rows.size) * int(cols.size)
        return self.matrix[np.ix_(rows, cols)]


class RowCountingLp(LpSpace):
    """l_p space that counts how many row norms it evaluates."""

    def __init__(self, p, d):
        super().__init__(p, d)
        self.rows = 0

    def norms(self, vs):
        vs = np.asarray(vs, dtype=np.float64)
        self.rows += int(vs.shape[0]) if vs.ndim == 2 else 1
        return super().norms(vs)


def random_metric_matrix(rng, n, d=3):
    """Distance matrix of random points; a valid metric by construction."""
    pts = rng.normal(size=(n, d))
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))
