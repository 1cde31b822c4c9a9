"""One argument contract for every public entry.

A normed space takes a point set with coordinates of its dimension, a
distance oracle takes a point set of its size, and a fraction must lie
in the entry's documented range.  Anything else is an ArgumentError,
never an AttributeError or TypeError from deep inside a solver.
"""

import math

import numpy as np
import pytest

from onecenter import (
    ArgumentError,
    LpSpace,
    MatrixOracle,
    WeightedPointSet,
    any_alpha_constant,
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
    halfplus_constant,
    las_vegas_baseline,
    logtower_base_fraction,
    logtower_constant,
    lp_coordinate_median,
    lp_median_bound,
    metric_cover,
    metric_halfplus,
    metric_quadratic,
    pair_reduce,
    refine_iteration_cap,
    scale_base,
    scale_count,
    verify_ball,
    verify_factor,
    weighted_quantile_radius,
)

N = 8
COORDS = WeightedPointSet.from_coords(np.arange(2.0 * N).reshape(N, 2))
INDEXED = WeightedPointSet.indexed(N)
L2 = LpSpace(2.0, 2)
ORACLE = MatrixOracle(np.abs(np.subtract.outer(np.arange(N), np.arange(N))).astype(float))


def _any_alpha(ps, fraction, r):
    return cluster_any_alpha(ps, L2, fraction, r)


# name -> (call(ps, space, alpha), an alpha the entry accepts or None)
NORMED = {
    "cluster_halfplus": (lambda ps, sp, a: cluster_halfplus(ps, sp, a, 1.0), 0.75),
    "below_half_cover": (lambda ps, sp, a: below_half_cover(ps, sp, a, 1.0), 0.3),
    "cluster_any_alpha": (lambda ps, sp, a: cluster_any_alpha(ps, sp, a, 1.0), 0.3),
    "cluster_logtower": (lambda ps, sp, a: cluster_logtower(ps, sp, a, 1, 1.0), 0.3),
    "lp_coordinate_median": (lambda ps, sp, a: lp_coordinate_median(ps, sp, a), 0.75),
    "pair_reduce": (lambda ps, sp, a: pair_reduce(ps, sp, 1.0), None),
    "centroid_refine": (lambda ps, sp, a: centroid_refine(ps, sp, np.zeros(2), 10.0, 1.0, a), 0.75),
    "ball_cover": (lambda ps, sp, a: ball_cover(_any_alpha, ps, sp, a, a, 20.0, 1.0), 0.5),
    "bucket_reduce": (
        lambda ps, sp, a: bucket_reduce(ps, sp, a, 1.0, lambda m: m, any_alpha_solver(L2, 0.25)),
        0.25,
    ),
}
METRIC = {
    "metric_halfplus": (lambda ps, sp, a: metric_halfplus(ps, sp, a, 2), 0.75),
    "metric_cover": (lambda ps, sp, a: metric_cover(ps, sp, a, 2), 0.3),
    "metric_quadratic": (lambda ps, sp, a: metric_quadratic(ps, sp, a), 0.3),
}
EITHER = {
    "verify_ball": (lambda ps, sp, a: verify_ball(ps, sp, np.zeros(2), 1.0, a), 0.5),
    "brute_force_best": (lambda ps, sp, a: brute_force_best(ps, sp, a), 0.5),
    "las_vegas_baseline": (lambda ps, sp, a: las_vegas_baseline(ps, sp, a, 1.0, seed=0), 0.5),
    "covered_weight": (lambda ps, sp, a: covered_weight(ps, sp, np.zeros(2), 1.0), None),
}
FRACTION_ONLY = {
    "gap_constant": gap_constant,
    "scale_count": scale_count,
    "scale_base": scale_base,
    "verify_factor": verify_factor,
    "any_alpha_constant": any_alpha_constant,
    "any_alpha_solver": lambda a: any_alpha_solver(L2, a),
    "halfplus_constant": halfplus_constant,
    "refine_iteration_cap": refine_iteration_cap,
    "lp_median_bound": lambda a: lp_median_bound(a, 2.0),
    "logtower_base_fraction": lambda a: logtower_base_fraction(a, 1),
    "logtower_constant": lambda a: logtower_constant(a, 1),
    "weighted_quantile_radius": lambda a: weighted_quantile_radius([0.0, 1.0], [1.0, 1.0], a),
    "generate_planted": lambda a: generate_planted("lp", n=N, d=2, alpha=a),
}

WIDER_ORACLE = MatrixOracle(np.abs(np.subtract.outer(np.arange(N + 1), np.arange(N + 1))).astype(float))
# case -> (point set, space, error text, the entries it applies to)
PAIRINGS = {
    "oracle-for-a-normed-space": (COORDS, ORACLE, "space must be a NormedSpaceOps,", NORMED),
    "normed-space-for-an-oracle": (INDEXED, L2, "space must be a DistanceOracle,", METRIC),
    "neither-kind": (COORDS, object(), "NormedSpaceOps or DistanceOracle", EITHER),
    "no-coordinates": (INDEXED, L2, "coordinates", NORMED | EITHER),
    "dimensions-differ": (COORDS, LpSpace(2.0, 3), "dimensions differ", NORMED | EITHER),
    "sizes-differ": (COORDS, WIDER_ORACLE, "sizes differ", METRIC | EITHER),
}

PAIRING_CASES = [
    pytest.param(ps, space, text, *entries[name], id=f"{case}-{name}")
    for case, (ps, space, text, entries) in PAIRINGS.items()
    for name in entries
]


def _on_its_own_space(name, call):
    if name in METRIC:
        return lambda a: call(INDEXED, ORACLE, a)
    return lambda a: call(COORDS, L2, a)


FRACTIONS = {
    name: _on_its_own_space(name, call)
    for name, (call, alpha) in (NORMED | METRIC | EITHER).items()
    if alpha is not None
} | FRACTION_ONLY


@pytest.mark.parametrize("ps, space, text, call, alpha", PAIRING_CASES)
def test_a_point_set_on_the_wrong_space_is_an_argument_error(ps, space, text, call, alpha):
    with pytest.raises(ArgumentError, match=text):
        call(ps, space, alpha)


@pytest.mark.parametrize("alpha", [0.0, 1.5, math.nan])
@pytest.mark.parametrize("name", FRACTIONS)
def test_a_fraction_out_of_range_is_an_argument_error(name, alpha):
    with pytest.raises(ArgumentError, match="alpha|beta"):
        FRACTIONS[name](alpha)
