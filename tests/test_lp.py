"""Coordinate-wise weighted median solver for l_p spaces."""

import math

import numpy as np
import pytest

from onecenter import (
    LpSpace,
    UnsupportedFractionError,
    WeightedPointSet,
    generate_planted,
    lp_coordinate_median,
    lp_median_bound,
    weighted_median,
)
from onecenter.spaces import _BLOCK


def test_identical_points_return_that_point():
    q = np.array([3.0, -1.0, 0.25])
    ps = WeightedPointSet.from_coords(np.tile(q, (9, 1)), np.arange(1.0, 10.0))
    x = lp_coordinate_median(ps, LpSpace(2.0, 3), 0.8)
    assert np.array_equal(x, q)


def test_bound_constant_three_quarters_euclidean():
    assert lp_median_bound(0.75, 2.0) == math.sqrt(3.0)


def test_bound_shrinks_as_alpha_grows():
    bounds = [lp_median_bound(a, 2.0) for a in (0.55, 0.6, 0.75, 0.9, 1.0)]
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
    assert lp_median_bound(1.0, 2.0) == math.sqrt(2.0)


def test_planted_three_quarter_instance_within_bound():
    rng = np.random.default_rng(42)
    d = 6
    q = rng.normal(size=d) * 5.0
    inliers = q + rng.normal(size=(75, d)) * (1.0 / math.sqrt(d) / 3.0)
    # keep the inliers honestly inside the unit ball around q
    radii = np.linalg.norm(inliers - q, axis=1)
    inliers = q + (inliers - q) * np.minimum(1.0, 0.9 / np.maximum(radii, 1e-9))[:, None]
    far = rng.normal(size=(25, d))
    far = q + 100.0 * far / np.linalg.norm(far, axis=1)[:, None]
    coords = np.vstack([inliers, far])
    ps = WeightedPointSet.from_coords(coords)
    x = lp_coordinate_median(ps, LpSpace(2.0, d), 0.75)
    assert float(np.linalg.norm(x - q)) <= math.sqrt(3.0) + 1e-9


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
def test_planted_instances_meet_radius_bound(p, alpha):
    for seed in range(4):
        inst = generate_planted(
            "lp", n=400, d=8, alpha=alpha, r=1.0, seed=seed, p=p, weights="dyadic"
        )
        space = inst.space_ops()
        x = lp_coordinate_median(inst.ps, space, alpha)
        err = space.norm(x - inst.centers[0])
        assert err <= lp_median_bound(alpha, p) * inst.r + 1e-9


def test_translation_equivariance_is_exact():
    rng = np.random.default_rng(17)
    coords = rng.normal(size=(120, 5)) * 10.0
    weights = rng.uniform(0.0, 2.0, size=120)
    weights[weights < 0.1] = 0.0
    weights[0] = 1.0
    space = LpSpace(2.0, 5)
    t = np.array([1e-3, -7.25, 0.0, 123.456, 2.0**31])
    base = lp_coordinate_median(WeightedPointSet.from_coords(coords, weights), space, 0.7)
    shifted = lp_coordinate_median(
        WeightedPointSet.from_coords(coords + t, weights), space, 0.7
    )
    assert np.array_equal(shifted, base + t)


def test_permutation_invariance():
    rng = np.random.default_rng(23)
    coords = rng.normal(size=(200, 4))
    weights = rng.uniform(0.5, 1.5, size=200)
    space = LpSpace(1.0, 4)
    base = lp_coordinate_median(WeightedPointSet.from_coords(coords, weights), space, 0.6)
    perm = rng.permutation(200)
    again = lp_coordinate_median(
        WeightedPointSet.from_coords(coords[perm], weights[perm]), space, 0.6
    )
    assert np.array_equal(again, base)


def test_output_coordinates_stay_in_the_data_box():
    rng = np.random.default_rng(31)
    for seed in range(10):
        r2 = np.random.default_rng(seed)
        coords = r2.normal(size=(50, 3)) * r2.uniform(0.1, 100.0)
        weights = r2.uniform(0.0, 1.0, size=50)
        weights[0] = 1.0
        ps = WeightedPointSet.from_coords(coords, weights)
        x = lp_coordinate_median(ps, LpSpace(2.0, 3), float(rng.uniform(0.51, 1.0)))
        assert np.all(x >= coords.min(axis=0))
        assert np.all(x <= coords.max(axis=0))


def test_infinity_norm_accepted_without_radius_bound():
    rng = np.random.default_rng(41)
    coords = rng.normal(size=(64, 4))
    ps = WeightedPointSet.from_coords(coords)
    x = lp_coordinate_median(ps, LpSpace(math.inf, 4), 0.75)
    # only the generic containment is promised for p = inf
    assert np.all(x >= coords.min(axis=0))
    assert np.all(x <= coords.max(axis=0))


def test_low_alpha_rejected():
    ps = WeightedPointSet.from_coords(np.zeros((3, 2)))
    for alpha in (0.5, 0.3):
        with pytest.raises(UnsupportedFractionError):
            lp_coordinate_median(ps, LpSpace(2.0, 2), alpha)
        with pytest.raises(UnsupportedFractionError):
            lp_median_bound(alpha, 2.0)


@pytest.mark.parametrize("n", [7, _BLOCK, 2 * _BLOCK + 37])
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_coordinate_median_matches_per_column_selection(n, layout):
    rng = np.random.default_rng(n)
    d = 5
    # one decimal place, so columns hold many ties
    base = np.round(rng.normal(size=(2 * n, 2 * d)) * 3.0, 1)
    coords = {
        "C": np.ascontiguousarray(base[:n, :d]),
        "F": np.asfortranarray(base[:n, :d]),
        "strided": base[::2, ::2],
    }[layout]
    weights = rng.choice([0.0, 0.5, 1.0, 3.0], size=n)
    weights[0] = 1.0
    got = lp_coordinate_median(WeightedPointSet.from_coords(coords, weights), LpSpace(2.0, d), 0.75)
    want = np.array([weighted_median(coords[:, k], weights) for k in range(d)])
    assert got.tobytes() == want.tobytes()
