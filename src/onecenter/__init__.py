"""Deterministic 1-center clustering with outliers.

Given n weighted points and a fraction alpha, every solver here finds a
ball of radius O(r) covering at least alpha of the total weight
whenever some ball of radius r does, without randomness: in l_p spaces
(coordinate-wise weighted median), in general normed spaces (pairing
and peeling reductions), and in metric spaces reachable only through a
distance oracle (block recursion with counted queries).
"""

from .core import CandidateBall, WeightedPointSet, covered_weight
from .cover import (
    CoverResult,
    InnerSolver,
    any_alpha_constant,
    any_alpha_solver,
    ball_cover,
    below_half_cover,
    bucket_constant,
    bucket_reduce,
    cluster_any_alpha,
    cluster_logtower,
    gap_constant,
    logtower_base_fraction,
    logtower_constant,
    scale_base,
    scale_count,
    verify_factor,
)
from .errors import (
    ArgumentError,
    DegenerateInputError,
    OneCenterError,
    ParseError,
    UnsupportedFractionError,
)
from .formats import (
    detect_format,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    read_matrix,
    read_points_csv,
    save_instance,
    write_matrix,
    write_points_csv,
)
from .generate import PlantedInstance, generate_planted
from .lp import lp_coordinate_median, lp_median_bound
from .metric import (
    MetricCover,
    exact_ceil_root,
    metric_cover,
    metric_halfplus,
    metric_quadratic,
    metric_query_bound,
)
from .normed import (
    PairReduction,
    centroid_refine,
    cluster_halfplus,
    halfplus_constant,
    pair_reduce,
    refine_iteration_cap,
)
from .opnorm import (
    MedianNormReport,
    OperatorNormSpace,
    median_counterexample_report,
    operator_norm,
)
from .oracle import (
    CallableOracle,
    DistanceOracle,
    MatrixOracle,
)
from .selection import (
    kernel_backend,
    select_rows,
    smallest_radius_at_weight,
    weighted_median,
    weighted_quantile_radius,
)
from .spaces import LpSpace, NormedSpaceOps, validate_norm_axioms
from .verify import brute_force_best, las_vegas_baseline, verify_ball

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "CallableOracle",
    "CandidateBall",
    "CoverResult",
    "DegenerateInputError",
    "DistanceOracle",
    "InnerSolver",
    "LpSpace",
    "MatrixOracle",
    "MedianNormReport",
    "MetricCover",
    "NormedSpaceOps",
    "OneCenterError",
    "OperatorNormSpace",
    "PairReduction",
    "ParseError",
    "PlantedInstance",
    "UnsupportedFractionError",
    "WeightedPointSet",
    "any_alpha_constant",
    "any_alpha_solver",
    "ball_cover",
    "below_half_cover",
    "brute_force_best",
    "bucket_constant",
    "bucket_reduce",
    "centroid_refine",
    "cluster_any_alpha",
    "cluster_halfplus",
    "cluster_logtower",
    "covered_weight",
    "detect_format",
    "exact_ceil_root",
    "gap_constant",
    "generate_planted",
    "halfplus_constant",
    "instance_from_dict",
    "instance_to_dict",
    "kernel_backend",
    "las_vegas_baseline",
    "load_instance",
    "logtower_base_fraction",
    "logtower_constant",
    "lp_coordinate_median",
    "lp_median_bound",
    "median_counterexample_report",
    "metric_cover",
    "metric_halfplus",
    "metric_query_bound",
    "metric_quadratic",
    "operator_norm",
    "pair_reduce",
    "read_matrix",
    "read_points_csv",
    "refine_iteration_cap",
    "save_instance",
    "scale_base",
    "scale_count",
    "select_rows",
    "smallest_radius_at_weight",
    "validate_norm_axioms",
    "verify_ball",
    "verify_factor",
    "weighted_median",
    "weighted_quantile_radius",
    "write_matrix",
    "write_points_csv",
]
