"""Command-line interface.

Subcommands: solve, verify, cover, bench, gen, opnorm-demo.  Every
command writes a single JSON document to stdout (or --output) and sends
diagnostics to stderr.  Exit codes: 0 verified success, 1 usage or IO
error, 2 no solution or failed verification.

Two invocations with identical arguments and inputs produce
byte-identical JSON except for the wall_time_s field.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .core import CandidateBall, WeightedPointSet, require_radius
from .cover import (
    any_alpha_constant,
    below_half_cover,
    cluster_any_alpha,
    cluster_logtower,
    gap_constant,
    logtower_constant,
)
from .errors import ArgumentError, DegenerateInputError, OneCenterError, ParseError
from .formats import (
    detect_format,
    load_instance,
    read_matrix,
    read_points_csv,
    save_instance,
    write_matrix,
    write_points_csv,
)
from .generate import generate_planted
from .lp import lp_coordinate_median, lp_median_bound
from .metric import metric_cover, metric_halfplus, metric_quadratic
from .normed import cluster_halfplus, halfplus_constant
from .opnorm import median_counterexample_report
from .oracle import MatrixOracle
from .selection import weighted_quantile_radius
from .spaces import LpSpace
from .verify import brute_force_best, las_vegas_baseline, verify_ball

OUTPUT_SCHEMA_VERSION = 1
_SEARCH_R_CAP = 64


class UsageError(Exception):
    """Configuration is invalid; maps to exit code 1."""


class NoSolution(Exception):
    """The solver ran but produced no verified ball; exit code 2."""


def _parse_p(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"cannot parse p value {text!r}") from None


def _parse_number(cast, token: str, option: str):
    """``cast(token)`` for one comma-separated token of ``option``."""
    try:
        return cast(token)
    except ValueError:
        raise UsageError(f"cannot parse {option} value {token!r}") from None


def _emit(doc: dict, output: str | None, started: float) -> None:
    doc["schema_version"] = OUTPUT_SCHEMA_VERSION
    doc["wall_time_s"] = time.perf_counter() - started
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _center_json(center):
    if isinstance(center, (int, np.integer)):
        return int(center)
    return [float(x) for x in np.asarray(center).ravel()]


def _load_input(path: str, fmt: str, space: str | None, p: float):
    """Returns (space_tag, ps, ops_or_oracle, instance_or_None)."""
    if fmt == "auto":
        fmt = detect_format(path)
    if fmt == "csv":
        if space == "metric":
            raise UsageError("metric solvers need a distance matrix or instance JSON, not CSV")
        ps = read_points_csv(path)
        tag = space or "lp"
        return tag, ps, LpSpace(p, ps.d), None
    if fmt == "matrix":
        if space in ("lp", "normed"):
            raise UsageError(f"{space} solvers need point coordinates, not a distance matrix")
        matrix = read_matrix(path)
        oracle = MatrixOracle(matrix, validate="auto")
        ps = WeightedPointSet.indexed(oracle.size)
        return "metric", ps, oracle, None
    if fmt == "instance":
        inst = load_instance(path)
        if space is not None and space != inst.kind:
            raise UsageError(f"--space {space} does not match instance kind {inst.kind!r}")
        if inst.kind == "metric":
            return "metric", inst.ps, inst.oracle(), inst
        return inst.kind, inst.ps, inst.space_ops(), inst
    raise UsageError(f"unknown format {fmt!r}")


def _resolve_r(args, inst) -> float | None:
    r = args.r
    if r is None and inst is not None:
        r = inst.r
    if r is not None:
        require_radius(r)
    return r


def _tolerance(text: str) -> float:
    """argparse type of --verify-tol: a finite float >= 0."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _ball_fields(ball: CandidateBall, covered: float, total: float) -> dict:
    return {
        "center": _center_json(ball.center),
        "center_index": ball.center_index,
        "radius": ball.radius,
        "covered_weight": covered,
        "fraction_achieved": covered / total,
    }


def _cover_fields(C: int, cover, oracle) -> dict:
    return {
        "C": C,
        "balls": [{"center_index": c, "radius": s} for c, s in zip(cover.centers, cover.radii)],
        "approx_constant": cover.approx_constant,
        "query_count": oracle.query_count,
    }


# Solvers by --solver name.  Each entry looks its solver up in this
# module's globals when called, so a wrapper swapped into the module
# attribute (as perfbench's tracer does) sees every call.
METRIC_SOLVERS = {
    "halfplus": lambda ps, oracle, alpha, C: metric_halfplus(ps, oracle, alpha, C),
    "brute-force": lambda ps, oracle, alpha, C: brute_force_best(ps, oracle, alpha),
    "cover": lambda ps, oracle, alpha, C: metric_cover(ps, oracle, alpha, C),
    "quadratic": lambda ps, oracle, alpha, C: metric_quadratic(ps, oracle, alpha),
}
# name -> (ps, ops, alpha, r, k) -> (ball or None, approximation constant)
NORMED_SOLVERS = {
    "halfplus": lambda ps, ops, alpha, r, k: (cluster_halfplus(ps, ops, alpha, r), halfplus_constant(alpha)),
    "any-alpha": lambda ps, ops, alpha, r, k: (
        cluster_any_alpha(ps, ops, alpha, r),
        any_alpha_constant(alpha),
    ),
    "logtower": lambda ps, ops, alpha, r, k: (
        cluster_logtower(ps, ops, alpha, k, r),
        logtower_constant(alpha, k),
    ),
}


def _lookup(table: dict, solver: str, space: str):
    if solver in table:
        return table[solver]
    if solver == "lp-median" or solver in METRIC_SOLVERS or solver in NORMED_SOLVERS:
        raise UsageError(f"solver {solver!r} does not run on {space} input")
    raise UsageError(f"unknown solver {solver!r}")


def _normed_single(solve, ps, ops, alpha: float, r: float, args):
    """``solve`` at r; under --search-r, at r, 2r, 4r, ... until its ball verifies."""
    if not args.search_r:
        return (*solve(ps, ops, alpha, r, args.k), r)
    radius = r
    for _ in range(_SEARCH_R_CAP):
        try:
            ball, constant = solve(ps, ops, alpha, radius, args.k)
        except DegenerateInputError:
            ball, constant = None, None
        if ball is not None:
            ok, _ = verify_ball(ps, ops, ball.center, ball.radius, alpha, rel_tol=args.verify_tol)
            if ok:
                return ball, constant, radius
        radius *= 2.0
    raise NoSolution(f"radius search gave up after {_SEARCH_R_CAP} doublings from {r}")


def _solve_metric(doc: dict, solver: str, ps, oracle, args, inst) -> bool:
    if args.r is not None or args.search_r:
        raise UsageError("metric solvers take no --r; they find the radius themselves")
    alpha, C = args.alpha, args.C
    result = _lookup(METRIC_SOLVERS, solver, "metric")(ps, oracle, alpha, C)
    if solver in ("cover", "quadratic"):
        doc.update(_cover_fields(1 if solver == "quadratic" else C, result, oracle))
        doc.update(fraction=result.fraction, verified=len(result.centers) > 0)
        return doc["verified"]
    total = ps.total_weight
    doc.update(_ball_fields(result, result.covered_weight, total), query_count=oracle.query_count)
    if solver == "brute-force":
        doc.update(approx_constant=1.0, verified=True)
    else:
        verified = result.covered_weight >= alpha * total - args.verify_tol * total
        doc.update(C=C, approx_constant=2.0 * C, verified=bool(verified))
    return doc["verified"]


def _solve_coords(doc: dict, solver: str, ps, ops, args, inst) -> bool:
    alpha = args.alpha
    if solver == "lp-median":
        if doc["space"] != "lp":
            raise UsageError("lp-median runs under --space lp")
        x = lp_coordinate_median(ps, ops, alpha)
        radius = weighted_quantile_radius(ops.distances(ps.coords, x), ps.weights, alpha)
        ok, covered = verify_ball(ps, ops, x, radius, alpha, rel_tol=args.verify_tol)
        finite_p = not math.isinf(ops.p)
        constant = lp_median_bound(alpha, ops.p) + 1.0 if finite_p else None
        doc.update(_ball_fields(CandidateBall(x, radius, covered), covered, ps.total_weight))
        doc.update(p=ops.p if finite_p else "inf", approx_constant=constant)
        doc.update(query_count=None, verified=bool(ok))
        r = _resolve_r(args, inst)
        if r is not None and finite_p:
            doc["bound_radius"] = constant * r
        return ok
    solve = _lookup(NORMED_SOLVERS, solver, doc["space"])
    r = _resolve_r(args, inst)
    if r is None:
        raise UsageError(f"solver {solver!r} requires --r (the assumed inlier radius)")
    ball, constant, used_r = _normed_single(solve, ps, ops, alpha, r, args)
    if ball is None:
        doc.update({"r": used_r, "verified": False, "found": False})
        return False
    ok, covered = verify_ball(ps, ops, ball.center, ball.radius, alpha, rel_tol=args.verify_tol)
    doc.update(_ball_fields(ball, covered, ps.total_weight))
    doc.update(r=used_r, k=args.k if solver == "logtower" else None, approx_constant=constant)
    doc.update(query_count=None, verified=bool(ok))
    return ok


def cmd_solve(args) -> int:
    started = time.perf_counter()
    space, ps, backend, inst = _load_input(args.input, args.format, args.space, _parse_p(args.p))
    solver = args.solver or {"lp": "lp-median", "normed": "halfplus", "metric": "cover"}[space]
    doc: dict = {"command": "solve", "space": space, "solver": solver, "alpha": args.alpha, "n": ps.n}
    solve = _solve_metric if space == "metric" else _solve_coords
    ok = solve(doc, solver, ps, backend, args, inst)
    _emit(doc, args.output, started)
    return 0 if ok else 2


def cmd_verify(args) -> int:
    started = time.perf_counter()
    space, ps, backend, inst = _load_input(args.input, args.format, args.space, _parse_p(args.p))
    if space == "metric":
        if args.center_index is None:
            raise UsageError("metric verification needs --center-index")
        center = args.center_index
    else:
        if args.center is None:
            raise UsageError("coordinate verification needs --center x1,x2,...")
        center = np.array([_parse_number(float, t, "--center") for t in args.center.split(",")])
        if center.shape[0] != ps.d:
            raise UsageError(f"--center has {center.shape[0]} coordinates, expected {ps.d}")
    ok, covered = verify_ball(ps, backend, center, args.radius, args.alpha, rel_tol=args.verify_tol)
    doc = {
        "command": "verify",
        "space": space,
        "alpha": args.alpha,
        "radius": args.radius,
        "center": _center_json(center),
        "covered_weight": covered,
        "fraction_achieved": covered / ps.total_weight,
        "verified": bool(ok),
    }
    _emit(doc, args.output, started)
    return 0 if ok else 2


def cmd_cover(args) -> int:
    started = time.perf_counter()
    space, ps, backend, inst = _load_input(args.input, args.format, args.space, _parse_p(args.p))
    doc: dict = {"command": "cover", "space": space, "alpha": args.alpha, "n": ps.n}
    if space == "metric":
        if args.r is not None:
            raise UsageError("metric covers take no --r")
        cover = metric_cover(ps, backend, args.alpha, args.C)
        doc.update(_cover_fields(args.C, cover, backend))
        _emit(doc, args.output, started)
        return 0 if cover.centers else 2
    r = _resolve_r(args, inst)
    if r is None:
        raise UsageError("normed covers require --r")
    result = below_half_cover(ps, backend, args.alpha, r)
    doc.update(
        {
            "r": r,
            "balls": [
                {"center": _center_json(b.center), "radius": b.radius, "covered_weight": b.covered_weight}
                for b in result.balls
            ],
            "approx_constant": result.approx_constant,
            "gap_outer_factor": 2.0 * gap_constant(args.alpha) + 3.0,
        }
    )
    _emit(doc, args.output, started)
    return 0 if result.balls else 2


def cmd_bench(args) -> int:
    started = time.perf_counter()
    sizes = [_parse_number(int, t, "--sizes") for t in args.sizes.split(",") if t.strip()]
    if len(sizes) < 4:
        raise UsageError(f"bench needs at least 4 grid sizes, got {len(sizes)}")
    if sorted(set(sizes)) != sizes:
        raise UsageError("bench sizes must be strictly increasing")
    if not 0.5 < args.alpha <= 1.0:
        raise UsageError("bench uses the above-half metric solver; pass alpha in (1/2, 1]")
    solve = METRIC_SOLVERS[args.solver]
    rows = []
    for n in sizes:
        inst = generate_planted("metric", n=n, d=args.d, alpha=args.alpha, seed=args.seed + n, weights="unit")
        oracle = MatrixOracle(inst.matrix, validate="none")
        solve(inst.ps, oracle, args.alpha, args.C)
        rows.append({"n": n, "queries": oracle.query_count})
    slope, intercept = np.polyfit(
        np.log([row["n"] for row in rows]), np.log([row["queries"] for row in rows]), 1
    )
    expected = 1.0 + 1.0 / args.C if args.solver == "halfplus" else None
    doc = {
        "command": "bench",
        "solver": args.solver,
        "C": args.C,
        "alpha": args.alpha,
        "d": args.d,
        "seed": args.seed,
        "grid": rows,
        "slope": float(slope),
        "intercept": float(intercept),
        "expected_slope": expected,
        "slope_within_tolerance": None if expected is None else bool(abs(slope - expected) <= 0.15),
    }
    _emit(doc, args.output, started)
    return 0


def cmd_gen(args) -> int:
    started = time.perf_counter()
    p = _parse_p(args.p)
    inst = generate_planted(
        args.space,
        n=args.n,
        d=args.d,
        alpha=args.alpha,
        r=args.r if args.r is not None else 1.0,
        separation=args.separation,
        seed=args.seed,
        weights=args.weights,
        p=p,
        mode=args.mode,
        outlier_frac=args.outlier_frac,
    )
    fmt = args.emit
    if fmt == "instance":
        save_instance(args.out, inst)
    elif fmt == "csv":
        if inst.ps.coords is None:
            raise UsageError("metric instances have no coordinates; emit instance or matrix")
        write_points_csv(args.out, inst.ps)
    elif fmt == "matrix":
        if inst.matrix is None:
            raise UsageError("only metric instances carry a distance matrix")
        write_matrix(args.out, inst.matrix)
    else:
        raise UsageError(f"unknown emit format {fmt!r}")
    doc = {
        "command": "gen",
        "path": args.out,
        "emitted": fmt,
        "kind": inst.kind,
        "n": inst.ps.n,
        "d": args.d,
        "alpha": inst.alpha,
        "r": inst.r,
        "seed": inst.seed,
        "mode": args.mode,
        "ground_truth": inst.ground_truth(),
    }
    _emit(doc, args.output, started)
    return 0


def cmd_opnorm_demo(args) -> int:
    started = time.perf_counter()
    report = median_counterexample_report(
        args.k, mode=args.mode, samples=args.samples, seed=args.seed
    )
    doc = {
        "command": "opnorm-demo",
        "k": report.k,
        "mode": report.mode,
        "count": report.count,
        "median_is_all_ones": report.median_is_all_ones,
        "median_matrix_norm": report.median_matrix_norm,
        "member_quantiles": {str(q): v for q, v in report.member_quantiles},
        "threshold_fractions": {str(c): f for c, f in report.threshold_fractions},
        "member_max": report.member_max,
        "ratio_median_to_q90": report.ratio_median_to_q90,
    }
    _emit(doc, args.output, started)
    return 0


def cmd_baseline(args) -> int:
    started = time.perf_counter()
    space, ps, backend, inst = _load_input(args.input, args.format, args.space, _parse_p(args.p))
    r = _resolve_r(args, inst)
    if r is None:
        raise UsageError("the randomized baseline requires --r")
    ball, attempts = las_vegas_baseline(ps, backend, args.alpha, r, seed=args.seed)
    doc = {
        "command": "baseline",
        "space": space,
        "alpha": args.alpha,
        "r": r,
        "seed": args.seed,
        "attempts": attempts,
        "found": ball is not None,
    }
    if ball is not None:
        doc.update(
            {
                "center": _center_json(ball.center),
                "radius": ball.radius,
                "covered_weight": ball.covered_weight,
            }
        )
    _emit(doc, args.output, started)
    return 0 if ball is not None else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onecenter",
        description="Deterministic 1-center clustering with outliers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(sp, needs_input=True):
        if needs_input:
            sp.add_argument("--input", required=True, help="points CSV, distance matrix, or instance JSON")
            sp.add_argument(
                "--format",
                choices=("auto", "csv", "matrix", "instance"),
                default="auto",
                help="input format; auto maps .csv/.json/other to csv/instance/matrix",
            )
        sp.add_argument("--output", default=None, help="write the JSON report here instead of stdout")
        sp.add_argument("--p", default="2", help="l_p parameter for coordinate spaces ('inf' allowed)")
        sp.add_argument("--verify-tol", type=_tolerance, default=1e-12, help="relative verification slack")

    sp = sub.add_parser("solve", help="run one solver and verify its ball")
    add_io(sp)
    sp.add_argument("--space", choices=("lp", "normed", "metric"), default=None)
    sp.add_argument(
        "--solver",
        default=None,
        help=(
            f"lp: lp-median; lp or normed: {' | '.join(NORMED_SOLVERS)}; "
            f"metric: {' | '.join(METRIC_SOLVERS)}"
        ),
    )
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--r", type=float, default=None, help="assumed inlier radius (normed solvers)")
    sp.add_argument(
        "--search-r",
        action="store_true",
        help="double --r until verification passes (extra plumbing, not part of the core method)",
    )
    sp.add_argument("--C", type=int, default=2, help="metric recursion depth")
    sp.add_argument("--k", type=int, default=0, help="logtower composition depth")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("verify", help="check one ball against an instance")
    add_io(sp)
    sp.add_argument("--space", choices=("lp", "normed", "metric"), default=None)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--radius", type=float, required=True)
    sp.add_argument("--center", default=None, help="comma-separated coordinates")
    sp.add_argument("--center-index", type=int, default=None, help="point index (metric)")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("cover", help="peel a multi-ball cover")
    add_io(sp)
    sp.add_argument("--space", choices=("lp", "normed", "metric"), default=None)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--C", type=int, default=2)
    sp.set_defaults(func=cmd_cover)

    sp = sub.add_parser("bench", help="query-count scaling over a size grid")
    add_io(sp, needs_input=False)
    sp.add_argument("--solver", choices=("halfplus", "cover", "quadratic"), default="halfplus")
    sp.add_argument("--C", type=int, default=2)
    sp.add_argument("--alpha", type=float, default=0.75)
    sp.add_argument("--d", type=int, default=4)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--sizes", default="64,256,1024,4096", help="comma-separated n grid (>= 4 sizes)")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("gen", help="generate a planted instance")
    add_io(sp, needs_input=False)
    sp.add_argument("--space", choices=("lp", "normed", "metric"), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--separation", type=float, default=100.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--weights", choices=("unit", "dyadic"), default="unit")
    sp.add_argument("--mode", choices=("single", "two", "gap"), default="single")
    sp.add_argument("--outlier-frac", type=float, default=None)
    sp.add_argument("--emit", choices=("instance", "csv", "matrix"), default="instance")
    sp.add_argument("--out", required=True, help="path of the generated data file")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("opnorm-demo", help="sign-matrix median counterexample report")
    add_io(sp, needs_input=False)
    sp.add_argument("--k", type=int, default=32)
    sp.add_argument("--mode", choices=("sampled", "exhaustive"), default="sampled")
    sp.add_argument("--samples", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_opnorm_demo)

    sp = sub.add_parser("baseline", help="randomized pick-and-verify comparator")
    add_io(sp)
    sp.add_argument("--space", choices=("lp", "normed", "metric"), default=None)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_baseline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; the contract here is 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except NoSolution as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return 2
    except DegenerateInputError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ParseError, ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except OneCenterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
