"""Command-line interface.

Subcommands: solve, verify, cover, bench, gen, opnorm-demo, baseline.
``solve`` and ``bench`` dispatch through one table, ``_SOLVERS``: it
maps each --solver name to the spaces it runs on, each entry returns
its solver's report fields, and ``solve --help`` lists it.  Each
``cmd_*`` function maps the parsed arguments to ``(report, verified)``
and writes nothing; ``main`` alone stamps the report's
``schema_version`` and ``wall_time_s``, writes it as one JSON document
to stdout (or --output), sends diagnostics to stderr and picks the exit
code: 0 verified success, 1 usage or IO error, 2 no solution or failed
verification.

Two invocations with identical arguments and inputs produce
byte-identical JSON except for the wall_time_s field.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .errors import ArgumentError, OneCenterError, ParseError
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
from .verify import VERIFY_REL_TOL, _meets_fraction, brute_force_best, las_vegas_baseline, verify_ball

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


def _center_json(center):
    if isinstance(center, (int, np.integer)):
        return int(center)
    return [float(x) for x in np.asarray(center).ravel()]


def _load_input(args):
    """(space_tag, ps, ops_or_oracle, instance_or_None) from --input, --format, --space and --p."""
    p, path, space = _parse_p(args.p), args.input, args.space
    fmt = detect_format(path) if args.format == "auto" else args.format
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
    inst = load_instance(path)
    if space is not None and space != inst.kind:
        raise UsageError(f"--space {space} does not match instance kind {inst.kind!r}")
    if inst.kind == "metric":
        return "metric", inst.ps, inst.oracle(), inst
    return inst.kind, inst.ps, inst.space_ops(), inst


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


def _seed(text: str) -> int:
    """argparse type of --seed: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _ball_fields(ps, ball: CandidateBall, covered: float | None = None, **fields) -> dict:
    covered = ball.covered_weight if covered is None else covered
    return {
        "center": _center_json(ball.center),
        "center_index": ball.center_index,
        "radius": ball.radius,
        "covered_weight": covered,
        "fraction_achieved": covered / ps.total_weight,
        **fields,
    }


def _cover_fields(C: int, cover, oracle) -> dict:
    return {
        "C": C,
        "balls": [{"center_index": c, "radius": s} for c, s in zip(cover.centers, cover.radii)],
        "approx_constant": cover.approx_constant,
        "query_count": oracle.query_count,
    }


def _cover_report(C: int, cover, oracle) -> dict:
    return {**_cover_fields(C, cover, oracle), "fraction": cover.fraction, "verified": len(cover.centers) > 0}


def _metric_halfplus(ps, oracle, args, inst) -> dict:
    ball = metric_halfplus(ps, oracle, args.alpha, args.C)
    ok = _meets_fraction(ball.covered_weight, args.alpha, ps.total_weight, args.verify_tol)
    return _ball_fields(ps, ball, query_count=oracle.query_count, C=args.C, approx_constant=2.0 * args.C, verified=ok)


def _brute_force(ps, oracle, args, inst) -> dict:
    ball = brute_force_best(ps, oracle, args.alpha)
    return _ball_fields(ps, ball, query_count=oracle.query_count, approx_constant=1.0, verified=True)


def _lp_median(ps, ops, args, inst) -> dict:
    x = lp_coordinate_median(ps, ops, args.alpha)
    radius = weighted_quantile_radius(ops.distances(ps.coords, x), ps.weights, args.alpha)
    ok, covered = verify_ball(ps, ops, x, radius, args.alpha, rel_tol=args.verify_tol)
    finite_p = not math.isinf(ops.p)
    constant = lp_median_bound(args.alpha, ops.p) + 1.0 if finite_p else None
    r = _resolve_r(args, inst)
    fields = dict(p=ops.p if finite_p else "inf", approx_constant=constant, query_count=None, verified=ok)
    if r is not None and finite_p:
        fields["bound_radius"] = constant * r
    return _ball_fields(ps, CandidateBall(x, radius, covered), **fields)


def _normed(solve, reports_k: bool = False) -> dict:
    """Entries on lp and normed input that run ``solve(ps, ops, alpha, r, k) -> (ball or None,
    constant)`` at --r; under --search-r, at r, 2r, 4r, ... until its ball verifies."""

    def run(ps, ops, args, inst) -> dict:
        r = _resolve_r(args, inst)
        if r is None:
            raise UsageError("this solver requires --r (the assumed inlier radius)")
        for radius in (r * 2.0**i for i in range(_SEARCH_R_CAP if args.search_r else 1)):
            ball, constant = solve(ps, ops, args.alpha, radius, args.k)
            if ball is not None:
                ok, covered = verify_ball(ps, ops, ball.center, ball.radius, args.alpha, rel_tol=args.verify_tol)
            if not args.search_r or ball is not None and ok:
                break
        else:
            raise NoSolution(f"radius search gave up after {_SEARCH_R_CAP} doublings from {r}")
        if ball is None:
            return {"r": radius, "verified": False, "found": False}
        k = args.k if reports_k else None
        return _ball_fields(ps, ball, covered, r=radius, k=k, approx_constant=constant, query_count=None, verified=ok)

    return {"lp": run, "normed": run}


# --solver name -> {space: run(ps, ops_or_oracle, args, inst) -> report fields}.
# Each entry looks its solver up in this module's globals when called, so
# a wrapper swapped into the module attribute (as perfbench's tracer does)
# sees every call.
_SOLVERS = {
    "lp-median": {"lp": _lp_median},
    "halfplus": _normed(lambda ps, ops, alpha, r, k: (cluster_halfplus(ps, ops, alpha, r), halfplus_constant(alpha)))
    | {"metric": _metric_halfplus},
    "any-alpha": _normed(
        lambda ps, ops, alpha, r, k: (cluster_any_alpha(ps, ops, alpha, r), any_alpha_constant(alpha))
    ),
    "logtower": _normed(
        lambda ps, ops, alpha, r, k: (cluster_logtower(ps, ops, alpha, k, r), logtower_constant(alpha, k)),
        reports_k=True,
    ),
    "cover": {
        "metric": lambda ps, oracle, args, inst: _cover_report(
            args.C, metric_cover(ps, oracle, args.alpha, args.C), oracle
        )
    },
    "quadratic": {
        "metric": lambda ps, oracle, args, inst: _cover_report(1, metric_quadratic(ps, oracle, args.alpha), oracle)
    },
    "brute-force": {"metric": _brute_force},
}


def cmd_solve(args) -> tuple[dict, bool]:
    space, ps, backend, inst = _load_input(args)
    solver = args.solver or {"lp": "lp-median", "normed": "halfplus", "metric": "cover"}[space]
    if solver not in _SOLVERS:
        raise UsageError(f"unknown solver {solver!r}")
    if space not in _SOLVERS[solver]:
        raise UsageError(f"solver {solver!r} does not run on {space} input")
    if space == "metric" and (args.r is not None or args.search_r):
        raise UsageError("metric solvers take no --r; they find the radius themselves")
    doc: dict = {"command": "solve", "space": space, "solver": solver, "alpha": args.alpha, "n": ps.n}
    doc.update(_SOLVERS[solver][space](ps, backend, args, inst))
    return doc, doc["verified"]


def cmd_verify(args) -> tuple[dict, bool]:
    space, ps, backend, inst = _load_input(args)
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
    return doc, ok


def cmd_cover(args) -> tuple[dict, bool]:
    space, ps, backend, inst = _load_input(args)
    doc: dict = {"command": "cover", "space": space, "alpha": args.alpha, "n": ps.n}
    if space == "metric":
        if args.r is not None:
            raise UsageError("metric covers take no --r")
        cover = metric_cover(ps, backend, args.alpha, args.C)
        doc.update(_cover_fields(args.C, cover, backend))
        return doc, bool(cover.centers)
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
    return doc, bool(result.balls)


def cmd_bench(args) -> tuple[dict, bool]:
    sizes = [_parse_number(int, t, "--sizes") for t in args.sizes.split(",") if t.strip()]
    if len(sizes) < 4:
        raise UsageError(f"bench needs at least 4 grid sizes, got {len(sizes)}")
    if sorted(set(sizes)) != sizes:
        raise UsageError("bench sizes must be strictly increasing")
    if not 0.5 < args.alpha <= 1.0:
        raise UsageError("bench uses the above-half metric solver; pass alpha in (1/2, 1]")
    rows = []
    for n in sizes:
        inst = generate_planted("metric", n=n, d=args.d, alpha=args.alpha, seed=args.seed + n, weights="unit")
        oracle = MatrixOracle(inst.matrix, validate="none")
        _SOLVERS[args.solver]["metric"](inst.ps, oracle, args, None)
        rows.append({"n": n, "queries": oracle.query_count})
    # least squares in Python floats, so the fit's bits do not depend on the host's BLAS or LAPACK
    xs, ys = ([math.log(row[key]) for row in rows] for key in ("n", "queries"))
    x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dx = [x - x_mean for x in xs]
    slope = math.fsum(a * (y - y_mean) for a, y in zip(dx, ys)) / math.fsum(a * a for a in dx)
    intercept = y_mean - slope * x_mean
    expected = 1.0 + 1.0 / args.C if args.solver == "halfplus" else None
    doc = {
        "command": "bench",
        "solver": args.solver,
        "C": args.C,
        "alpha": args.alpha,
        "d": args.d,
        "seed": args.seed,
        "grid": rows,
        "slope": slope,
        "intercept": intercept,
        "expected_slope": expected,
        "slope_within_tolerance": None if expected is None else bool(abs(slope - expected) <= 0.15),
    }
    return doc, True


def cmd_gen(args) -> tuple[dict, bool]:
    inst = generate_planted(
        args.space,
        n=args.n,
        d=args.d,
        alpha=args.alpha,
        r=args.r if args.r is not None else 1.0,
        separation=args.separation,
        seed=args.seed,
        weights=args.weights,
        p=_parse_p(args.p),
        mode=args.mode,
        outlier_frac=args.outlier_frac,
    )
    if args.emit == "instance":
        save_instance(args.out, inst)
    elif args.emit == "csv":
        if inst.ps.coords is None:
            raise UsageError("metric instances have no coordinates; emit instance or matrix")
        write_points_csv(args.out, inst.ps)
    else:
        if inst.matrix is None:
            raise UsageError("only metric instances carry a distance matrix")
        write_matrix(args.out, inst.matrix)
    doc = {
        "command": "gen",
        "path": args.out,
        "emitted": args.emit,
        "kind": inst.kind,
        "n": inst.ps.n,
        "d": args.d,
        "alpha": inst.alpha,
        "r": inst.r,
        "seed": inst.seed,
        "mode": args.mode,
        "ground_truth": inst.ground_truth(),
    }
    return doc, True


def cmd_opnorm_demo(args) -> tuple[dict, bool]:
    report = median_counterexample_report(args.k, mode=args.mode, samples=args.samples, seed=args.seed)
    doc = {"command": "opnorm-demo", **dataclasses.asdict(report)}
    doc["member_quantiles"] = {str(q): v for q, v in report.member_quantiles}
    doc["threshold_fractions"] = {str(c): f for c, f in report.threshold_fractions}
    return doc, True


def cmd_baseline(args) -> tuple[dict, bool]:
    space, ps, backend, inst = _load_input(args)
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
    return doc, ball is not None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onecenter",
        description="Deterministic 1-center clustering with outliers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(sp, needs_input=True, verify_tol=False):
        if needs_input:
            sp.add_argument("--input", required=True, help="points CSV, distance matrix, or instance JSON")
            sp.add_argument(
                "--format",
                choices=("auto", "csv", "matrix", "instance"),
                default="auto",
                help="input format; auto maps .csv/.json/other to csv/instance/matrix",
            )
            sp.add_argument("--space", choices=("lp", "normed", "metric"), default=None)
            sp.add_argument("--alpha", type=float, required=True)
            sp.add_argument("--p", default="2", help="l_p parameter of points CSV input ('inf' allowed)")
        sp.add_argument("--output", default=None, help="write the JSON report here instead of stdout")
        if verify_tol:
            sp.add_argument("--verify-tol", type=_tolerance, default=VERIFY_REL_TOL, help="relative verification slack")

    sp = sub.add_parser("solve", help="run one solver and verify its ball")
    add_io(sp, verify_tol=True)
    sp.add_argument(
        "--solver",
        default=None,
        help="; ".join(
            f"{space}: {' | '.join(name for name, row in _SOLVERS.items() if space in row)}"
            for space in ("lp", "normed", "metric")
        ),
    )
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
    add_io(sp, verify_tol=True)
    sp.add_argument("--radius", type=float, required=True)
    sp.add_argument("--center", default=None, help="comma-separated coordinates")
    sp.add_argument("--center-index", type=int, default=None, help="point index (metric)")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("cover", help="peel a multi-ball cover")
    add_io(sp)
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--C", type=int, default=2)
    sp.set_defaults(func=cmd_cover)

    sp = sub.add_parser("bench", help="query-count scaling over a size grid")
    add_io(sp, needs_input=False)
    sp.add_argument("--solver", choices=("halfplus", "cover", "quadratic"), default="halfplus")
    sp.add_argument("--C", type=int, default=2)
    sp.add_argument("--alpha", type=float, default=0.75)
    sp.add_argument("--d", type=int, default=4)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--sizes", default="64,256,1024,4096", help="comma-separated n grid (>= 4 sizes)")
    # the halfplus entry reads a tolerance; bench reports no verdict
    sp.set_defaults(func=cmd_bench, verify_tol=VERIFY_REL_TOL)

    sp = sub.add_parser("gen", help="generate a planted instance")
    add_io(sp, needs_input=False)
    sp.add_argument("--space", choices=("lp", "normed", "metric"), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--separation", type=float, default=100.0)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--weights", choices=("unit", "dyadic"), default="unit")
    sp.add_argument("--p", default="2", help="l_p parameter of the generated instance ('inf' allowed)")
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
    sp.add_argument("--seed", type=_seed, default=0)
    sp.set_defaults(func=cmd_opnorm_demo)

    sp = sub.add_parser("baseline", help="randomized pick-and-verify comparator")
    add_io(sp)
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.set_defaults(func=cmd_baseline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; the contract here is 1
        return 0 if exc.code in (0, None) else 1
    started = time.perf_counter()
    try:
        doc, verified = args.func(args)
        doc.update(schema_version=OUTPUT_SCHEMA_VERSION, wall_time_s=time.perf_counter() - started)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except NoSolution as exc:
        print(f"no solution: {exc}", file=sys.stderr)
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
    return 0 if verified else 2


if __name__ == "__main__":
    sys.exit(main())
