"""The benchmark's workloads: instances from a seed, task lists, answer checks.

A job is one pass over a workload's task list.  Each task is one solver
call on one generated instance followed by the benchmark's own check of
the answer; the solvers receive only the generated instances.  Why each
workload exists, and which layers it is meant to move, is written up in
README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from onecenter import cover, formats, generate, lp, metric, normed, oracle, selection, spaces, verify

ROOT = Path(__file__).resolve().parent.parent
DRIVER = Path(__file__).resolve().parent / "cli_driver.py"
CLI_TIMEOUT_S = 150
# Relative slack on radius and reach comparisons, the same as verify_ball's.
TOL = verify.VERIFY_REL_TOL


@dataclass
class Outcome:
    """What one task produced and whether the benchmark's check accepted it."""

    ok: bool
    radius: float  # largest radius the solver returned
    r: float  # planted radius
    digest: str
    query_bound_ratio: float | None = None  # metric_halfplus tasks only


def digest(*parts) -> str:
    """Hash of the raw bytes of centers, radii, covered weights and counts."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else np.asarray(part).tobytes())
    return h.hexdigest()[:16]


def sub_seed(seed: int, k: int) -> int:
    """Independent generator seed for the k-th instance of a workload."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _coord_ball(ps, center, radius, alpha, r, constant, *counts) -> Outcome:
    """verify_ball on the original instance, plus the solver's radius bound."""
    space = spaces.LpSpace(2.0, ps.d)
    ok, covered = verify.verify_ball(ps, space, center, radius, alpha)
    ok = ok and radius <= constant * r * (1.0 + TOL)
    return Outcome(ok, float(radius), r, digest(center, radius, covered, *counts))


def _reaches(dists_to_planted, radii, r: float, constant: float) -> bool:
    """Every planted ball meets a listed ball whose radius is within constant * r.

    dists_to_planted[j][b] is the distance from planted center j to the
    center of listed ball b.
    """
    radii = np.asarray(radii, dtype=np.float64)
    small = radii <= constant * r * (1.0 + TOL)
    return bool(radii.size) and all(
        np.any(small & (np.asarray(d) <= (radii + r) * (1.0 + TOL))) for d in dists_to_planted
    )


def _normed_cover_ok(inst, centers, radii, constant) -> bool:
    centers = np.asarray(centers, dtype=np.float64).reshape(len(radii), -1)
    dists = [np.linalg.norm(centers - c, axis=1) for c in inst.centers]
    return _reaches(dists, radii, inst.r, constant)


# ---------------------------------------------------------------------------


class CoordsLarge:
    """Large-array path: a few selections over 200k values, big norm batches."""

    name = "coords-large"
    full = {"n": 200_000, "d": 8}
    tiny = {"n": 3_000, "d": 3}
    alpha = 0.75

    def __init__(self, sizes: dict):
        self.sizes = sizes

    def setup(self, seed: int, workdir: Path):
        return generate.generate_planted(
            "lp", n=self.sizes["n"], d=self.sizes["d"], alpha=self.alpha, seed=sub_seed(seed, 0), weights="dyadic"
        )

    def tasks(self, inst):
        return [("lp_median", lambda tracer: self._lp_median(inst)), ("cluster_halfplus", lambda tracer: self._halfplus(inst))]

    def _lp_median(self, inst) -> Outcome:
        ps, space = inst.ps, spaces.LpSpace(2.0, inst.ps.d)
        x = lp.lp_coordinate_median(ps, space, self.alpha)
        radius = selection.weighted_quantile_radius(space.distances(ps.coords, x), ps.weights, self.alpha)
        bound = lp.lp_median_bound(self.alpha, 2.0) + 1.0
        return _coord_ball(ps, x, radius, self.alpha, inst.r, bound)

    def _halfplus(self, inst) -> Outcome:
        ps = inst.ps
        ball = normed.cluster_halfplus(ps, spaces.LpSpace(2.0, ps.d), self.alpha, inst.r)
        C = normed.halfplus_constant(self.alpha)
        return _coord_ball(ps, ball.center, ball.radius, self.alpha, inst.r, C, ball.covered_weight)


class NormedGap:
    """Overhead-bound recursion: ~10^5 norm batches of a few rows, no selection.

    The recursion's work depends on where the planted points fall in index
    order: per instance, cluster_logtower's cost varies by about 16% (one
    standard deviation, n=16) and below_half_cover plus cluster_any_alpha
    by about 3.5% (n=256); per second of run time, these sizes vary least.
    A job runs the cover tasks on one n=256 instance and cluster_logtower
    on two n=16 instances: its work (norm batches) has an interquartile
    spread of about 4% of its median from seed to seed, and it takes about
    2 s on a 2-core box, so a run takes the median of about ten jobs.
    """

    name = "normed-gap"
    full = {"cover_n": 256, "tower_n": 16}
    tiny = {"cover_n": 32, "tower_n": 16}
    towers = 2
    alpha = 0.3

    def __init__(self, sizes: dict):
        self.sizes = sizes

    def setup(self, seed: int, workdir: Path):
        def gen(n, k):
            return generate.generate_planted(
                "normed", n=n, d=2, alpha=self.alpha, seed=sub_seed(seed, k), weights="dyadic", mode="gap"
            )

        return gen(self.sizes["cover_n"], 0), [gen(self.sizes["tower_n"], 1 + k) for k in range(self.towers)]

    def tasks(self, state):
        inst, towers = state
        out = [
            ("below_half_cover", lambda tracer: self._below_half(inst)),
            ("cluster_any_alpha", lambda tracer: self._any_alpha(inst)),
        ]
        for k, tower in enumerate(towers):
            out.append((f"cluster_logtower_k1#{k}", lambda tracer, tower=tower: self._logtower(tower)))
        return out

    def _below_half(self, inst) -> Outcome:
        res = cover.below_half_cover(inst.ps, spaces.LpSpace(2.0, 2), self.alpha, inst.r)
        centers = [b.center for b in res.balls]
        radii = [b.radius for b in res.balls]
        ok = _normed_cover_ok(inst, centers, radii, res.approx_constant)
        ok = ok and len(radii) <= math.floor(1.0 / self.alpha)
        ok = ok and res.approx_constant == cover.gap_constant(self.alpha)
        covered = [b.covered_weight for b in res.balls]
        return Outcome(ok, max(radii, default=0.0), inst.r, digest(centers, radii, covered, len(radii)))

    def _any_alpha(self, inst) -> Outcome:
        ball = cover.cluster_any_alpha(inst.ps, spaces.LpSpace(2.0, 2), self.alpha, inst.r)
        if ball is None:
            return Outcome(False, math.nan, inst.r, digest(0))
        C = cover.any_alpha_constant(self.alpha)
        return _coord_ball(inst.ps, ball.center, ball.radius, self.alpha, inst.r, C, ball.covered_weight)

    def _logtower(self, inst) -> Outcome:
        ball = cover.cluster_logtower(inst.ps, spaces.LpSpace(2.0, 2), self.alpha, 1, inst.r)
        if ball is None:
            return Outcome(False, math.nan, inst.r, digest(0))
        C = cover.logtower_constant(self.alpha, 1)
        return _coord_ball(inst.ps, ball.center, ball.radius, self.alpha, inst.r, C, ball.covered_weight)


class MetricOracle:
    """Oracle row fetches and many mid-size selections; no norm batches."""

    name = "metric-oracle"
    # 4000 is no perfect square or cube, so PaddedOracle is exercised
    full = {"n": 4000, "d": 4}
    tiny = {"n": 70, "d": 3}

    def __init__(self, sizes: dict):
        self.sizes = sizes

    def setup(self, seed: int, workdir: Path):
        n, d = self.sizes["n"], self.sizes["d"]
        half = generate.generate_planted("metric", n=n, d=d, alpha=0.75, seed=sub_seed(seed, 0), weights="dyadic")
        two = generate.generate_planted(
            "metric", n=n, d=d, alpha=0.3, seed=sub_seed(seed, 1), weights="dyadic", mode="two"
        )
        return half, two

    def tasks(self, state):
        half, two = state
        return [
            ("metric_halfplus_C2", lambda tracer: self._halfplus(half, 2)),
            ("metric_halfplus_C3", lambda tracer: self._halfplus(half, 3)),
            ("metric_cover_C2", lambda tracer: self._cover(two, 2)),
        ]

    def _halfplus(self, inst, C: int) -> Outcome:
        alpha, ps = inst.alpha, inst.ps
        orc = oracle.MatrixOracle(inst.matrix, validate="auto")
        ball = metric.metric_halfplus(ps, orc, alpha, C)
        queries = orc.query_count
        covered = float(np.sum(ps.weights[inst.matrix[ball.center_index] <= ball.radius]))
        ok = covered >= (alpha - TOL) * ps.total_weight and ball.radius <= 2.0 * C * inst.r * (1.0 + TOL)
        return Outcome(
            ok,
            ball.radius,
            inst.r,
            digest(ball.center_index, ball.radius, ball.covered_weight, queries),
            queries / metric.metric_query_bound(C, ps.n),
        )

    def _cover(self, inst, C: int) -> Outcome:
        orc = oracle.MatrixOracle(inst.matrix, validate="auto")
        res = metric.metric_cover(inst.ps, orc, inst.alpha, C)
        queries = orc.query_count
        centers = np.asarray(res.centers, dtype=np.intp)
        dists = [inst.matrix[pc, centers] for pc in inst.center_indexes]
        ok = _reaches(dists, res.radii, inst.r, res.approx_constant) and res.approx_constant == 2.0 * C
        ok = ok and len(res.centers) <= math.floor(1.0 / inst.alpha)
        return Outcome(ok, max(res.radii, default=0.0), inst.r, digest(centers, res.radii, queries))


class CliFiles:
    """Fresh onecenter processes on files: import, text parsing, triangle check."""

    name = "cli-files"
    full = {"csv_n": 20_000, "csv_d": 8, "matrix_n": 500, "gap_n": 256}
    tiny = {"csv_n": 300, "csv_d": 3, "matrix_n": 40, "gap_n": 32}

    def __init__(self, sizes: dict):
        self.sizes = sizes

    def setup(self, seed: int, workdir: Path):
        sz = self.sizes
        workdir.mkdir(parents=True, exist_ok=True)
        pts = generate.generate_planted(
            "lp", n=sz["csv_n"], d=sz["csv_d"], alpha=0.75, seed=sub_seed(seed, 0), weights="dyadic"
        )
        # the matrix format carries no weights, so the planted ball is built on unit weights
        mat = generate.generate_planted("metric", n=sz["matrix_n"], d=4, alpha=0.75, seed=sub_seed(seed, 1))
        gap = generate.generate_planted(
            "normed", n=sz["gap_n"], d=2, alpha=0.3, seed=sub_seed(seed, 2), weights="dyadic", mode="gap"
        )
        files = {"csv": workdir / "points.csv", "matrix": workdir / "dist.txt", "gap": workdir / "gap.json"}
        formats.write_points_csv(str(files["csv"]), pts.ps)
        formats.write_matrix(str(files["matrix"]), mat.matrix)
        formats.save_instance(str(files["gap"]), gap)
        return {"pts": pts, "mat": mat, "gap": gap, "files": files, "workdir": workdir}

    def tasks(self, state):
        f = state["files"]
        return [
            ("solve_lp_csv", lambda tracer: self._lp(state, tracer, ["solve", "--input", str(f["csv"]), "--alpha", "0.75"])),
            (
                "solve_metric_halfplus",
                lambda tracer: self._metric(
                    state, tracer, ["solve", "--input", str(f["matrix"]), "--solver", "halfplus", "--C", "2", "--alpha", "0.75"]
                ),
            ),
            ("cover_gap_json", lambda tracer: self._cover(state, tracer, ["cover", "--input", str(f["gap"]), "--alpha", "0.3"])),
        ]

    def _lp(self, state, tracer, argv) -> Outcome:
        doc, dig = run_cli(argv, tracer, state["workdir"])
        inst = state["pts"]
        bound = lp.lp_median_bound(0.75, 2.0) + 1.0
        out = _coord_ball(inst.ps, np.asarray(doc["center"]), doc["radius"], 0.75, inst.r, bound)
        out.digest = dig
        return out

    def _metric(self, state, tracer, argv) -> Outcome:
        doc, dig = run_cli(argv, tracer, state["workdir"])
        inst = state["mat"]
        C, radius = int(doc["C"]), float(doc["radius"])
        covered = float(np.sum(inst.ps.weights[inst.matrix[doc["center_index"]] <= radius]))
        ok = covered >= (0.75 - TOL) * inst.ps.total_weight and radius <= 2.0 * C * inst.r * (1.0 + TOL)
        ratio = doc["query_count"] / metric.metric_query_bound(C, inst.ps.n)
        return Outcome(ok, radius, inst.r, dig, ratio)

    def _cover(self, state, tracer, argv) -> Outcome:
        doc, dig = run_cli(argv, tracer, state["workdir"])
        inst = state["gap"]
        centers = [b["center"] for b in doc["balls"]]
        radii = [b["radius"] for b in doc["balls"]]
        ok = _normed_cover_ok(inst, centers, radii, cover.gap_constant(0.3))
        return Outcome(ok, max(radii, default=0.0), inst.r, dig)


class CliFailed(RuntimeError):
    """A CLI child exited nonzero."""


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources come first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_cli(argv: list[str], tracer, workdir: Path) -> tuple[dict, str]:
    """One fresh onecenter process; returns its JSON report and the report's digest.

    Untraced, this is ``python -m onecenter``.  Traced, cli_driver.py runs
    the same ``cli.main`` with spans installed and writes them to a file,
    which is merged under a ``cli.process`` span.
    """
    if tracer is None:
        cmd = [sys.executable, "-m", "onecenter", *argv]
    else:
        spans_path = workdir / "spans.json"
        cmd = [sys.executable, str(DRIVER), str(spans_path), *argv]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    end = time.perf_counter()
    if tracer is not None:
        idx = tracer.add("cli.process", start, end, tracer.current)
        with open(spans_path, encoding="utf-8") as fh:
            tracer.merge(json.load(fh), idx)
    if proc.returncode != 0:
        raise CliFailed(f"onecenter {' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    doc = json.loads(proc.stdout)
    doc.pop("wall_time_s")  # the only field allowed to differ between runs
    return doc, digest(json.dumps(doc, sort_keys=True))


WORKLOADS = {cls.name: cls for cls in (CoordsLarge, NormedGap, MetricOracle, CliFiles)}
