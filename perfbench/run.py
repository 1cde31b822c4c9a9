"""onecenter benchmark: one workload per run, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the library is imported from
./src and CLI children get the same path.  Set-up (a fresh-process
``import onecenter`` plus generating the workload's instances) runs
three times.  Then jobs, each one pass over the workload's tasks, run
for S seconds: one untimed warm-up job, then at least three timed ones:

* --trace 0: the jobs run untraced and are timed.  One traced job
  follows them, untimed, to count distance evaluations.
* --trace 1: untraced and traced jobs alternate; the per-layer numbers
  come from the traced ones and the difference is the tracing overhead.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}
with the end-to-end metrics of BENCHMARK.json under --trace 0 and its
per-layer metrics under --trace 1.  The line before it holds the run's
metadata, the per-task answer digests and a per-span summary.  The exit
code is 1 if any answer fails the benchmark's check or any digest
differs between passes, and 2 if the checkout has no ./src/onecenter.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_JOBS = 3
IMPORT_TIMEOUT_S = 120


def import_seconds() -> float:
    """Time a fresh interpreter spends in ``import onecenter``."""
    from workloads import child_env

    code = "import time; t = time.perf_counter(); import onecenter; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=IMPORT_TIMEOUT_S,
    )
    return float(proc.stdout)


def run_job(wl, state, tracer=None):
    """One pass over the task list; returns (seconds, [(task, outcome)])."""
    import tracing
    from workloads import Outcome

    undo = tracing.install(tracer) if tracer is not None else None
    outcomes = []
    start = time.perf_counter()
    try:
        for task, fn in wl.tasks(state):
            try:
                if tracer is None:
                    out = fn(None)
                else:
                    out = tracer.call(f"task.{task}", 0, fn, (tracer,))
            except Exception:  # a failed task is counted, and the run goes on
                traceback.print_exc()
                out = Outcome(False, math.nan, math.nan, "error")
            outcomes.append((task, out))
    finally:
        if undo is not None:
            undo()
    return time.perf_counter() - start, outcomes


def _layer(spans: dict, layer: str) -> dict:
    rows = [row for name, row in spans.items() if name.split(".", 1)[0] == layer]
    return {key: sum(row[key] for row in rows) for key in ("calls", "count", "s", "self_s", "outer_s")}


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: dict) -> dict:
    """Per-layer metrics of one traced job from its span summary."""
    empty = {"calls": 0, "count": 0, "s": 0.0, "self_s": 0.0, "outer_s": 0.0}
    sel = _layer(spans, "selection")
    norms = spans.get("spaces.norms", empty)
    rows = spans.get("oracle.dist_many", empty)
    fmt = _layer(spans, "formats")
    process = spans.get("cli.process", empty)
    out = {
        "selection.calls": sel["calls"],
        "selection.elems": sel["count"],
        "selection.elems_per_call": _per(sel["count"], sel["calls"]),
        "selection.s": sel["outer_s"],
        "spaces.norms_calls": norms["calls"],
        "spaces.norms_rows": norms["count"],
        "spaces.rows_per_call": _per(norms["count"], norms["calls"]),
        "spaces.norms_s": norms["outer_s"],
        "oracle.dist_many_calls": rows["calls"],
        "oracle.queries": rows["count"],
        "oracle.queries_per_call": _per(rows["count"], rows["calls"]),
        "oracle.dist_many_s": rows["outer_s"],
        "oracle.validate_s": spans.get("oracle.validate", empty)["s"],
        "formats.parse_s": fmt["outer_s"],
        "formats.bytes": fmt["count"],
        "cli.import_s": spans.get("cli.import", empty)["s"],
        "cli.process_s": process["s"],
        "cli.self_s": process["self_s"],
    }
    for layer in ("cover", "normed", "lp", "metric", "verify"):
        tot = _layer(spans, layer)
        out[f"{layer}.calls"] = tot["calls"]
        out[f"{layer}.s"] = tot["outer_s"]
        out[f"{layer}.self_s"] = tot["self_s"]
    return out


def _mean_summary(summaries: list[dict]) -> dict:
    total: dict[str, dict] = {}
    for summary in summaries:
        for name, row in summary.items():
            acc = total.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
    return {name: {k: v / len(summaries) for k, v in row.items()} for name, row in total.items()}


def radius_ratio(outcomes) -> float:
    """Geometric mean over tasks of the largest returned radius over the planted r."""
    logs = [math.log(o.radius / o.r) for o in outcomes if o.r > 0 and o.radius > 0 and math.isfinite(o.radius)]
    return math.exp(math.fsum(logs) / len(logs)) if logs else 0.0


def metadata(seed: int, seconds: float, trace: int, jobs: int, traced_jobs: int) -> dict:
    import numpy
    import scipy

    import onecenter

    return {
        "kernel_backend": onecenter.kernel_backend(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "untraced_jobs": jobs,
        "traced_jobs": traced_jobs,
    }


def measure(name: str, seed: int, seconds: float, trace: int, sizes: dict | None = None):
    """Run one workload; returns (result, detail) as the two output lines."""
    import tracing
    import workloads

    cls = workloads.WORKLOADS[name]
    wl = cls(sizes or cls.full)
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    try:
        setup_s, import_s, generate_s = [], [], []
        for _ in range(SETUP_REPEATS):
            state = None  # drop the previous instances before making new ones
            t0 = time.perf_counter()
            import_s.append(import_seconds())
            t1 = time.perf_counter()
            state = wl.setup(seed, workdir)
            t2 = time.perf_counter()
            setup_s.append(t2 - t0)
            generate_s.append(t2 - t1)

        plain, traced, summaries = [], [], []

        def traced_job():
            tracer = tracing.Tracer()
            traced.append(run_job(wl, state, tracer))
            summaries.append(tracing.summarize(tracer))

        start = time.perf_counter()
        # first-touch allocations and cold caches: checked, not timed
        warmup = run_job(wl, state)
        while len(plain) < (MIN_JOBS if trace == 0 else 1) or time.perf_counter() - start < seconds:
            plain.append(run_job(wl, state))
            if trace:
                traced_job()
        who = resource.RUSAGE_CHILDREN if cls is workloads.CliFiles else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        if not trace:
            traced_job()  # untimed; counts distance evaluations
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = [warmup] + plain + traced
    outcomes = [o for _, outs in jobs for _, o in outs]
    digests: dict[str, set] = {}
    for _, outs in jobs:
        for task, o in outs:
            digests.setdefault(task, set()).add(o.digest)
    stable = all(len(d) == 1 for d in digests.values())
    failed = sum(not o.ok for o in outcomes)
    spans = _mean_summary(summaries)
    layers = layer_metrics(spans)
    job_s = statistics.median(t for t, _ in plain)
    traced_job_s = statistics.median(t for t, _ in traced)
    first = [o for _, o in jobs[0][1]]
    ratios = [o.query_bound_ratio for o in first if o.query_bound_ratio is not None]

    computed = {
        "setup_s": statistics.median(setup_s),
        "job_s": job_s,
        "peak_rss_mb": peak_rss_mb,
        "distance_evals": layers["spaces.norms_rows"] + layers["oracle.queries"],
        "verified_frac": (len(outcomes) - failed) / len(outcomes),
        "radius_ratio": radius_ratio(first),
        **layers,
        "metric.query_bound_ratio": max(ratios, default=0.0),
        "generate.s": statistics.median(generate_s),
        "setup.import_s": statistics.median(import_s),
        "trace.job_s": traced_job_s,
        "trace.overhead_s": traced_job_s - job_s,
        "trace.spans_per_job": sum(row["calls"] for row in spans.values()),
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": failed == 0 and stable,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": name,
        "meta": metadata(seed, seconds, trace, len(plain), len(traced)),
        "digests": {task: sorted(d) for task, d in digests.items()},
        "digests_stable": stable,
        "tasks": [{"task": task, **vars(o)} for task, o in jobs[0][1]],
        "job_s": [t for t, _ in plain],
        "traced_job_s": [t for t, _ in traced],
        "setup_s": setup_s,
        "spans": spans,
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="onecenter benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "onecenter" / "__init__.py").is_file():
        print(f"error: no onecenter sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, detail = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
