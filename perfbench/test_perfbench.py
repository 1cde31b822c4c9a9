"""Quick self-test of the benchmark on tiny instances.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every metric BENCHMARK.json names is emitted, that every
answer passes the benchmark's check with stable digests, that the layer
zeros the workloads are built around hold, and that the benchmark
refuses to run without the library sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
_cache: dict = {}


def tiny_run(workload: str, trace: int):
    if (workload, trace) not in _cache:
        _cache[workload, trace] = run.measure(workload, 5, 0.0, trace, workloads.WORKLOADS[workload].tiny)
    return _cache[workload, trace]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_named_metric_is_emitted_and_every_answer_checks(workload, trace):
    result, detail = tiny_run(workload, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert detail["digests_stable"]
    assert set(detail["meta"]) >= {"kernel_backend", "nproc", "python", "numpy", "scipy", "seed", "untraced_jobs"}
    if not trace:
        assert result["metrics"]["verified_frac"]["value"] == 1.0
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_predicted_zeros_hold():
    gap = tiny_run("normed-gap", 1)[0]["metrics"]
    assert gap["selection.calls"]["value"] == 0
    assert gap["oracle.queries"]["value"] == 0
    assert gap["spaces.norms_calls"]["value"] > 0
    orc = tiny_run("metric-oracle", 1)[0]["metrics"]
    assert orc["spaces.norms_calls"]["value"] == 0
    assert orc["selection.calls"]["value"] > 0
    assert 0 < orc["metric.query_bound_ratio"]["value"] <= 1.0


def test_cli_processes_are_split_into_import_parse_and_self_time():
    m = tiny_run("cli-files", 1)[0]["metrics"]
    parts = m["cli.import_s"]["value"] + m["cli.self_s"]["value"] + m["formats.parse_s"]["value"]
    assert 0 < parts < m["cli.process_s"]["value"]
    assert m["formats.bytes"]["value"] > 0 and m["oracle.validate_s"]["value"] > 0


def test_digest_changes_with_any_answer_byte():
    base = workloads.digest(1, 0.5, 2.0)
    assert workloads.digest(1, 0.5, 2.0) == base
    assert workloads.digest(1, 0.5 + 2**-52, 2.0) != base


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coords-large", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
