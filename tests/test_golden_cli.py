"""Golden reports of every ``onecenter`` subcommand.

``tests/golden/cli.json`` pins, for every case below, the exit code, the
JSON report minus ``wall_time_s`` and the kind of stderr message (its
prefix: ``error:``, ``no solution:``, ``degenerate input:``,
``io error:``, ``usage:`` for argparse, or empty).  Storing the prefix
rather than the text lets a message be reworded without touching the
golden data.  The cases cross every command, ``--solver``, input kind
(points CSV, distance matrix, lp/normed/metric instance JSON, gap
instance JSON), ``--space``, a grid of alphas and the options that
change a solver's path (``--C 1``, ``--r``, ``--search-r``, ``--k 1``,
``--p inf``), plus the usage errors, and hits, misses and usage errors
of ``verify``, ``gen``, ``opnorm-demo`` and ``baseline``.  Inputs are
generated here from fixed seeds; ``gen`` writes into the same temporary
directory, and its report's ``path`` is stored as the ``{label}``
placeholder it was given.  Regenerate with

    PYTHONPATH=src python tests/test_golden_cli.py --write

only when a change is meant to alter CLI output, and say why in
CHANGES.md.
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from onecenter import cli
from onecenter.formats import save_instance, write_matrix, write_points_csv
from onecenter.generate import generate_planted

GOLDEN = Path(__file__).with_name("golden") / "cli.json"

SOLVERS = (None, *cli._SOLVERS, "bogus")
SPACES = (None, "lp", "normed", "metric")
ALPHAS = ("0.75", "0.55", "0.4", "1.5")
SOLVE_EXTRAS = (["--C", "1"], ["--r", "1.5"], ["--search-r"], ["--r", "1.5", "--search-r"], ["--k", "1"], ["--p", "inf"])
COVER_EXTRAS = ([], ["--r", "1.5"], ["--C", "1"])
BENCH_SIZES = "8,12,16,20"
LP_CENTER = "0.32137171095757466,-7.682687750584593"  # planted center of lp.csv
STDERR_PREFIXES = ("error:", "no solution:", "degenerate input:", "io error:", "usage:")


def write_inputs(root: Path) -> dict:
    """Small input files, one per kind; returns label -> path."""
    lp = generate_planted("lp", n=60, d=2, alpha=0.75, seed=1, weights="dyadic")
    normed = generate_planted("normed", n=60, d=3, alpha=0.6, r=2.0, seed=2)
    gap = generate_planted("normed", n=64, d=2, alpha=0.3, seed=3, weights="dyadic", mode="gap")
    met = generate_planted("metric", n=40, d=3, alpha=0.6, seed=4)
    paths = {
        "lp.csv": root / "lp.csv",
        "lp.json": root / "lp.json",
        "normed.json": root / "normed.json",
        "gap.json": root / "gap.json",
        "metric.txt": root / "metric.txt",
        "metric.json": root / "metric.json",
    }
    write_points_csv(str(paths["lp.csv"]), lp.ps)
    save_instance(str(paths["lp.json"]), lp)
    save_instance(str(paths["normed.json"]), normed)
    save_instance(str(paths["gap.json"]), gap)
    write_matrix(str(paths["metric.txt"]), met.matrix)
    save_instance(str(paths["metric.json"]), met)
    return {label: str(path) for label, path in paths.items()}


def _opt(flag: str, value) -> list:
    return [] if value is None else [flag, value]


def cases() -> list:
    """Every argv, with input files named by ``{label}`` placeholders."""
    out = []
    for label in ("lp.csv", "lp.json", "normed.json", "gap.json", "metric.txt", "metric.json"):
        src = ["--input", "{" + label + "}"]
        for solver in SOLVERS:
            for space in SPACES:
                out.append(["solve", *src, *_opt("--space", space), *_opt("--solver", solver), "--alpha", "0.75"])
            for alpha in ALPHAS[1:]:
                out.append(["solve", *src, *_opt("--solver", solver), "--alpha", alpha])
            alpha = "0.4" if solver in ("any-alpha", "logtower") else "0.75"
            for extra in SOLVE_EXTRAS:
                out.append(["solve", *src, *_opt("--solver", solver), "--alpha", alpha, *extra])
        for space in SPACES:
            for extra in COVER_EXTRAS:
                out.append(["cover", *src, *_opt("--space", space), "--alpha", "0.4", *extra])
        for alpha in ("0.75", "0.55", "1.5"):
            out.append(["cover", *src, "--alpha", alpha, "--r", "1.5"])
        out.append(["solve", *src, "--space", "lp", "--p", "inf", "--alpha", "0.75"])
        out.append(["solve", *src, "--alpha", "0.75", "--p", "bogus"])
        out.append(["cover", *src, "--alpha", "0.4", "--p", "inf"])
    for solver in ("halfplus", "cover", "quadratic", "bogus", None):
        for alpha in ALPHAS:
            for extra in ([], ["--C", "1"]):
                out.append(["bench", *_opt("--solver", solver), "--alpha", alpha, "--sizes", BENCH_SIZES, *extra])
    tiny = ["--r", "1e-300"]
    out += [
        ["bench", "--sizes", "8,12,16"],
        ["bench", "--sizes", "8,12,12,16"],
        ["bench", "--sizes", "8,x,16,20"],
        ["bench", "--sizes", BENCH_SIZES, "--seed", "3", "--d", "2"],
        ["solve", "--input", "{lp.csv}"],
        ["solve", "--input", "{lp.csv}", "--alpha", "0.75", "--format", "bogus"],
        ["solve", "--input", "{lp.csv}", "--alpha", "0.75", "--format", "matrix"],
        ["solve", "--input", "{metric.txt}", "--alpha", "0.75", "--format", "csv"],
        ["solve", "--input", "{missing}", "--alpha", "0.75"],
        ["cover", "--input", "{missing}", "--alpha", "0.4", "--r", "1"],
        ["solve", "--input", "{lp.csv}", "--alpha", "0.75", "--verify-tol", "0"],
        ["solve", "--input", "{metric.txt}", "--solver", "halfplus", "--alpha", "0.75", "--verify-tol", "0"],
        ["solve", "--input", "{lp.csv}", "--solver", "halfplus", "--alpha", "0.75", *tiny],
        ["solve", "--input", "{lp.csv}", "--solver", "halfplus", "--alpha", "0.75", *tiny, "--search-r"],
        ["solve", "--input", "{lp.csv}", "--solver", "any-alpha", "--alpha", "0.4", *tiny],
        ["solve", "--input", "{lp.csv}", "--solver", "logtower", "--alpha", "0.4", *tiny],
        ["cover", "--input", "{lp.csv}", "--alpha", "0.4", *tiny],
    ]
    out += [
        ["verify", "--input", "{lp.csv}", "--alpha", "0.75", "--radius", "1", "--center", LP_CENTER],
        ["verify", "--input", "{lp.csv}", "--alpha", "0.75", "--radius", "0.5", "--center", LP_CENTER],
        ["verify", "--input", "{metric.txt}", "--alpha", "0.6", "--radius", "1", "--center-index", "32"],
        ["verify", "--input", "{metric.txt}", "--alpha", "0.6", "--radius", "0.5", "--center-index", "32"],
        ["verify", "--input", "{lp.csv}", "--alpha", "0.75", "--radius", "1"],
        ["verify", "--input", "{metric.txt}", "--alpha", "0.6", "--radius", "1"],
        ["verify", "--input", "{lp.csv}", "--alpha", "0.75", "--radius", "1", "--center", "0,0,0"],
        ["verify", "--input", "{lp.csv}", "--alpha", "0.75", "--radius", "1", "--center", "0,x"],
        ["gen", "--space", "lp", "--n", "30", "--alpha", "0.75", "--emit", "csv", "--out", "{gen.csv}"],
        ["gen", "--space", "metric", "--n", "20", "--alpha", "0.6", "--emit", "matrix", "--out", "{gen.txt}"],
        ["gen", "--space", "normed", "--n", "32", "--alpha", "0.3", "--mode", "gap", "--out", "{gen.json}"],
        ["gen", "--space", "metric", "--n", "20", "--alpha", "0.6", "--emit", "csv", "--out", "{gen.csv}"],
        ["gen", "--space", "lp", "--n", "30", "--alpha", "0.75", "--emit", "matrix", "--out", "{gen.txt}"],
        ["opnorm-demo", "--k", "3", "--mode", "exhaustive"],
        ["opnorm-demo", "--k", "4", "--samples", "200", "--seed", "1"],
        ["opnorm-demo", "--k", "5", "--mode", "exhaustive"],
        ["baseline", "--input", "{lp.csv}", "--alpha", "0.75", "--r", "1.5"],
        ["baseline", "--input", "{lp.json}", "--alpha", "0.75"],
        ["baseline", "--input", "{lp.csv}", "--alpha", "0.75"],
        ["baseline", "--input", "{metric.txt}", "--alpha", "0.6", "--r", "1"],
        ["baseline", "--input", "{metric.txt}", "--alpha", "0.6", "--r", "0.1"],
    ]
    return out


def run_case(argv: list, paths: dict) -> dict:
    argv = [paths[arg[1:-1]] if arg.startswith("{") else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    report = json.loads(out.getvalue()) if out.getvalue().strip() else None
    if report is not None:
        report.pop("wall_time_s")
        if "path" in report:
            report["path"] = next("{" + k + "}" for k, v in paths.items() if v == report["path"])
    text = err.getvalue().strip()
    prefix = next((p for p in STDERR_PREFIXES if text.startswith(p)), "" if not text else text)
    return {"exit": code, "report": report, "stderr": prefix}


def compute_records(root: Path) -> dict:
    paths = write_inputs(root)
    paths["missing"] = str(root / "missing.csv")
    for label in ("gen.csv", "gen.txt", "gen.json"):
        paths[label] = str(root / label)
    # building the parser costs more than most cases; all of them share one
    build_parser, parser = cli.build_parser, cli.build_parser()
    cli.build_parser = lambda: parser
    try:
        return {" ".join(argv): run_case(argv, paths) for argv in cases()}
    finally:
        cli.build_parser = build_parser


def test_cli_reports_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = compute_records(tmp_path)
    assert sorted(got) == sorted(expected)
    mismatched = [key for key in expected if got[key] != expected[key]]
    assert not mismatched, {key: (expected[key], got[key]) for key in mismatched[:3]}


def test_golden_cli_cases_reach_every_outcome():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    outcomes = {(rec["exit"], rec["stderr"]) for rec in expected.values()}
    assert {(0, ""), (1, "error:"), (1, "usage:"), (1, "io error:"), (2, ""), (2, "no solution:")} <= outcomes
    assert {rec["stderr"] for rec in expected.values()} <= set(STDERR_PREFIXES) | {""}
    solved = {(rec["report"]["command"], rec["report"].get("solver")) for rec in expected.values() if rec["exit"] == 0}
    assert {("solve", s) for s in SOLVERS[1:-1]} <= solved
    assert {("bench", s) for s in ("halfplus", "cover", "quadratic")} <= solved
    assert ("cover", None) in solved
    commands = {rec["report"]["command"] for rec in expected.values() if rec["report"]}
    assert commands == {"solve", "verify", "cover", "bench", "gen", "opnorm-demo", "baseline"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_cli.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        records = compute_records(Path(tmp))
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
