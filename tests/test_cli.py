"""End-to-end command-line behavior: exit codes, JSON payloads, determinism."""

import json
import re
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from onecenter import ArgumentError, las_vegas_baseline, verify_ball
from onecenter import cli
from onecenter.cli import main
from onecenter.formats import save_instance, write_matrix, write_points_csv
from onecenter.generate import generate_planted
from onecenter.normed import halfplus_constant
from onecenter.opnorm import median_counterexample_report


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    doc = json.loads(out) if out.strip() else None
    return code, doc, err


@pytest.fixture()
def lp_csv(tmp_path):
    inst = generate_planted("lp", n=200, d=3, alpha=0.75, r=1.0, seed=7)
    path = tmp_path / "pts.csv"
    write_points_csv(str(path), inst.ps)
    return str(path), inst


@pytest.fixture()
def metric_matrix(tmp_path):
    inst = generate_planted("metric", n=90, d=3, alpha=0.6, r=1.0, seed=9)
    path = tmp_path / "dist.txt"
    write_matrix(str(path), inst.matrix)
    return str(path), inst


def test_solve_lp_csv_succeeds(lp_csv, capsys):
    path, inst = lp_csv
    code, doc, _ = run_cli(["solve", "--input", path, "--alpha", "0.75"], capsys)
    assert code == 0
    assert doc["command"] == "solve"
    assert doc["space"] == "lp"
    assert doc["solver"] == "lp-median"
    assert doc["verified"] is True
    assert doc["schema_version"] == 1
    assert isinstance(doc["wall_time_s"], float)
    assert len(doc["center"]) == 3
    assert doc["fraction_achieved"] >= 0.75 - 1e-9


def test_solve_normed_halfplus_from_instance(tmp_path, capsys):
    inst = generate_planted("lp", n=256, d=2, alpha=0.6, r=2.0, seed=4)
    path = tmp_path / "inst.json"
    save_instance(str(path), inst)
    code, doc, _ = run_cli(
        ["solve", "--input", str(path), "--solver", "halfplus", "--alpha", "0.6"], capsys
    )
    assert code == 0
    assert doc["r"] == 2.0  # picked up from the instance ground truth
    assert doc["radius"] == halfplus_constant(0.6) * 2.0
    assert doc["approx_constant"] == halfplus_constant(0.6)
    assert doc["verified"] is True


def test_metric_solve_rejects_r(metric_matrix, capsys):
    path, _ = metric_matrix
    code, doc, err = run_cli(
        ["solve", "--input", path, "--alpha", "0.6", "--r", "1.0"], capsys
    )
    assert code == 1
    assert doc is None
    assert "error" in err


def test_metric_halfplus_payload_schema(metric_matrix, capsys):
    path, _ = metric_matrix
    code, doc, _ = run_cli(
        ["solve", "--input", path, "--alpha", "0.6", "--solver", "halfplus", "--C", "2"], capsys
    )
    assert code == 0
    schema = {
        "type": "object",
        "required": [
            "schema_version", "wall_time_s", "command", "space", "solver",
            "alpha", "n", "C", "center", "center_index", "radius",
            "covered_weight", "fraction_achieved", "approx_constant",
            "query_count", "verified",
        ],
        "properties": {
            "schema_version": {"const": 1},
            "wall_time_s": {"type": "number"},
            "space": {"const": "metric"},
            "solver": {"const": "halfplus"},
            "center": {"type": "integer"},
            "center_index": {"type": "integer", "minimum": 0},
            "radius": {"type": "number", "minimum": 0},
            "covered_weight": {"type": "number", "minimum": 0},
            "approx_constant": {"const": 4.0},
            "query_count": {"type": "integer", "minimum": 1},
            "verified": {"const": True},
        },
    }
    jsonschema.validate(doc, schema)


def _run_raw(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name, data", [
    ("p.csv", b"w,x1\n1,2\n1,\xff\n"),
    ("m.txt", b"2\n0 1\n1 \xff\n"),
    ("i.json", b"\xff"),
])
def test_non_utf8_input_is_an_error_line(tmp_path, capsys, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    code, out, err = _run_raw(["solve", "--input", str(path), "--alpha", "0.75"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "not UTF-8" in err


@pytest.mark.parametrize("r", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--alpha", "0.75"],
        ["solve", "--solver", "halfplus", "--alpha", "0.75"],
        ["solve", "--solver", "halfplus", "--alpha", "0.75", "--search-r"],
        ["solve", "--solver", "any-alpha", "--alpha", "0.4"],
        ["solve", "--solver", "logtower", "--alpha", "0.4", "--search-r"],
        ["cover", "--alpha", "0.4"],
        ["baseline", "--alpha", "0.75"],
    ],
)
def test_non_finite_r_is_a_usage_error(lp_csv, capsys, argv, r):
    code, out, err = _run_raw([*argv, "--input", lp_csv[0], f"--r={r}"], capsys)
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("flag", ["--r", "--separation"])
def test_gen_non_finite_scale_is_a_usage_error(tmp_path, capsys, flag):
    argv = ["gen", "--space", "lp", "--n", "50", "--alpha", "0.75", flag, "nan", "--out", str(tmp_path / "p.csv")]
    code, out, err = _run_raw(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-3", "x"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--input", "p.csv", "--alpha", "0.75"],
        ["solve", "--input", "d.txt", "--solver", "cover", "--alpha", "0.75"],
        ["verify", "--input", "p.csv", "--alpha", "0.75", "--radius", "1", "--center", "0,0"],
        ["cover", "--input", "p.csv", "--alpha", "0.4", "--r", "1"],
        ["bench"],
        ["gen", "--space", "lp", "--n", "50", "--alpha", "0.75", "--out", "p.csv"],
        ["opnorm-demo", "--k", "2"],
        ["baseline", "--input", "p.csv", "--alpha", "0.75", "--r", "1"],
    ],
)
def test_bad_verify_tol_is_rejected_at_parse_time(capsys, argv, tol):
    # argparse rejects the value before any input file is opened
    code, out, err = _run_raw([*argv, f"--verify-tol={tol}"], capsys)
    assert (code, out) == (1, "")
    assert "--verify-tol" in err.splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [
        ["bench"],
        ["gen", "--space", "lp", "--n", "50", "--alpha", "0.75", "--out", "q.csv"],
        ["opnorm-demo", "--k", "2"],
        ["baseline", "--input", "p.csv", "--alpha", "0.75", "--r", "1"],
    ],
)
def test_negative_seed_is_rejected_at_parse_time(capsys, argv):
    code, out, err = _run_raw([*argv, "--seed", "-1"], capsys)
    assert (code, out) == (1, "")
    last = err.splitlines()[-1]
    assert "error:" in last and "--seed" in last


def test_library_entry_points_reject_a_negative_seed():
    inst = generate_planted("lp", n=20, d=2, alpha=0.75, seed=0)
    with pytest.raises(ArgumentError):
        generate_planted("lp", n=20, d=2, alpha=0.75, seed=-1)
    with pytest.raises(ArgumentError):
        las_vegas_baseline(inst.ps, inst.space_ops(), 0.75, inst.r, seed=-1)
    with pytest.raises(ArgumentError):
        median_counterexample_report(4, mode="sampled", samples=100, seed=-1)


def test_solve_help_names_every_table_solver(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # no line wrapping inside a name
    assert main(["solve", "--help"]) == 0
    help_text = capsys.readouterr().out
    for name in cli._SOLVERS:
        assert name in help_text


def test_malformed_csv_reports_line_and_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("w,x1,x2\n1.0,2.0,3.0\n1.0,oops,3.0\n")
    code, doc, err = run_cli(["solve", "--input", str(path), "--alpha", "0.75"], capsys)
    assert code == 1
    assert doc is None
    assert "line 3" in err


@pytest.mark.parametrize("solver", ["lp-median", "halfplus"])
def test_csv_weights_with_overflowing_total_exit_1(tmp_path, capsys, solver):
    path = tmp_path / "huge.csv"
    path.write_text("w,x1\n1e308,0.0\n1e308,0.5\n1e308,1.0\n")
    code, doc, err = run_cli(
        ["solve", "--input", str(path), "--solver", solver, "--alpha", "0.75", "--r", "1.0"], capsys
    )
    assert code == 1
    assert doc is None
    assert "finite" in err


def test_logtower_constant_past_the_double_range_exits_1(tmp_path, capsys):
    path = tmp_path / "gap.json"
    save_instance(str(path), generate_planted("normed", n=64, d=2, alpha=0.3, seed=3, mode="gap"))
    argv = ["solve", "--input", str(path), "--solver", "logtower", "--k", "4", "--alpha", "0.3", "--r", "1"]
    code, out, err = _run_raw(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:")


def test_unverifiable_normed_run_exits_2(tmp_path, capsys):
    path = tmp_path / "spread.csv"
    path.write_text("w,x1\n1.0,0.0\n1.0,100.0\n1.0,200.0\n1.0,300.0\n")
    code, _, _ = run_cli(
        ["solve", "--input", str(path), "--solver", "halfplus", "--alpha", "0.75", "--r", "1e-9"],
        capsys,
    )
    assert code == 2


def test_unknown_solver_exits_1(lp_csv, capsys):
    path, _ = lp_csv
    code, _, err = run_cli(
        ["solve", "--input", path, "--solver", "bogus", "--alpha", "0.75", "--r", "1.0"], capsys
    )
    assert code == 1
    assert "bogus" in err


def test_missing_required_argument_exits_1(lp_csv, capsys):
    path, _ = lp_csv
    code = main(["solve", "--input", path])
    capsys.readouterr()
    assert code == 1


def test_version_exits_0(capsys):
    assert main(["--version"]) == 0
    capsys.readouterr()


def test_cli_import_leaves_scipy_unloaded():
    # scipy is most of the import time; only the metric generator needs it
    code = "import sys, onecenter.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_search_r_doubles_until_verified(lp_csv, capsys):
    path, inst = lp_csv
    code, doc, _ = run_cli(
        [
            "solve", "--input", path, "--solver", "halfplus", "--alpha", "0.75",
            "--r", "0.015625", "--search-r",
        ],
        capsys,
    )
    assert code == 0
    assert doc["verified"] is True
    assert doc["r"] >= 0.015625
    assert doc["radius"] == halfplus_constant(0.75) * doc["r"]


def test_search_r_verifies_each_ball_once(lp_csv, capsys, monkeypatch):
    from onecenter import cli

    path, _ = lp_csv
    calls = []

    def counting_verify_ball(*args, **kwargs):
        calls.append(args[3])
        return verify_ball(*args, **kwargs)

    monkeypatch.setattr(cli, "verify_ball", counting_verify_ball)
    code, doc, _ = run_cli(
        [
            "solve", "--input", path, "--solver", "halfplus", "--alpha", "0.75",
            "--r", "0.015625", "--search-r",
        ],
        capsys,
    )
    assert code == 0 and doc["verified"] is True
    # one check per radius tried, the last of them the reported ball's
    assert len(calls) == len(set(calls)) >= 1
    assert calls[-1] == doc["radius"]


@pytest.mark.parametrize(
    "argv, top, n",
    [
        (["solve", "--solver", "halfplus", "--C", "8"], 7, 90),
        (["solve", "--solver", "halfplus", "--C", "64"], 7, 90),
        (["cover", "--C", "8"], 7, 90),
        (["cover", "--C", "64"], 7, 90),
        (["bench", "--sizes", "16,32,64,128", "--C", "64"], 4, 16),
    ],
)
def test_metric_depth_past_the_padding_is_a_usage_error(metric_matrix, capsys, argv, top, n):
    # C may be at most max(2, ceil(log2 n)); the matrix file has n = 90
    if argv[0] != "bench":
        argv = argv + ["--input", metric_matrix[0], "--alpha", "0.75"]
    code, doc, err = run_cli(argv, capsys)
    assert code == 1 and doc is None
    assert err.startswith("error: C must be at most")
    assert f"= {top} at n = {n}, got {argv[argv.index('--C') + 1]}" in err


def test_bench_rejects_short_grid(capsys):
    code, _, err = run_cli(["bench", "--sizes", "64,256,1024"], capsys)
    assert code == 1
    assert "4" in err


def test_bench_slope_matches_brute_force_exponent(capsys):
    code, doc, _ = run_cli(
        ["bench", "--solver", "halfplus", "--C", "1", "--sizes", "16,32,64,128"], capsys
    )
    assert code == 0
    assert doc["expected_slope"] == 2.0
    assert doc["slope_within_tolerance"] is True
    queries = [row["queries"] for row in doc["grid"]]
    assert queries == sorted(queries)
    assert len(queries) == 4


def test_cover_command_on_metric(metric_matrix, capsys):
    path, _ = metric_matrix
    code, doc, _ = run_cli(
        ["cover", "--input", path, "--alpha", "0.4", "--C", "2"], capsys
    )
    assert code == 0
    assert 1 <= len(doc["balls"]) <= 2
    assert doc["approx_constant"] == 4.0  # 2C with the default C = 2
    assert all(b["radius"] >= 0.0 for b in doc["balls"])


def test_verify_command_lp(lp_csv, capsys):
    path, inst = lp_csv
    center = ",".join(repr(float(x)) for x in inst.centers[0])
    code, doc, _ = run_cli(
        ["verify", "--input", path, "--alpha", "0.75", "--radius", "1.0", "--center", center],
        capsys,
    )
    assert code == 0
    assert doc["verified"] is True

    code, doc, _ = run_cli(
        ["verify", "--input", path, "--alpha", "0.75", "--radius", "1e-7", "--center", center],
        capsys,
    )
    assert code == 2
    assert doc["verified"] is False


@pytest.mark.parametrize(
    "first_coord, radius, named",
    [("nan", "1.0", "center"), ("inf", "1.0", "center"), (None, "nan", "radius"), (None, "inf", "radius")],
)
def test_verify_command_rejects_non_finite_ball(lp_csv, capsys, first_coord, radius, named):
    path, inst = lp_csv
    coords = [repr(float(x)) for x in inst.centers[0]]
    if first_coord is not None:
        coords[0] = first_coord
    code, doc, err = run_cli(
        ["verify", "--input", path, "--alpha", "0.75", "--radius", radius, "--center", ",".join(coords)],
        capsys,
    )
    assert code == 1
    assert doc is None
    assert named in err


@pytest.mark.parametrize("command, token", [("verify", "a"), ("bench", "x")])
def test_malformed_numbers_are_usage_errors_without_traceback(lp_csv, command, token):
    path, _ = lp_csv
    argv = {
        "verify": ["verify", "--input", path, "--alpha", "0.75", "--radius", "1", "--center", "a,b"],
        "bench": ["bench", "--sizes", "1,x,3,4"],
    }[command]
    out = subprocess.run([sys.executable, "-m", "onecenter", *argv], capture_output=True, text=True)
    assert out.returncode == 1
    assert out.stderr.startswith("error: ")
    assert repr(token) in out.stderr
    assert "Traceback" not in out.stderr


def test_verify_command_metric_needs_index(metric_matrix, capsys):
    path, inst = metric_matrix
    code, _, err = run_cli(
        ["verify", "--input", path, "--alpha", "0.6", "--radius", "1.0", "--center", "0,0,0"],
        capsys,
    )
    assert code == 1
    assert "center-index" in err

    code, doc, _ = run_cli(
        [
            "verify", "--input", path, "--alpha", "0.6", "--radius", "1.0",
            "--center-index", str(inst.center_indexes[0]),
        ],
        capsys,
    )
    assert code == 0
    assert doc["verified"] is True


def test_baseline_command(tmp_path, capsys):
    inst = generate_planted("lp", n=128, d=2, alpha=0.6, r=1.0, seed=12)
    path = tmp_path / "inst.json"
    save_instance(str(path), inst)
    code, doc, _ = run_cli(["baseline", "--input", str(path), "--alpha", "0.6", "--seed", "1"], capsys)
    assert code == 0
    assert doc["found"] is True
    assert doc["attempts"] >= 1
    assert doc["radius"] == 2.0  # the baseline always reports a 2r ball


def test_opnorm_demo_payload(capsys):
    code, doc, _ = run_cli(
        ["opnorm-demo", "--k", "3", "--mode", "exhaustive"], capsys
    )
    assert code == 0
    assert doc["count"] == 511
    assert doc["median_is_all_ones"] is True
    assert doc["median_matrix_norm"] == 3.0
    assert set(doc["member_quantiles"]) == {"0.1", "0.5", "0.9"}
    assert set(doc["threshold_fractions"]) == {"2.0", "2.1", "2.5"}


def test_gen_is_deterministic_and_emits_formats(tmp_path, capsys):
    args = [
        "gen", "--space", "lp", "--n", "50", "--d", "2", "--alpha", "0.75",
        "--seed", "3", "--emit", "instance",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()

    csv_path = tmp_path / "pts.csv"
    code, doc, _ = run_cli(
        [
            "gen", "--space", "lp", "--n", "50", "--d", "2", "--alpha", "0.75",
            "--seed", "3", "--emit", "csv", "--out", str(csv_path),
        ],
        capsys,
    )
    assert code == 0
    assert doc["emitted"] == "csv"
    assert csv_path.read_text().splitlines()[0] == "w,x1,x2"

    mat_path = tmp_path / "dist.txt"
    code, doc, _ = run_cli(
        [
            "gen", "--space", "metric", "--n", "40", "--d", "2", "--alpha", "0.6",
            "--seed", "3", "--emit", "matrix", "--out", str(mat_path),
        ],
        capsys,
    )
    assert code == 0
    assert mat_path.read_text().splitlines()[0] == "40"

    code, _, err = run_cli(
        [
            "gen", "--space", "metric", "--n", "40", "--d", "2", "--alpha", "0.6",
            "--seed", "3", "--emit", "csv", "--out", str(tmp_path / "no.csv"),
        ],
        capsys,
    )
    assert code == 1
    assert "metric" in err


def test_output_flag_writes_file_instead_of_stdout(lp_csv, tmp_path, capsys):
    path, _ = lp_csv
    out = tmp_path / "report.json"
    code, doc, _ = run_cli(
        ["solve", "--input", path, "--alpha", "0.75", "--output", str(out)], capsys
    )
    assert code == 0
    assert doc is None  # nothing on stdout
    assert json.loads(out.read_text())["verified"] is True


def _strip_timing(text: str) -> str:
    return re.sub(r'^\s*"wall_time_s": .*$', "", text, flags=re.MULTILINE)


def test_reruns_are_byte_identical_modulo_timing(tmp_path):
    inst = generate_planted("lp", n=150, d=2, alpha=0.6, r=1.0, seed=21)
    path = tmp_path / "inst.json"
    save_instance(str(path), inst)
    cmd = [
        sys.executable, "-m", "onecenter", "solve", "--input", str(path),
        "--solver", "halfplus", "--alpha", "0.6",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True, check=True)
    second = subprocess.run(cmd, capture_output=True, text=True, check=True)
    assert _strip_timing(first.stdout) == _strip_timing(second.stdout)
    assert "wall_time_s" in first.stdout

    demo = [sys.executable, "-m", "onecenter", "opnorm-demo", "--k", "8", "--samples", "300"]
    runs = [subprocess.run(demo, capture_output=True, text=True, check=True) for _ in range(2)]
    assert _strip_timing(runs[0].stdout) == _strip_timing(runs[1].stdout)


WRITE_PATH_CASES = {
    "solve": ["solve", "--input", "{csv}", "--alpha", "0.75"],
    "verify": ["verify", "--input", "{csv}", "--alpha", "0.75", "--radius", "1", "--center", "0,0,0"],
    "cover": ["cover", "--input", "{matrix}", "--alpha", "0.4"],
    "bench": ["bench", "--sizes", "8,12,16,20"],
    "gen": ["gen", "--space", "lp", "--n", "20", "--alpha", "0.75", "--out", "{tmp}/gen.json"],
    "opnorm-demo": ["opnorm-demo", "--k", "3", "--mode", "exhaustive"],
    "baseline": ["baseline", "--input", "{csv}", "--alpha", "0.75", "--r", "1"],
}


@pytest.mark.parametrize("command", sorted(WRITE_PATH_CASES))
def test_output_file_carries_the_stdout_report(lp_csv, metric_matrix, tmp_path, capsys, command):
    names = {"csv": lp_csv[0], "matrix": metric_matrix[0], "tmp": tmp_path}
    argv = [arg.format(**names) for arg in WRITE_PATH_CASES[command]]
    code = main(argv)
    printed, _ = capsys.readouterr()
    assert printed
    out = tmp_path / "report.json"
    assert main([*argv, "--output", str(out)]) == code
    assert capsys.readouterr() == ("", "")
    assert _strip_timing(out.read_text()) == _strip_timing(printed)

    assert main([*argv, "--output", str(tmp_path / "no-such-dir" / "report.json")]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("io error:")
