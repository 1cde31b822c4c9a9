"""Round-trip fidelity and error reporting of the three file formats."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onecenter import ArgumentError, ParseError, WeightedPointSet, formats, generate_planted
from onecenter.formats import (
    _parse_float,
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


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    coords = rng.normal(size=(37, 4)) * 1e3
    weights = rng.uniform(0.25, 7.0, size=37)
    ps = WeightedPointSet.from_coords(coords, weights)
    path = tmp_path / "pts.csv"
    write_points_csv(str(path), ps)
    back = read_points_csv(str(path))
    assert np.array_equal(back.coords, ps.coords)
    assert np.array_equal(back.weights, ps.weights)


def test_csv_header_and_row_errors(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("weight,x1\n1.0,2.0\n")
    with pytest.raises(ParseError) as err:
        read_points_csv(str(path))
    assert err.value.line == 1
    assert "w,x1" in str(err.value)

    path.write_text("w,x1,x2\n1.0,2.0,3.0\n1.0,4.0\n")
    with pytest.raises(ParseError) as err:
        read_points_csv(str(path))
    assert err.value.line == 3
    assert "line 3" in str(err.value)

    path.write_text("w,x1\n1.0,two\n")
    with pytest.raises(ParseError) as err:
        read_points_csv(str(path))
    assert err.value.line == 2
    assert "'two'" in str(err.value)

    path.write_text("w,x1\n1.0,nan\n")
    with pytest.raises(ParseError) as err:
        read_points_csv(str(path))
    assert "NaN" in str(err.value)

    path.write_text("w,x1\n")
    with pytest.raises(ParseError):
        read_points_csv(str(path))

    path.write_text("")
    with pytest.raises(ParseError) as err:
        read_points_csv(str(path))
    assert err.value.line == 1


def test_csv_negative_weight_is_a_parse_error(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("w,x1\n-1.0,2.0\n")
    with pytest.raises(ParseError):
        read_points_csv(str(path))


def test_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("w,x1\n1.0,2.0\n\n0.5,3.0\n")
    ps = read_points_csv(str(path))
    assert ps.n == 2
    assert ps.coords[1, 0] == 3.0


def test_matrix_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(9, 3))
    diff = pts[:, None, :] - pts[None, :, :]
    mat = np.sqrt(np.sum(diff * diff, axis=2))
    path = tmp_path / "dist.txt"
    write_matrix(str(path), mat)
    assert np.array_equal(read_matrix(str(path)), mat)


def test_matrix_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "m.txt"

    path.write_text("two\n0 1\n1 0\n")
    with pytest.raises(ParseError) as err:
        read_matrix(str(path))
    assert err.value.line == 1

    path.write_text("2\n0 1\n1\n")
    with pytest.raises(ParseError) as err:
        read_matrix(str(path))
    assert err.value.line == 3

    path.write_text("3\n0 1 2\n1 0 1\n")
    with pytest.raises(ParseError):
        read_matrix(str(path))

    path.write_text("0\n")
    with pytest.raises(ParseError):
        read_matrix(str(path))

    path.write_text("2\n0 x\n1 0\n")
    with pytest.raises(ParseError) as err:
        read_matrix(str(path))
    assert err.value.line == 2

    # a row past the n-th is an error at its own line; trailing blanks are not
    path.write_text("2\n0 1\n1 0\n\n5 5\n\n")
    with pytest.raises(ParseError) as err:
        read_matrix(str(path))
    assert err.value.line == 5
    assert "expected 2 matrix rows" in str(err.value)

    path.write_text("2\n0 1\n1 0\n\n \t\n")
    assert read_matrix(str(path)).shape == (2, 2)


def _read_points_csv_per_token(path):
    # the earlier token-by-token parser: the reference for read_points_csv
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file, expected a w,x1,...,xd header", line=1)
    header = [c.strip() for c in lines[0].split(",")]
    d = len(header) - 1
    if d < 1 or header[0] != "w" or header[1:] != [f"x{i}" for i in range(1, d + 1)]:
        raise ParseError("header must be w,x1,...,xd", line=1)
    weights = []
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != d + 1:
            raise ParseError(f"expected {d + 1} comma-separated values, got {len(cells)}", line=lineno)
        weights.append(_parse_float(cells[0], lineno, "weight"))
        rows.append([_parse_float(c, lineno, "coordinate") for c in cells[1:]])
    if not rows:
        raise ParseError("no data rows after the header", line=2)
    try:
        return WeightedPointSet.from_coords(np.array(rows), np.array(weights))
    except ArgumentError as exc:
        raise ParseError(str(exc)) from exc


def _read_matrix_per_token(path):
    # the earlier token-by-token parser: the reference for read_matrix on
    # files with at most n rows (it stopped reading after the n-th)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("empty file, expected a size line", line=1)
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ParseError(f"size line must be an integer, got {lines[0].strip()!r}", line=1) from None
    if n < 1:
        raise ParseError(f"size must be positive, got {n}", line=1)
    rows = []
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        cells = raw.split()
        if len(cells) != n:
            raise ParseError(f"expected {n} entries in matrix row, got {len(cells)}", line=lineno)
        rows.append([_parse_float(c, lineno, "distance") for c in cells])
        if len(rows) == n:
            break
    if len(rows) != n:
        raise ParseError(f"expected {n} matrix rows, found {len(rows)}", line=lineno)
    return np.array(rows)


def _outcome(read, path):
    try:
        got = read(path)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    if isinstance(got, WeightedPointSet):
        return ("ok", got.coords.shape, got.coords.tobytes(), got.weights.tobytes())
    return ("ok", got.shape, got.dtype, got.tobytes())


_MATRIX_CORPUS = [
    "2\n0 inf\ninf 0\n",
    "2\n0 -inf\n-inf 0\n",
    "2\n0 1_000\n1_000 0\n",
    "2\n  0   1e-320 \n\t1e-320\t0\n",
    "2\n-0.0 1\n1 -0.0\n",
    "3\n0 1.5 2.25\n1.5 0 0.125\n2.25 0.125 0\n",
    "2\n0 nan\n1 0\n",
    "2\n0 1\nNaN 0\n",
    "2\n0 +nan\n1 0\n",
    "2\n0 nan\n1\n",
    "3\n0 nan x\n1 0 1\n1 1 0\n",
    "3\n0 x nan\n1 0 1\n1 1 0\n",
    "2\ninf -inf\n-inf inf\n",
    "3\n1e308 1e308 -inf\n0 0 0\n0 0 0\n",
    "2\n\n0 1\n\n  \n1 0\n\n",
    "2\n0 1\n",
    "2\n0 1\n\n\n",
    "\n2\n0 1\n1 0\n",
    "2\n0 1 2\n1 0\n",
    # str.splitlines ends a line at \x0b, \x0c and \x1c; numpy's reader
    # takes them for spaces
    "2\n0 1\x0b1 0\n",
    "2\n0 \x0b1\n1 0\n",
    "2\n0 1\x0c1 0\n",
    "2\n0 \x0c1\n1 0\n",
    "2\n0 1\x1c1 0\n",
    "2\n0 \x1c1\n1 0\n",
    "2\n0 1\x1f\n1 0\n",
    "2\x0b0 1\n1 0\n",
    "2\r\n0 1\r\n1 0\r\n",
    "2\n0 1\r1 0\r",
    "2\n0 #\n# 0\n",
    "2\n# 1\n1 0\n",
    "2\n0 1e400\n1e400 0\n",
    "2\n0 \u0661\n1 0\n",
    "1\n0\n",
    "3\n",
    "3\n  \n\t\n",
]

_CSV_CORPUS = [
    "w,x1,x2\n1,inf,-inf\n",
    "w,x1\ninf,0\n",
    "w,x1\n1_000, 2 \n 0.5 ,1e-320\n1,-0.0\n",
    "w,x1\nnan,1\n",
    "w,x1,x2\n1,NaN,x\n",
    "w,x1,x2\n1,x,NaN\n",
    "w,x1,x2\nx,nan,1\n",
    "w,x1,x2\n1,+nan,2\n2,3\n",
    "w,x1,x2\n1,2,3\n2,3\n",
    "w,x1\n\n1,2\n\n   \n0.25,3\n\n",
    "w,x1\n1,-inf\n",
    "w,x1\n-1,0\n",
    "w,x1\n",
    "w,x1\n1,2\x0b3,4\n",
    "w,x1\n1,2\x0b3\n",
    "w,x1\n1,\x0c2\n",
    "w,x1\n1,2\x0c\n",
    "w,x1\n1,2\x1c\n",
    "w,x1\n1,\x1c2\n",
    "w,x1\n1,2\x1f\n",
    "w,x1\r\n1,2\r\n3,4\r\n",
    "w,x1\n1,2\r3,4\r",
    "w,x1\n#1,2\n",
    "w,x1\n1,2 # note\n",
    "w,x1\n1,1e400\n0.5,-1e400\n",
    "w,x1\n1,2\n \t \n3,4\n",
    "w,x1\n1,\u0662\n",
    "w,x1\n1,2,\n",
    "w,x1\n1,\n",
    "w,x1\n1,\"2\"\n",
    "w,x1\n\n",
]


@pytest.mark.parametrize("text", _MATRIX_CORPUS)
def test_read_matrix_matches_per_token_reference(tmp_path, text):
    path = tmp_path / "m.txt"
    path.write_text(text)
    assert _outcome(read_matrix, str(path)) == _outcome(_read_matrix_per_token, str(path))


@pytest.mark.parametrize("text", _CSV_CORPUS)
def test_read_points_csv_matches_per_token_reference(tmp_path, text):
    path = tmp_path / "p.csv"
    path.write_text(text)
    assert _outcome(read_points_csv, str(path)) == _outcome(_read_points_csv_per_token, str(path))


def _per_line_outcome(read, path):
    # the reader with numpy's C parser switched off: every row goes
    # through the per-line parser
    with mock.patch.object(formats, "_fast_rows", return_value=None):
        return _outcome(read, path)


_GOOD_TOKENS = ["0", "1", "2.5", "-0.0", "1e-320", "7", "0.125", "3e5", "1e400", ".5", "+1"]
_ODD_TOKENS = ["inf", "-inf", "nan", "+nan", "1_0", "#", "x", "", "\u0663", "0x1", "1d0", "1 2"]
_GOOD_SEPS = {
    "cell": [" ", " ", "\t", "  "],
    "csv": [",", ",", ", ", " ,", "\t,"],
    "line": ["\n", "\n", "\r\n", "\n\n", "\n \t\n"],
}
_ODD_SEPS = {
    "cell": ["\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "\x00", ","],
    "csv": [",\x1f", ",\x0c", "\x1c,", ",\x0b", " ", ",,"],
    "line": ["\r", "\n,\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\n#\n"],
}


@st.composite
def _soup(draw, csv):
    """A header, then rows of about the header's width.  Tokens, and
    separators, come from well-formed pieces only or mixed with odd ones,
    so that both parsers see many files they accept."""
    width = draw(st.integers(1, 3))
    head = "w," + ",".join(f"x{i}" for i in range(1, width)) if csv else str(width)
    odd_tokens, odd_seps = draw(st.booleans()), draw(st.booleans())
    tokens = st.sampled_from(_GOOD_TOKENS + (_ODD_TOKENS if odd_tokens else []))
    pool = {k: v + (_ODD_SEPS[k] if odd_seps else []) for k, v in _GOOD_SEPS.items()}
    cells = st.sampled_from(pool["csv" if csv else "cell"])
    lines = st.sampled_from(pool["line"])
    text = head + draw(lines)
    for _ in range(draw(st.sampled_from([width] * 4 + [0, 1, width + 1]))):
        row = [draw(tokens) for _ in range(draw(st.sampled_from([width] * 6 + [max(width - 1, 1), width + 1])))]
        text += row[0] + "".join(draw(cells) + t for t in row[1:]) + draw(lines)
    return text


@given(text=st.one_of(_soup(csv=False), _soup(csv=True)))
@settings(max_examples=400, deadline=None)
def test_c_parser_and_per_line_parser_agree_on_token_soups(tmp_path_factory, text):
    csv = text.startswith("w")
    path = str(tmp_path_factory.getbasetemp() / ("soup.csv" if csv else "soup.txt"))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    read = read_points_csv if csv else read_matrix
    assert _outcome(read, path) == _per_line_outcome(read, path)


@pytest.mark.parametrize("text", [
    "2\n0 inf\ninf 0\n",
    "2\n  0   1e-320 \n\t1e-320\t0\n",
    "2\n-0.0 1\n1 -0.0\n",
    "3\n0 1.5 2.25\n1.5 0 0.125\n2.25 0.125 0\n",
    "2\n\n0 1\n\n  \n1 0\n\n",
    "2\r\n0 1\r\n1 0\r\n",
    "2\n0 1e400\n1e400 0\n",
    "1\n0",
])
def test_c_parser_reads_well_formed_matrices(tmp_path, text):
    path = tmp_path / "m.txt"
    path.write_bytes(text.encode())
    with mock.patch.object(formats, "_matrix_rows", side_effect=AssertionError("per-line parser ran")):
        got = read_matrix(str(path))
    assert _outcome(read_matrix, str(path)) == _per_line_outcome(read_matrix, str(path))
    assert got.flags.c_contiguous


def test_c_parser_reads_generated_csv(tmp_path):
    lp = generate_planted("lp", n=300, d=5, alpha=0.75, r=1.0, seed=4)
    path = str(tmp_path / "p.csv")
    write_points_csv(path, lp.ps)
    with mock.patch.object(formats, "_csv_rows", side_effect=AssertionError("per-line parser ran")):
        got = read_points_csv(path)
    assert got.coords.tobytes() == lp.ps.coords.tobytes()
    assert got.weights.tobytes() == lp.ps.weights.tobytes()


@pytest.mark.parametrize("text, read", [
    ("3\n", read_matrix),
    ("3\n \t\n\n", read_matrix),
    ("3", read_matrix),
    ("w,x1\n", read_points_csv),
    ("w,x1\n\n  \n", read_points_csv),
])
def test_header_only_files_fail_without_warnings(tmp_path, text, read):
    path = tmp_path / "h.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError):
            read(str(path))


def test_matrix_size_line_allocates_nothing_before_the_rows(tmp_path):
    # a 13-byte file claiming n = 2e7 once built a 2e7-entry list (160 MB)
    path = tmp_path / "huge.txt"
    path.write_text("20000000\n0 1\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            read_matrix(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "expected 20000000 entries" in str(err.value)
    assert peak < 1_000_000


@pytest.mark.parametrize("name, read", [("p.csv", read_points_csv), ("m.txt", read_matrix), ("i.json", load_instance)])
def test_non_utf8_bytes_are_a_parse_error(tmp_path, name, read):
    path = tmp_path / name
    path.write_bytes({"p.csv": b"w,x1\n1,2\n1,\xff\n", "m.txt": b"1\n0\n\xff\n", "i.json": b'{\n"a": "\xff"}'}[name])
    with pytest.raises(ParseError) as err:
        read(str(path))
    assert "not UTF-8" in str(err.value) and "0xff" in str(err.value)
    assert err.value.line == (3 if name != "i.json" else 2)


def test_parsers_match_per_token_reference_on_generated_files(tmp_path):
    inst = generate_planted("metric", n=40, d=3, alpha=0.6, r=1.0, seed=2)
    mpath = str(tmp_path / "m.txt")
    write_matrix(mpath, inst.matrix)
    assert _outcome(read_matrix, mpath) == _outcome(_read_matrix_per_token, mpath)
    lp = generate_planted("lp", n=300, d=5, alpha=0.75, r=1.0, seed=2)
    cpath = str(tmp_path / "p.csv")
    write_points_csv(cpath, lp.ps)
    assert _outcome(read_points_csv, cpath) == _outcome(_read_points_csv_per_token, cpath)
    assert read_points_csv(cpath).coords.flags.c_contiguous


@pytest.mark.parametrize("space,alpha,mode", [("lp", 0.6, "single"), ("metric", 0.4, "two")])
def test_instance_json_round_trip(tmp_path, space, alpha, mode):
    inst = generate_planted(n=60, d=3, alpha=alpha, r=1.0, space=space, seed=11, mode=mode)
    path = tmp_path / "inst.json"
    save_instance(str(path), inst)
    back = load_instance(str(path))
    assert back.kind == inst.kind
    assert back.alpha == inst.alpha and back.r == inst.r and back.seed == inst.seed
    assert back.p == inst.p
    assert np.array_equal(back.ps.weights, inst.ps.weights)
    if inst.ps.coords is None:
        assert back.ps.coords is None
        assert np.array_equal(back.matrix, inst.matrix)
    else:
        assert np.array_equal(back.ps.coords, inst.ps.coords)
    assert back.center_indexes == inst.center_indexes
    assert all(np.array_equal(a, b) for a, b in zip(back.centers, inst.centers))
    assert np.array_equal(back.inlier_mask, inst.inlier_mask)
    assert back.cluster_weights == inst.cluster_weights
    assert back.min_clearance == inst.min_clearance


def test_instance_json_preserves_infinite_p(tmp_path):
    inst = generate_planted(n=40, d=2, alpha=0.75, r=0.5, space="lp", p=math.inf, seed=5)
    data = instance_to_dict(inst)
    assert data["p"] == "inf"
    assert instance_from_dict(data).p == math.inf


def test_instance_dict_validation():
    inst = generate_planted(n=30, d=2, alpha=0.6, r=1.0, space="lp", seed=2)
    good = instance_to_dict(inst)

    bad = dict(good)
    bad["schema_version"] = 2
    with pytest.raises(ParseError):
        instance_from_dict(bad)

    bad = dict(good)
    bad["kind"] = "graph"
    with pytest.raises(ParseError):
        instance_from_dict(bad)

    bad = dict(good)
    del bad["alpha"]
    with pytest.raises(ParseError):
        instance_from_dict(bad)

    bad = dict(good)
    bad["weights"] = [-1.0] * inst.ps.n
    with pytest.raises(ParseError):
        instance_from_dict(bad)

    with pytest.raises(ParseError):
        instance_from_dict([1, 2, 3])


def test_load_instance_reports_json_syntax_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "schema_version": 1,\n  oops\n}\n')
    with pytest.raises(ParseError) as err:
        load_instance(str(path))
    assert err.value.line == 3


def test_detect_format():
    assert detect_format("points.csv") == "csv"
    assert detect_format("/a/b/INST.JSON") == "instance"
    assert detect_format("dist.txt") == "matrix"
    assert detect_format("noext") == "matrix"
