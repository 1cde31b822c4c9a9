"""File formats: points CSV, distance-matrix text, and instance JSON.

Three formats, one per space model plus a replayable fixture format:

* points CSV: header row ``w,x1,...,xd``, one point per line, '.' as
  the decimal separator.
* distance matrix: first line ``n``, then exactly n whitespace-separated
  rows of n reals; blank lines are skipped.  Symmetry and the zero
  diagonal are enforced when the matrix is wrapped in a MatrixOracle.
* instance JSON: a full PlantedInstance including its ground truth, so
  solver runs can be replayed bit-for-bit.

All floats are written with Python's shortest round-trip repr, so
serialize-then-parse returns identical values.  Files are read as UTF-8
text.  The CSV and matrix rows go first to numpy's C parser and, when it
cannot vouch for them, to a per-line parser that names the bad line and
token; both give the same values (``_fast_rows``).
"""

from __future__ import annotations

import json
import math
import os
import re
from itertools import repeat

import numpy as np

from .core import WeightedPointSet
from .errors import ArgumentError, ParseError
from .generate import PlantedInstance

SCHEMA_VERSION = 1


def _parse_float(token: str, line: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"{what}: cannot parse {token!r} as a number", line=line) from None
    if math.isnan(value):
        raise ParseError(f"{what}: NaN is not allowed", line=line)
    return value


def _parse_row(cells: list[str], line: int, what) -> tuple[float, ...]:
    """Floats of one row, with the exact errors of ``_parse_float``.

    ``what`` yields the name of each column in turn, for error messages.
    The fast path is the same ``float`` call; only a row that fails it,
    or whose sum is NaN (a NaN cell, or a false alarm from inf + -inf),
    is parsed again token by token so that the first bad token is the
    one reported.  Rows are tuples, which hold a short row in less memory
    than a list.
    """
    try:
        vals = tuple(map(float, cells))
    except ValueError:
        pass
    else:
        if not math.isnan(sum(vals)):
            return vals
    return tuple(_parse_float(c, line, w) for c, w in zip(cells, what))


def _read_text(fh) -> str:
    """All of fh's text; bytes that are not UTF-8 are a ParseError."""
    try:
        return fh.read()
    except UnicodeDecodeError as exc:
        raw, at = exc.object, exc.start
        raise ParseError(
            f"file is not UTF-8 text: cannot decode byte {raw[at]:#04x} at offset {at}",
            line=raw.count(b"\n", 0, at) + 1,
        ) from None


def _first_line(text: str) -> str:
    """``text.splitlines()[0]`` ("" for empty text) without splitting the rest."""
    end = text.find("\n")
    return ((text if end < 0 else text[:end]).splitlines() or [""])[0]


# Whitespace that str.splitlines breaks lines at (\x0b, \x0c, \x1c to
# \x1e) but numpy's reader takes for a space, and \x1f, which numpy's
# reader strips from a number but ``float`` does not.
_ODD_SPACE = "\x0b\x0c\x1c\x1d\x1e\x1f"
_NONBLANK = re.compile(r"\S")


def _fast_rows(fh, text: str, delimiter) -> np.ndarray | None:
    """The rows after the first line, read by numpy's C parser, or None.

    ``text`` is everything fh holds.  The C parser reads only ASCII text
    whose whitespace is spaces, tabs and newlines (a text-mode file turns
    every line end into one newline), where its lines and fields are the
    per-line parser's; it converts a field with the same C routine that
    ``float`` calls, but accepts fewer spellings (no ``_``).  Any rows it
    returns with no NaN are therefore the per-line parser's values; the
    caller still checks their shape.  None means the per-line parser must
    decide, and name the error if there is one: the C parser failed, saw
    a NaN, or there are no rows (numpy would warn).  fh is read again
    rather than text wrapped in a StringIO, whose buffer would take four
    bytes a character.
    """
    if not text.isascii() or any(c in text for c in _ODD_SPACE):
        return None
    body = text.find("\n") + 1
    if not body or _NONBLANK.search(text, body) is None:
        return None
    fh.seek(0)
    fh.readline()
    try:
        rows = np.loadtxt(fh, comments=None, ndmin=2, delimiter=delimiter)
    except ValueError:  # a bad token or row: the per-line parser names it
        return None
    return None if np.isnan(rows).any() else rows


def read_points_csv(path: str) -> WeightedPointSet:
    """Parse a ``w,x1,...,xd`` CSV into a weighted point set."""
    with open(path, encoding="utf-8") as fh:
        text = _read_text(fh)
        if not text:
            raise ParseError("empty file, expected a w,x1,...,xd header", line=1)
        header = [c.strip() for c in _first_line(text).split(",")]
        d = len(header) - 1
        if d < 1 or header[0] != "w" or header[1:] != [f"x{i}" for i in range(1, d + 1)]:
            raise ParseError("header must be w,x1,...,xd", line=1)
        data = _fast_rows(fh, text, ",")
    if data is None or data.shape[1] != d + 1:
        data = _csv_rows(text.splitlines(), d)
    try:
        return WeightedPointSet.from_coords(data[:, 1:], data[:, 0])
    except ArgumentError as exc:
        raise ParseError(str(exc)) from exc


def _csv_rows(lines: list[str], d: int) -> np.ndarray:
    # the per-line parser of the rows after the header
    what = ["weight"] + ["coordinate"] * d
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != d + 1:
            raise ParseError(f"expected {d + 1} comma-separated values, got {len(cells)}", line=lineno)
        rows.append(_parse_row(cells, lineno, what))
    if not rows:
        raise ParseError("no data rows after the header", line=2)
    return np.array(rows)


def write_points_csv(path: str, ps: WeightedPointSet) -> None:
    if ps.coords is None:
        raise ArgumentError("cannot write an index-only point set as CSV")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("w," + ",".join(f"x{i}" for i in range(1, ps.d + 1)) + "\n")
        for w, row in zip(ps.weights, ps.coords):
            fh.write(",".join([repr(float(w))] + [repr(float(x)) for x in row]) + "\n")


def read_matrix(path: str) -> np.ndarray:
    """Parse the distance-matrix text format (first line n, then n rows)."""
    with open(path, encoding="utf-8") as fh:
        text = _read_text(fh)
        size = _first_line(text).strip()
        if not size:
            raise ParseError("empty file, expected a size line", line=1)
        try:
            n = int(size)
        except ValueError:
            raise ParseError(f"size line must be an integer, got {size!r}", line=1) from None
        if n < 1:
            raise ParseError(f"size must be positive, got {n}", line=1)
        rows = _fast_rows(fh, text, None)
    if rows is not None and rows.shape == (n, n):
        return rows
    return _matrix_rows(text.splitlines(), n)


def _matrix_rows(lines: list[str], n: int) -> np.ndarray:
    # the per-line parser of the rows after the size line; nothing here
    # is sized by n before n rows have been read
    what = repeat("distance")
    rows = []
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        if len(rows) == n:
            raise ParseError(f"expected {n} matrix rows, found more", line=lineno)
        cells = raw.split()
        if len(cells) != n:
            raise ParseError(f"expected {n} entries in matrix row, got {len(cells)}", line=lineno)
        rows.append(_parse_row(cells, lineno, what))
    if len(rows) != n:
        raise ParseError(f"expected {n} matrix rows, found {len(rows)}", line=lineno)
    return np.array(rows)


def write_matrix(path: str, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ArgumentError(f"matrix must be square, got shape {matrix.shape}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.shape[0]}\n")
        for row in matrix:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def _p_to_json(p: float):
    return "inf" if math.isinf(p) else p


def _p_from_json(value) -> float:
    if value == "inf":
        return math.inf
    return float(value)


def instance_to_dict(inst: PlantedInstance) -> dict:
    """Full JSON-ready serialization, ground truth included."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": inst.kind,
        "alpha": inst.alpha,
        "r": inst.r,
        "p": _p_to_json(inst.p),
        "seed": inst.seed,
        "weights": [float(w) for w in inst.ps.weights],
        "coords": None if inst.ps.coords is None else [[float(x) for x in row] for row in inst.ps.coords],
        "matrix": None if inst.matrix is None else [[float(x) for x in row] for row in inst.matrix],
        "centers": [np.asarray(c).tolist() for c in inst.centers],
        "center_indexes": list(inst.center_indexes),
        "inlier_mask": None if inst.inlier_mask is None else [bool(b) for b in inst.inlier_mask],
        "cluster_weights": list(inst.cluster_weights),
        "min_clearance": inst.min_clearance,
    }


def instance_from_dict(data: dict) -> PlantedInstance:
    if not isinstance(data, dict):
        raise ParseError("instance JSON must be an object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")
    if data.get("kind") not in ("lp", "normed", "metric"):
        raise ParseError(f"kind must be lp, normed, or metric, got {data.get('kind')!r}")
    try:
        weights = np.array(data["weights"], dtype=np.float64)
        coords = data.get("coords")
        matrix = data.get("matrix")
        ps = (
            WeightedPointSet.indexed(len(weights), weights)
            if coords is None
            else WeightedPointSet.from_coords(np.array(coords, dtype=np.float64), weights)
        )
        mask = data.get("inlier_mask")
        return PlantedInstance(
            kind=data["kind"],
            ps=ps,
            alpha=float(data["alpha"]),
            r=float(data["r"]),
            p=_p_from_json(data["p"]),
            seed=int(data["seed"]),
            centers=tuple(np.array(c, dtype=np.float64) for c in data["centers"]),
            center_indexes=tuple(int(i) for i in data["center_indexes"]),
            inlier_mask=None if mask is None else np.array(mask, dtype=bool),
            cluster_weights=tuple(float(x) for x in data["cluster_weights"]),
            min_clearance=float(data["min_clearance"]),
            matrix=None if matrix is None else np.array(matrix, dtype=np.float64),
        )
    except KeyError as exc:
        raise ParseError(f"instance JSON is missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, ArgumentError) as exc:
        raise ParseError(f"instance JSON is malformed: {exc}") from exc


def save_instance(path: str, inst: PlantedInstance) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1)
        fh.write("\n")


def load_instance(path: str) -> PlantedInstance:
    with open(path, encoding="utf-8") as fh:
        text = _read_text(fh)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    return instance_from_dict(data)


def detect_format(path: str) -> str:
    """Map a file extension to a format tag: csv, instance, or matrix."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".csv":
        return "csv"
    if ext == ".json":
        return "instance"
    return "matrix"
