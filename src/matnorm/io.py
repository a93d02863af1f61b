"""Dataset and parameter file formats.

Datasets are UTF-8 CSV with a header row.  An optional leading ``label``
column holds integer class labels; the remaining columns must be named
``x_r{r}_c{c}`` with 1-based row and column coordinates, ordered so the
row coordinate varies fastest.  A data row is therefore exactly the
column-stacked observation, and the file layout and the math share one
convention.  Missing entries are written as an empty field and read back
from either an empty field or the literal ``NA``.

Parameters serialize to JSON carrying ``format_version: 1``.  Floats go
through their shortest round-trip representation, so load(save(x))
reproduces x bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile

import numpy as np

from .missing import UnstructuredParams
from .model import MatrixNormalParams

_COLUMN_RE = re.compile(r"^x_r(\d+)_c(\d+)$")
_MISSING_FIELDS = ("", "NA")
_NAN = float("nan")


def atomic_write_text(path: str, text: str) -> None:
    """Write a file through a temp name and rename, so readers never see halves."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _expected_columns(p: int, q: int) -> list:
    return [f"x_r{r}_c{c}" for c in range(1, q + 1) for r in range(1, p + 1)]


def _parse_header(fields: list) -> tuple[bool, int, int]:
    """(has label column, p, q), validating the exact column-major order."""
    has_label = bool(fields) and fields[0] == "label"
    names = fields[1:] if has_label else fields
    if not names:
        raise ValueError("header has no value columns")
    coords = []
    for name in names:
        m = _COLUMN_RE.match(name)
        if m is None:
            raise ValueError(
                f"unrecognized header column {name!r}; expected x_r<row>_c<col>"
            )
        coords.append((int(m.group(1)), int(m.group(2))))
    p = max(r for r, _ in coords)
    q = max(c for _, c in coords)
    expected = _expected_columns(p, q)
    if names != expected:
        raise ValueError(
            f"header columns must cover r=1..{p}, c=1..{q} in column-major "
            "order with the row coordinate fastest"
        )
    return has_label, p, q


def _first_bad_field(path: str, lineno: int, names: list, fields: list) -> str:
    """Message for the first unparsable or non-finite value field of a line."""
    for name, field in zip(names, fields):
        if field in _MISSING_FIELDS:
            continue
        try:
            value = float(field)
        except ValueError:
            return (
                f"{path}: line {lineno}, column {name}: "
                f"cannot parse {field!r} as a number"
            )
        if not math.isfinite(value):
            return (
                f"{path}: line {lineno}, column {name}: value must be "
                "finite (encode missing entries as empty or NA)"
            )
    return ""


def _parse_fields(fields: list, has_label: bool) -> tuple:
    label = int(fields[0]) if has_label else None
    values = fields[1:] if has_label else fields
    row = [_NAN if f in _MISSING_FIELDS else float(f) for f in values]
    return label, row, sum(values.count(m) for m in _MISSING_FIELDS)


def _parse_line(
    path: str, lineno: int, line: str, width: int, names: list, has_label: bool
) -> tuple:
    """(label or None, values with NaN for missing, missing count) of a data line.

    The fields are parsed as they stand first, since ``int`` and ``float``
    accept surrounding blanks; only a line where that fails, from a bad
    field or a padded ``NA`` or blank field, is parsed again with its
    fields stripped.  Raises for a ragged line, a bad label or an
    unparsable value; a non-finite value is left for the caller to find.
    """
    fields = line.split(",")
    if len(fields) != width:
        raise ValueError(
            f"{path}: line {lineno}: expected {width} fields, got {len(fields)}"
        )
    try:
        return _parse_fields(fields, has_label)
    except ValueError:
        fields = [f.strip() for f in fields]
    if has_label:
        try:
            int(fields[0])
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}: label {fields[0]!r} is not an integer"
            ) from None
    try:
        return _parse_fields(fields, has_label)
    except ValueError:
        values = fields[1:] if has_label else fields
        raise ValueError(_first_bad_field(path, lineno, names, values)) from None


def _check_finite(
    path: str, lines: list, names: list, line_numbers: list, rows: list, missing: list
) -> np.ndarray:
    """The rows as one (n, width) array; raises naming the first non-finite value."""
    stacked = np.array(rows, dtype=float).reshape(len(rows), len(names))
    # each missing field reads as one NaN, so a row holds a bad value
    # exactly when it has more non-finite entries than missing fields
    nonfinite = np.count_nonzero(~np.isfinite(stacked), axis=1)
    bad = np.flatnonzero(nonfinite > np.asarray(missing, dtype=int))
    if bad.size:
        lineno = line_numbers[bad[0]]
        fields = [f.strip() for f in lines[lineno - 1].split(",")]
        raise ValueError(
            _first_bad_field(path, lineno, names, fields[len(fields) - len(names):])
        )
    return stacked


def load_dataset(path: str) -> tuple[np.ndarray, "np.ndarray | None"]:
    """Read a dataset CSV; returns (values (n, p, q), labels or None).

    Lines are parsed into Python floats and stacked into one array, whose
    finiteness is checked at once.  An error names the first bad field in
    file order.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = [f.strip() for f in lines[0].split(",")]
    has_label, p, q = _parse_header(header)
    width = len(header)
    names = header[1:] if has_label else header

    labels, rows, line_numbers, missing = [], [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            label, row, holes = _parse_line(path, lineno, line, width, names, has_label)
        except ValueError:
            # a non-finite value on an earlier line comes first in file order
            _check_finite(path, lines, names, line_numbers, rows, missing)
            raise
        labels.append(label)
        rows.append(row)
        line_numbers.append(lineno)
        missing.append(holes)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    stacked = _check_finite(path, lines, names, line_numbers, rows, missing)
    values = stacked.reshape(len(rows), q, p).transpose(0, 2, 1)
    return values, (np.asarray(labels, dtype=int) if has_label else None)


def save_dataset(
    path: str, values: np.ndarray, labels: "np.ndarray | None" = None
) -> None:
    """Write a dataset CSV in the canonical column order."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 3:
        raise ValueError(f"values must have shape (n, p, q), got {values.shape}")
    n, p, q = values.shape
    header = _expected_columns(p, q)
    if labels is not None:
        labels = np.asarray(labels, dtype=int)
        if labels.shape != (n,):
            raise ValueError(f"labels shape {labels.shape} does not match {n} rows")
        header = ["label"] + header
    flat = values.transpose(0, 2, 1).reshape(n, p * q)
    lines = [",".join(header)]
    for i in range(n):
        fields = ["" if np.isnan(v) else repr(float(v)) for v in flat[i]]
        if labels is not None:
            fields = [str(int(labels[i]))] + fields
        lines.append(",".join(fields))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _nested(a: np.ndarray) -> list:
    return np.asarray(a, dtype=float).tolist()


def save_params(
    path: str,
    params: "MatrixNormalParams | UnstructuredParams",
    meta: "dict | None" = None,
) -> None:
    """Serialize a fitted parameter set to JSON."""
    if isinstance(params, MatrixNormalParams):
        payload = {
            "format_version": 1,
            "model": "matrix_normal",
            "p": params.p,
            "q": params.q,
            "mu": _nested(params.mean),
            "sigma_s": _nested(params.row_cov),
            "sigma_c": _nested(params.col_cov),
            "sigma2": float(params.scale),
        }
    elif isinstance(params, UnstructuredParams):
        payload = {
            "format_version": 1,
            "model": "unstructured",
            "p": params.p,
            "q": params.q,
            "mean": _nested(params.mean),
            "cov": _nested(params.cov),
        }
    else:
        raise TypeError(f"cannot serialize {type(params).__name__}")
    payload["meta"] = dict(meta) if meta else {}
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def load_params(
    path: str,
) -> tuple["MatrixNormalParams | UnstructuredParams", dict]:
    """Load a parameter file written by :func:`save_params`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    version = payload.get("format_version")
    if version != 1:
        raise ValueError(f"{path}: unsupported format_version {version!r}")
    model = payload.get("model")
    meta = payload.get("meta", {})
    if model == "matrix_normal":
        params = MatrixNormalParams(
            np.asarray(payload["mu"], dtype=float),
            np.asarray(payload["sigma_s"], dtype=float),
            np.asarray(payload["sigma_c"], dtype=float),
            float(payload["sigma2"]),
        )
        expected = (int(payload["p"]), int(payload["q"]))
        if (params.p, params.q) != expected:
            raise ValueError(
                f"{path}: declared shape {expected} does not match arrays "
                f"({params.p}, {params.q})"
            )
        return params, meta
    if model == "unstructured":
        return (
            UnstructuredParams(
                p=int(payload["p"]),
                q=int(payload["q"]),
                mean=np.asarray(payload["mean"], dtype=float),
                cov=np.asarray(payload["cov"], dtype=float),
            ),
            meta,
        )
    raise ValueError(f"{path}: unknown model kind {model!r}")
