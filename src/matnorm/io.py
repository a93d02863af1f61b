"""Dataset and parameter file formats.

Datasets are UTF-8 CSV with a header row.  An optional leading ``label``
column holds integer class labels; the remaining columns must be named
``x_r{r}_c{c}`` with 1-based row and column coordinates, ordered so the
row coordinate varies fastest.  A data row is therefore exactly the
column-stacked observation, and the file layout and the math share one
convention.  Missing entries are written as an empty field and read back
from either an empty field or the literal ``NA``.

This module owns the package's number formats.  Every CSV table (datasets,
simulation grid rows, the ``analyze`` reports) goes through one writer,
:func:`_csv_text`: strings and integers as written, any other value as
``repr(float(v))``, its shortest round-trip text, so a float reads back
bit for bit and a NaN reads ``nan``.  Every JSON file (parameters, the
simulation summary, the ``analyze`` dendrogram and summary) goes through
:func:`_write_json`, indented two spaces; parameters carry
``format_version: 1`` and load(save(x)) reproduces x bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import re
import secrets
import stat

import numpy as np

from .missing import UnstructuredParams
from .model import MatrixNormalParams, _whole_labels

_COLUMN_RE = re.compile(r"^x_r(\d+)_c(\d+)$")
_MISSING_FIELDS = ("", "NA")
_NAN = float("nan")


def atomic_write_text(path: str, text: str) -> None:
    """Write a file through a temp name and rename, so readers never see halves.

    The file gets the mode ``open(path, "w")`` would give it: a file it
    replaces keeps its permission bits, and a new file gets 0o666 less the
    process umask, which the kernel applies when the temp file is created.
    A symbolic link is followed, as ``open(path, "w")`` follows it: the
    link stays, and its target is replaced beside itself.
    """
    path = os.path.realpath(path)
    directory = os.path.dirname(path)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}~")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        if mode is not None:
            os.chmod(tmp, mode)
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


def _read_row(path: str, lineno: int, names: list, fields: list) -> list:
    """The stripped value fields of a line as floats, NaN for a missing one."""
    row = []
    for name, field in zip(names, fields):
        if field in _MISSING_FIELDS:
            row.append(_NAN)
            continue
        try:
            value = float(field)
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}, column {name}: "
                f"cannot parse {field!r} as a number"
            ) from None
        if not math.isfinite(value):
            raise ValueError(
                f"{path}: line {lineno}, column {name}: value must be "
                "finite (encode missing entries as empty or NA)"
            )
        row.append(value)
    return row


def load_dataset(path: str) -> tuple[np.ndarray, "np.ndarray | None"]:
    """Read a dataset CSV; returns (values (n, p, q), labels or None).

    Each line is read once, in file order: its fields are stripped, counted,
    and parsed label first, then value by value, so an error names the
    first bad field of the file.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = [f.strip() for f in lines[0].split(",")]
    has_label, p, q = _parse_header(header)
    width = len(header)
    names = header[1:] if has_label else header

    labels, rows = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != width:
            raise ValueError(
                f"{path}: line {lineno}: expected {width} fields, got {len(fields)}"
            )
        if has_label:
            try:
                labels.append(int(fields[0]))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: label {fields[0]!r} is not an integer"
                ) from None
        rows.append(_read_row(path, lineno, names, fields[-len(names):]))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    values = np.array(rows, dtype=float).reshape(len(rows), q, p).transpose(0, 2, 1)
    return values, (np.asarray(labels, dtype=int) if has_label else None)


def _csv_text(header: list, rows) -> str:
    """A CSV table: strings and integers as written, other values as floats.

    A float is written as ``repr(float(v))``, its shortest round-trip text,
    so reading the table back reproduces it bit for bit; NaN reads ``nan``.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join([
                v if isinstance(v, str)
                else str(v) if isinstance(v, (int, np.integer))
                else repr(float(v))
                for v in row
            ])
        )
    return "\n".join(lines) + "\n"


def _write_json(path: str, payload: dict) -> None:
    """Write a JSON document, indented two spaces, with a final newline."""
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def save_dataset(
    path: str, values: np.ndarray, labels: "np.ndarray | None" = None
) -> None:
    """Write a dataset CSV in the canonical column order; a hole is an empty field."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 3:
        raise ValueError(f"values must have shape (n, p, q), got {values.shape}")
    n, p, q = values.shape
    header = _expected_columns(p, q)
    flat = values.transpose(0, 2, 1).reshape(n, p * q).tolist()
    rows = [["" if math.isnan(v) else v for v in row] for row in flat]
    if labels is not None:
        labels = _whole_labels(labels)
        if labels.shape != (n,):
            raise ValueError(f"labels shape {labels.shape} does not match {n} rows")
        header = ["label"] + header
        rows = [[label] + row for label, row in zip(labels.tolist(), rows)]
    atomic_write_text(path, _csv_text(header, rows))


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
    _write_json(path, payload)


def load_params(
    path: str,
) -> tuple["MatrixNormalParams | UnstructuredParams", dict]:
    """Load a parameter file written by :func:`save_params`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(payload).__name__}")

    def field(key, convert):
        try:
            return convert(payload[key])
        except KeyError:
            raise ValueError(f"{path}: missing key {key!r}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: key {key!r}: {exc}") from None

    def build(cls, keys):
        """``cls`` on the file's ``keys`` by argument name; a failed check names its key.

        The key is that of the argument the check's message starts with, so the
        model checks name their field first.  The error keeps its type: a factor
        that is not positive definite stays a ``LinAlgError``.
        """
        args = {arg: field(key, convert) for arg, (key, convert) in keys.items()}
        try:
            return cls(**args)
        except ValueError as exc:
            key = next((key for arg, (key, _) in keys.items() if str(exc).startswith(arg)), None)
            raise type(exc)(f"{path}: key {key!r}: {exc}" if key else f"{path}: {exc}") from None

    def array(value):
        return np.asarray(value, dtype=float)

    version = payload.get("format_version")
    if version != 1:
        raise ValueError(f"{path}: unsupported format_version {version!r}")
    model = payload.get("model")
    meta = payload.get("meta", {})
    if model == "matrix_normal":
        params = build(MatrixNormalParams, {
            "mean": ("mu", array), "row_cov": ("sigma_s", array),
            "col_cov": ("sigma_c", array), "scale": ("sigma2", float),
        })
        expected = (field("p", int), field("q", int))
        if (params.p, params.q) != expected:
            raise ValueError(
                f"{path}: declared shape {expected} does not match arrays "
                f"({params.p}, {params.q})"
            )
        return params, meta
    if model == "unstructured":
        keys = {"p": ("p", int), "q": ("q", int), "mean": ("mean", array), "cov": ("cov", array)}
        return build(UnstructuredParams, keys), meta
    raise ValueError(f"{path}: unknown model kind {model!r}")
