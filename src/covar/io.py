"""File formats: probability matrices, label vectors, and run reports.

Matrix files come in two flavors, chosen by the file name: a ``.csv``
name, in any case, is CSV and any other name is binary.

* CSV with header ``c0,...,c{K-1}``, one sample per line, floats written
  with 17 significant digits (lossless for float64).
* A binary container: magic ``COVR``, version byte 0x01, two u32 fields
  N and K, then N*K float64 values row-major; everything little-endian.

Reports are compact JSON (no whitespace, keys in insertion order) from
the standard library encoder, which writes each float as the shortest
decimal that parses back to the same float64.  So serialize -> parse is
value-lossless and parse -> serialize is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import struct
from array import array
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from .errors import ParseError, ValidationError
from .stats import ProbabilityBatch

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "format_float",
    "load_matrix",
    "save_matrix",
    "load_labels",
    "save_labels",
    "matrix_digest",
    "serialize_report",
    "parse_report",
]

MAGIC = b"COVR"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sBII")


def format_float(x: float) -> str:
    """17-significant-digit decimal form; round-trips any finite float64."""
    s = format(float(x), ".17g")
    if "." not in s and "e" not in s and "n" not in s and "i" not in s:
        s += ".0"
    return s


# ---------------------------------------------------------------------------
# probability matrices


def _lines(path: Path) -> Iterator[tuple[int, str]]:
    """Number and stripped text of each line of a UTF-8 text file, streamed."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():  # undecodable bytes became lone surrogates
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(f"{path}:{lineno}: not UTF-8 text") from None
            yield lineno, line.strip()


def _read_csv(path: Path) -> tuple[np.ndarray, array]:
    """The values of a CSV matrix and the file line of each of its rows."""
    lines = _lines(path)
    _, header = next(lines, (1, ""))
    if not header:
        raise ParseError(f"{path}: empty file")
    cols = header.split(",")
    expected = [f"c{i}" for i in range(len(cols))]
    if cols != expected:
        raise ParseError(
            f"{path}: header {header!r} does not match c0,...,c{len(cols) - 1}"
        )
    k = len(cols)
    rows = []
    row_lines = array("q")
    for lineno, line in lines:
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != k:
            raise ParseError(f"{path}:{lineno}: expected {k} fields, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        row_lines.append(lineno)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64), row_lines


def _read_binary(path: Path) -> tuple[np.ndarray, None]:
    """The values of a binary matrix; its rows have no file lines."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise ParseError(f"{path}: truncated header (offset 0)")
    magic, version, n, k = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r} at offset 0, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + 8 * n * k
    if len(blob) != expected:
        raise ParseError(
            f"{path}: file is {len(blob)} bytes, expected {expected} for N={n}, K={k}"
        )
    return np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).reshape(n, k), None


def _is_csv(path: Path) -> bool:
    return path.suffix.lower() == ".csv"


def _encoding(batch: ProbabilityBatch) -> tuple[bytes, np.ndarray]:
    """The canonical binary encoding: header bytes, then the row-major '<f8' body."""
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, batch.n_samples, batch.n_classes)
    return header, np.ascontiguousarray(batch.values, dtype="<f8")


def load_matrix(path: str | Path) -> ProbabilityBatch:
    """Read a probability matrix in the format its file name selects.

    A :class:`ValidationError` from the batch checks is re-raised with
    the path in front, and a CSV row's error names its file line instead
    of its row index; parse errors already name the file.
    """
    p = Path(path)
    read = _read_csv if _is_csv(p) else _read_binary
    # Returning frees the reader's temporaries before the statistics pass.
    values, row_lines = read(p)
    try:
        return ProbabilityBatch.from_array(values)
    except ValidationError as exc:
        if row_lines is not None and exc.row is not None:
            raise ValidationError(f"{p}:{row_lines[exc.row]}: {exc.reason}") from exc
        raise ValidationError(f"{p}: {exc}") from exc


def save_matrix(batch: ProbabilityBatch, path: str | Path) -> None:
    p = Path(path)
    if _is_csv(p):
        lines = [",".join(f"c{i}" for i in range(batch.n_classes))]
        for row in batch.values:
            lines.append(",".join(format_float(x) for x in row))
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        p.write_bytes(b"".join(_encoding(batch)))


def matrix_digest(batch: ProbabilityBatch) -> str:
    """sha256 over the canonical binary encoding of the batch."""
    header, body = _encoding(batch)
    h = hashlib.sha256(header)
    h.update(body)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# labels


def load_labels(path: str | Path, n_classes: int) -> np.ndarray:
    """One integer label in [0, n_classes) per line; an optional leading
    'label' header."""
    out = []
    for lineno, text in _lines(Path(path)):
        if not text or (lineno == 1 and text.lower() == "label"):
            continue
        try:
            label = int(text)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: not an integer label: {text!r}") from exc
        if not 0 <= label < n_classes:
            raise ParseError(f"{path}:{lineno}: label {text} outside [0, {n_classes})")
        out.append(label)
    if not out:
        raise ParseError(f"{path}: no labels")
    return np.array(out, dtype=np.int64)


def save_labels(labels: np.ndarray, path: str | Path) -> None:
    """Write the format :func:`load_labels` reads: one label per line."""
    Path(path).write_text("\n".join(str(int(y)) for y in labels) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# reports


def _numpy_scalar(obj: Any):
    if isinstance(obj, np.generic):
        return obj.item()
    raise ValidationError(f"unsupported report value of type {type(obj).__name__}")


def _check_keys(obj: Any) -> None:
    # The encoder would silently turn int, float, bool and None keys into
    # strings, which then parse back as different keys.
    stack = [obj]
    while stack:
        obj = stack.pop()
        if isinstance(obj, dict):
            for key in obj:
                if not isinstance(key, str):
                    raise ValidationError(f"report keys must be strings, got {key!r}")
            stack.extend(v for v in obj.values() if isinstance(v, (dict, list, tuple)))
        elif isinstance(obj, (list, tuple)):
            stack.extend(v for v in obj if isinstance(v, (dict, list, tuple)))


def serialize_report(doc: dict) -> str:
    """Deterministic compact JSON text with insertion-ordered keys.

    Non-finite floats, non-string keys and values JSON cannot hold raise
    :class:`ValidationError`; numpy scalars are written as Python ones.
    """
    try:
        text = json.dumps(
            doc, separators=(",", ":"), allow_nan=False, default=_numpy_scalar
        )
    except (TypeError, ValueError) as exc:  # TypeError: a key of unsupported type
        raise ValidationError(str(exc)) from None
    _check_keys(doc)  # after the encoder has ruled out reference cycles
    return text + "\n"


def parse_report(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid report: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("report root must be an object")
    return doc
