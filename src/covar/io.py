"""File formats: probability matrices, label vectors, and run reports.

Matrix files come in two flavors, chosen by the file name: a ``.csv``
name, in any case, is CSV and any other name is binary.

* CSV with header ``c0,...,c{K-1}``, one sample per line, floats written
  with 17 significant digits (lossless for float64).
* A binary container: magic ``COVR``, version byte 0x01, two u32 fields
  N and K, then N*K float64 values row-major; everything little-endian.

Reports are compact JSON (no whitespace, keys in insertion order).  A
per-sample section is held as :class:`Columns`.  One standard library
encoder call writes the whole report, with each section as a placeholder
string; the writer then writes the text between placeholders and, in
place of each, its section as a list of one object per row, a few
thousand rows at a time.  A section's floats are written as
:func:`format_float` writes them (null where a nullable column is not
finite), and every other float as the encoder writes it, as ``repr``
does.  Both forms parse back to the same float64, so serialize -> parse
is value-lossless, and a report with no section re-serializes
byte-identically.  Floats outside sections keep ``repr``: writing them
as :func:`format_float` would take a pass of its own over the document
before the encoder, with its own check for reference cycles, which is
more code than one float style saves.

One generator writes the rows of a report section, a CSV matrix and the
``grid`` command's CSV, 4,096 rows at a time, each chunk as one byte
image: each value's text fills a NUL-padded field between the separators,
and the NULs are then dropped.  It takes the columns in blocks of rows, so
``grid`` builds its surface a chunk at a time.  :mod:`covar._floattext`
writes the digits: a float as :func:`format_float` does, an integer or
bool as JSON does; the rare float it cannot decide, a zero and a
non-finite one (null) are done one by one.

A text matrix or labels file, which must be a regular file, goes through
one reader: line 1 is checked as the header (a CSV matrix must have one, a
labels file may), then one ``np.loadtxt`` call parses the file; input it
rejects is read again line by line, which accepts what ``float()`` and
``int()`` accept and names an error's line as ``file:line``, with the path
spelled as :class:`~pathlib.Path` spells it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import stat
import struct
import warnings
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO

import numpy as np

from .errors import ParseError, ValidationError
from .stats import _CHUNK_ROWS, ProbabilityBatch

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "format_float",
    "load_matrix",
    "save_matrix",
    "load_labels",
    "save_labels",
    "matrix_digest",
    "Columns",
    "write_report",
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
    if not stat.S_ISREG(os.stat(path).st_mode):  # a pipe could not be opened again
        raise ParseError(f"{path}: not a regular file; text inputs are read more than once")
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():  # undecodable bytes became lone surrogates
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(f"{path}:{lineno}: not UTF-8 text") from None
            yield lineno, line.strip()


def _loadtxt(path: Path, dtype, skiprows: int) -> np.ndarray | None:
    """The comma-separated body of a text file as a 2-d array, or None
    where ``np.loadtxt`` rejects it or warns."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(
                path, dtype=dtype, delimiter=",", skiprows=skiprows, ndmin=2,
                comments=None, encoding="utf-8",
            )
    except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
        return None


def _data_lines(path: Path, skip: int) -> Iterator[tuple[int, str]]:
    """Number and stripped text of each non-blank line after the first ``skip``."""
    return ((lineno, text) for lineno, text in _lines(path) if text and lineno > skip)


def _read_text(path: Path, dtype, header, parse, empty: str, valid=None) -> np.ndarray:
    """The rows of a comma-separated text input as a 2-d array.

    ``header(path, text)`` checks line 1 (None in an empty file) and returns
    the lines to skip, 0 or 1, and the fields per row.  Where ``np.loadtxt``
    rejects the rest, gives no rows or rows of another width, or ``valid``
    rejects its values, ``parse(text, width)`` reads each non-blank line
    instead, and its ValueError is raised naming the line.
    """
    lines = _lines(path)
    first = next(lines, (1, None))[1]
    lines.close()
    skip, width = header(path, first)
    values = _loadtxt(path, dtype, skip)
    if values is not None and values.shape[1] == width and len(values):
        if valid is None or valid(values):
            return values
    rows = []
    for lineno, text in _data_lines(path, skip):
        try:
            rows.append(parse(text, width))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: {empty}")
    return np.array(rows, dtype=dtype)


def _csv_header(path: Path, text: str | None) -> tuple[int, int]:
    """Check line 1 of a CSV matrix, the header ``c0,...,c{K-1}``; returns (1, K)."""
    if text is None:
        raise ParseError(f"{path}: empty file")
    cols = text.split(",")
    if cols != [f"c{i}" for i in range(len(cols))]:
        expected = f"c0,...,c{len(cols) - 1}" if text else "c0,...,c{K-1}"
        raise ParseError(f"{path}:1: header {text!r} does not match {expected}")
    return 1, len(cols)


def _csv_fields(text: str, k: int) -> list[float]:
    parts = text.split(",")
    if len(parts) != k:
        raise ValueError(f"expected {k} fields, got {len(parts)}")
    return [float(part) for part in parts]


def _read_csv(path: Path) -> np.ndarray:
    """The values of a CSV matrix."""
    return _read_text(path, np.float64, _csv_header, _csv_fields, "no data rows")


def _read_binary(path: Path) -> np.ndarray:
    """The values of a binary matrix."""
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
    return np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).reshape(n, k)


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
    csv = _is_csv(p)
    # Returning frees the reader's temporaries before the statistics pass.
    values = _read_csv(p) if csv else _read_binary(p)
    try:
        return ProbabilityBatch.from_array(values)
    except ValidationError as exc:
        if csv and exc.row is not None:
            lineno, _ = next(itertools.islice(_data_lines(p, 1), exc.row, None))
            raise ValidationError(f"{p}:{lineno}: {exc.reason}") from exc
        raise ValidationError(f"{p}: {exc}") from exc


def save_matrix(batch: ProbabilityBatch, path: str | Path) -> None:
    p = Path(path)
    if _is_csv(p):
        with open(p, "w", encoding="utf-8") as fh:
            fh.writelines(_csv_chunks([f"c{i}" for i in range(batch.n_classes)], [list(batch.values.T)]))
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

    def parse(text: str, _: int) -> list[int]:
        try:
            label = int(text)
        except ValueError:
            raise ValueError(f"not an integer label: {text!r}") from None
        if not 0 <= label < n_classes:
            raise ValueError(f"label {text} outside [0, {n_classes})")
        return [label]

    labels = _read_text(
        Path(path), np.int64, lambda _, text: (int((text or "").lower() == "label"), 1), parse,
        "no labels", lambda values: values.min() >= 0 and values.max() < n_classes,
    )
    return labels[:, 0]


def save_labels(labels: np.ndarray, path: str | Path) -> None:
    """Write the format :func:`load_labels` reads: one label per line."""
    values = np.asarray(labels, dtype=np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        # no labels is one empty line
        fh.writelines(_text_chunks([[values]], ["", "\n"]) if len(values) else ["\n"])


# ---------------------------------------------------------------------------
# reports


class Columns:
    """A report section of one JSON object per row, held as named columns.

    Each column is a 1-d sequence of bools, integers or floats of at most
    64 bits, all of one length, and a row's object has one key per column
    in column order.
    Floats must be finite, except in the columns named in ``nullable``,
    whose non-finite values are written as null.  The checks run here, so
    a report is never left half-written by a bad value.
    """

    def __init__(self, columns: dict[str, Any], nullable: Iterable[str] = ()) -> None:
        self.nullable = frozenset(nullable)
        self.columns: dict[str, np.ndarray] = {}
        for name, values in columns.items():
            if not isinstance(name, str):
                raise ValidationError(f"report keys must be strings, got {name!r}")
            arr = np.asarray(values)
            if arr.ndim != 1 or arr.dtype.kind not in "biuf" or arr.dtype.itemsize > 8:
                raise ValidationError(
                    f"report column {name!r} must be 1-d bools, integers or floats "
                    f"of at most 64 bits, got {arr.dtype} of shape {arr.shape}"
                )
            if arr.dtype.kind == "f" and name not in self.nullable:
                bad = np.flatnonzero(~np.isfinite(arr))
                if bad.size:
                    raise ValidationError(
                        f"report column {name!r} holds {float(arr[bad[0]])} at row {bad[0]}"
                    )
            self.columns[name] = arr
        lengths = {len(arr) for arr in self.columns.values()}
        if len(lengths) != 1:
            raise ValidationError(f"report columns need one common length, got {sorted(lengths)}")
        (self.n_rows,) = lengths

    def _chunks(self) -> Iterator[str]:
        """The section's JSON text, a few thousand rows at a time."""
        keys = [json.dumps(name) for name in self.columns]
        # each row starts with the comma that separates it from the one before
        literals = [",{" + keys[0] + ":", *[f",{key}:" for key in keys[1:]], "}"]
        chunks = _text_chunks([list(self.columns.values())], literals)
        yield "[" + next(chunks, ",")[1:]
        yield from chunks
        yield "]"


def _json_float(x: float) -> str:
    return format_float(x) if math.isfinite(x) else "null"


def _text_chunks(blocks: Iterable[list[np.ndarray]], literals: list[str]) -> Iterator[str]:
    """The rows of blocks of columns as text, at most ``_CHUNK_ROWS`` rows at a time.

    A row is ``literals[0]``, its value in column 0, ``literals[1]``, ...,
    ``literals[-1]``.  Floats are written as :func:`format_float` writes
    them, null if not finite (only a report section holds such values);
    integers and bools as JSON writes them.  A chunk's byte image is one
    concatenation of literals and NUL-padded value fields, with the NULs dropped.
    """
    from . import _floattext

    heads = [np.frombuffer(literal.encode("ascii"), dtype=np.uint8) for literal in literals]
    for block in blocks:
        for start in range(0, len(block[0]), _CHUNK_ROWS):
            parts = [col[start : start + _CHUNK_ROWS] for col in block]
            fields = [
                _floattext.float_fields(part, _json_float) if part.dtype.kind == "f"
                else _floattext.bool_fields(part) if part.dtype.kind == "b"
                else _floattext.int_fields(part)
                for part in parts
            ]
            lits = [np.broadcast_to(head, (len(parts[0]), len(head))) for head in heads]
            image = np.hstack([lits[0], *itertools.chain.from_iterable(zip(fields, lits[1:]))])
            yield image.tobytes().translate(None, b"\0").decode("ascii")


def _csv_chunks(names: list[str], blocks: Iterable[list[np.ndarray]]) -> Iterator[str]:
    """CSV text: the header line of ``names``, then the rows of each block of columns."""
    yield ",".join(names) + "\n"
    yield from _text_chunks(blocks, ["", *[","] * (len(names) - 1), "\n"])


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


def _report_chunks(doc: dict) -> Iterator[str]:
    """Check the whole report, then yield its text piece by piece.

    The encoder writes each :class:`Columns` section as the string
    ``mark``, whose JSON text then splits the report at the sections.
    Where that text is also a key's or a value's, the split has more
    parts than there are sections, and the report is encoded again with
    a longer mark.
    """
    sections: list[Columns] = []
    parts: list[str] = []
    mark = ""

    def default(obj: Any):
        if isinstance(obj, Columns):
            sections.append(obj)
            return mark
        if isinstance(obj, np.generic):
            return obj.item()
        raise ValidationError(f"unsupported report value of type {type(obj).__name__}")

    encoder = json.JSONEncoder(separators=(",", ":"), allow_nan=False, default=default)
    while len(parts) != len(sections) + 1:
        sections.clear()
        mark += "\x00"
        try:
            parts = encoder.encode(doc).split(encoder.encode(mark))
        except (TypeError, ValueError) as exc:  # TypeError: a key of unsupported type
            raise ValidationError(str(exc)) from None
    _check_keys(doc)  # after the encoder has ruled out reference cycles
    for text, section in zip(parts, sections):
        yield text
        yield from section._chunks()
    yield parts[-1] + "\n"


def write_report(doc: dict, stream: TextIO) -> None:
    """Write :func:`serialize_report`'s text to a text stream, a few
    thousand rows of each :class:`Columns` section at a time.

    Every check runs before the first write, so a report that fails one
    writes nothing.
    """
    for chunk in _report_chunks(doc):
        stream.write(chunk)


def serialize_report(doc: dict) -> str:
    """Deterministic compact JSON text with insertion-ordered keys.

    Non-finite floats, non-string keys and values JSON cannot hold raise
    :class:`ValidationError`; numpy scalars are written as Python ones,
    and a :class:`Columns` section as a list of one object per row.
    """
    return "".join(_report_chunks(doc))


def parse_report(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid report: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("report root must be an object")
    return doc
