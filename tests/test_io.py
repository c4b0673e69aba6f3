"""Matrix files (CSV + binary container), labels, and JSON reports."""
from __future__ import annotations

import io as stdio
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import simplex_rows
from covar import io
from covar.errors import ParseError, ValidationError
from covar.io import (
    FORMAT_VERSION,
    MAGIC,
    Columns,
    format_float,
    load_labels,
    load_matrix,
    save_labels,
    matrix_digest,
    parse_report,
    save_matrix,
    serialize_report,
    write_report,
)
from covar.stats import ProbabilityBatch
from oracles import report_rows

ROW3 = np.array([[0.7, 0.2, 0.1]])


def make_batch(rows=ROW3):
    return ProbabilityBatch.from_array(np.asarray(rows, dtype=np.float64))


# --- float formatting ---------------------------------------------------------


def test_format_float_representations():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1.0"  # integral values keep a decimal point
    assert format_float(2.5) == "2.5"
    assert format_float(1e300) == "1.0000000000000001e+300"
    assert format_float(-0.0) == "-0.0"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x


# --- CSV ------------------------------------------------------------------------


def test_csv_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    batch = make_batch(rng.dirichlet(np.full(4, 0.9), size=50))
    path = tmp_path / "m.csv"
    save_matrix(batch, path)
    again = load_matrix(path)
    assert again.values.tobytes() == batch.values.tobytes()
    assert matrix_digest(again) == matrix_digest(batch)


def test_csv_header_and_shape_errors(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("a,b,c\n0.5,0.3,0.2\n")
    with pytest.raises(ParseError, match="header"):
        load_matrix(p)
    p.write_text("c0,c1,c2\n0.5,0.3\n")
    with pytest.raises(ParseError, match=":2"):
        load_matrix(p)
    p.write_text("c0,c1,c2\n0.5,0.3,oops\n")
    with pytest.raises(ParseError, match=":2"):
        load_matrix(p)
    p.write_text("")
    with pytest.raises(ParseError, match="empty"):
        load_matrix(p)
    p.write_text("c0,c1,c2\n")
    with pytest.raises(ParseError, match="no data"):
        load_matrix(p)
    # the header is line 1: a file that is not empty but starts with a blank line names it
    p.write_text("\nc0,c1,c2\n0.5,0.3,0.2\n")
    with pytest.raises(ParseError, match=r"m\.csv:1: header '' does not match c0,\.\.\.,c\{K-1\}$"):
        load_matrix(p)


def test_csv_skips_blank_lines(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("c0,c1\n0.5,0.5\n\n0.25,0.75\n")
    assert load_matrix(p).n_samples == 2


def test_non_utf8_text_names_file_and_line(tmp_path):
    p = tmp_path / "m.csv"
    p.write_bytes(b"c0,c1\n0.5,0.5\n0.25,0.7\xe95\n")
    with pytest.raises(ParseError, match=r"m\.csv:3: not UTF-8"):
        load_matrix(p)
    # a binary container named .csv is read as CSV and fails on its first line
    save_matrix(make_batch(), tmp_path / "m.bin")
    misnamed = tmp_path / "m.csv"
    misnamed.write_bytes((tmp_path / "m.bin").read_bytes())
    with pytest.raises(ParseError, match=r"m\.csv:1: not UTF-8"):
        load_matrix(misnamed)
    y = tmp_path / "y.txt"
    y.write_bytes(b"0\n1\n\xff\n")
    with pytest.raises(ParseError, match=r"y\.txt:3: not UTF-8"):
        load_labels(y, 2)


def _parsed(read, *args):
    """What a reader makes of a file: its array, or its ParseError message."""
    try:
        return read(*args)
    except ParseError as exc:
        return str(exc)


def _line_path(read, *args):
    """What a reader makes of a file when ``np.loadtxt`` rejects every input."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "_loadtxt", lambda *_: None)
        return _parsed(read, *args)


def _assert_same(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _assert_csv_readers_agree(path, k):
    """np.loadtxt gives the line reader's values wherever it accepts a
    file; the reader falls back to the line reader everywhere else."""
    slow = _line_path(io._read_csv, path)
    fast = io._loadtxt(path, np.float64, skiprows=1)
    if fast is not None and fast.shape[1] == k and len(fast):
        _assert_same(fast, slow)
    _assert_same(_parsed(io._read_csv, path), slow)


CSV_BODIES = {
    "underscore": b"1_0e-1,0.9\n",
    "full-width digits": "\uff10.5,0.5\n".encode(),
    "padding": b" 0.5 ,\t0.5\t\n",
    "crlf": b"0.5,0.5\r\n0.25,0.75\r\n",
    "plus exponent": b"+5e-1,0.5\n",
    "nan and inf": b"nan,inf\n-Infinity,0.5\n",
    "trailing comma": b"0.5,0.5,\n",
    "hash": b"#0.5,0.5\n",
    "quoted": b'"0.5",0.5\n',
    "header only": b"",
    "blank lines": b"\n0.5,0.5\n\n\n0.25,0.75\n\n",
    "whitespace line": b"0.5,0.5\n  \n0.25,0.75\n",
    "ragged": b"0.5,0.5\n0.5\n",
    "k mismatch": b"0.5,0.3,0.2\n",
    "not utf-8": b"0.5,0.5\n0.25,0.7\xe95\n",
    "nul": b"0.5,0.5\x00\n",
}


@pytest.mark.parametrize("body", CSV_BODIES.values(), ids=CSV_BODIES.keys())
def test_csv_fast_reader_matches_line_reader(tmp_path, body):
    path = tmp_path / "m.csv"
    path.write_bytes(b"c0,c1\n" + body)
    _assert_csv_readers_agree(path, 2)


@given(
    st.lists(
        st.sampled_from(
            ["0.5", "1", "-2e-3", "nan", "inf", "1_0", "+", ".", "e", " ", "\t", ",", ",",
             "\n", "\n", "\r\n", "#", '"', "\x00", "\uff11"]
        ),
        max_size=30,
    )
)
def test_csv_fast_reader_matches_line_reader_on_token_soup(tmp_path_factory, tokens):
    path = tmp_path_factory.mktemp("soup") / "m.csv"
    path.write_text("c0,c1\n" + "".join(tokens), encoding="utf-8")
    _assert_csv_readers_agree(path, 2)


def test_csv_validation_error_names_the_line_after_blank_lines(tmp_path):
    # the fast reader drops blank lines; the row-to-line map is rebuilt
    path = tmp_path / "m.csv"
    path.write_text("c0,c1\n0.5,0.5\n\n\n0.25,0.75\n\n0.9,0.9\n")
    with pytest.raises(ValidationError, match=r"m\.csv:7: sum 1.8 deviates"):
        load_matrix(path)


def test_clean_text_files_never_reach_the_line_readers(tmp_path, monkeypatch):
    def line_reader(*args):
        raise AssertionError("line reader called")

    monkeypatch.setattr(io, "_data_lines", line_reader)
    batch = make_batch(np.random.default_rng(2).dirichlet(np.ones(5), size=40))
    save_matrix(batch, tmp_path / "m.csv")
    assert load_matrix(tmp_path / "m.csv").values.tobytes() == batch.values.tobytes()
    (tmp_path / "y.txt").write_text("label\n4\n\n0\n")
    np.testing.assert_array_equal(load_labels(tmp_path / "y.txt", 5), [4, 0])


def test_csv_writer_matches_whole_text(tmp_path):
    # rows are written a chunk at a time; the file is the one-piece text
    n = 2 * io._CHUNK_ROWS + 1
    values = np.random.default_rng(3).dirichlet(np.ones(3), size=n)
    # the second chunk holds 0.0, -0.0 and 1.0, which %.17g alone writes
    # without their ".0"
    edges = values.copy()
    edges[io._CHUNK_ROWS + 7] = [0.0, 1.0, -0.0]
    for rows in (values, edges):
        batch = make_batch(rows)
        save_matrix(batch, tmp_path / "m.csv")
        lines = ["c0,c1,c2"] + [",".join(format_float(x) for x in row) for row in batch.values]
        assert (tmp_path / "m.csv").read_text() == "\n".join(lines) + "\n"
    assert "\n0.0,1.0,-0.0\n" in "\n".join(lines)


# --- binary container -------------------------------------------------------------


def test_binary_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    batch = make_batch(rng.dirichlet(np.full(6, 1.1), size=33))
    path = tmp_path / "m.covar"
    save_matrix(batch, path)
    again = load_matrix(path)
    assert again.values.tobytes() == batch.values.tobytes()


def test_binary_layout(tmp_path):
    path = tmp_path / "m.bin"
    save_matrix(make_batch(), path)
    blob = path.read_bytes()
    magic, version, n, k = struct.unpack_from("<4sBII", blob, 0)
    assert (magic, version, n, k) == (MAGIC, FORMAT_VERSION, 1, 3)
    assert len(blob) == struct.calcsize("<4sBII") + 8 * 3
    np.testing.assert_array_equal(
        np.frombuffer(blob, dtype="<f8", offset=struct.calcsize("<4sBII")),
        ROW3[0],
    )


def test_binary_corruption_detected(tmp_path):
    path = tmp_path / "m.bin"
    save_matrix(make_batch(), path)
    blob = bytearray(path.read_bytes())

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XOVR" + bytes(blob[4:]))
    with pytest.raises(ParseError, match="offset 0"):
        load_matrix(bad)

    bad.write_bytes(bytes(blob[:4]) + bytes([9]) + bytes(blob[5:]))
    with pytest.raises(ParseError, match="version"):
        load_matrix(bad)

    bad.write_bytes(bytes(blob[:-4]))
    with pytest.raises(ParseError, match="bytes"):
        load_matrix(bad)

    bad.write_bytes(bytes(blob) + b"\x00" * 8)
    with pytest.raises(ParseError, match="bytes"):
        load_matrix(bad)

    bad.write_bytes(blob[:6])
    with pytest.raises(ParseError, match="truncated"):
        load_matrix(bad)


def test_format_inference_and_override(tmp_path):
    batch = make_batch()
    csvish = tmp_path / "m.csv"
    save_matrix(batch, csvish)
    assert csvish.read_text().startswith("c0,c1,c2")
    binish = tmp_path / "m.dat"
    save_matrix(batch, binish)
    assert binish.read_bytes()[:4] == MAGIC
    # the suffix is matched in any case
    upper = tmp_path / "M.CSV"
    save_matrix(batch, upper)
    assert upper.read_text() == csvish.read_text()
    assert load_matrix(upper).values.tobytes() == batch.values.tobytes()
    # the name overrides the content: CSV text named .bin is read as binary
    textual = tmp_path / "m.bin"
    textual.write_bytes(csvish.read_bytes())
    with pytest.raises(ParseError, match=r"m\.bin: bad magic b'c0,c' at offset 0"):
        load_matrix(textual)


def test_matrix_digest_frozen_and_sensitive():
    assert (
        matrix_digest(make_batch())
        == "815f34270b3f5a4265abe1db96292b8917fe7d704047a4ae25ac49a889c9929f"
    )
    other = make_batch([[0.7, 0.2, 0.1], [0.5, 0.25, 0.25]])
    assert matrix_digest(other) != matrix_digest(make_batch())


@given(simplex_rows(max_n=5))
def test_any_clean_batch_round_trips_both_formats(tmp_path_factory, rows):
    batch = ProbabilityBatch.from_array(rows)
    root = tmp_path_factory.mktemp("m")
    for name in ("a.csv", "a.bin"):
        path = root / name
        save_matrix(batch, path)
        assert load_matrix(path).values.tobytes() == batch.values.tobytes()


# --- labels -------------------------------------------------------------------------


def test_load_labels_plain_and_with_header(tmp_path):
    p = tmp_path / "y.txt"
    p.write_text("0\n2\n1\n")
    np.testing.assert_array_equal(load_labels(p, 3), [0, 2, 1])
    p.write_text("label\n3\n\n4\n")
    np.testing.assert_array_equal(load_labels(p, 5), [3, 4])
    save_labels(np.array([4, 0, 3]), p)
    assert p.read_bytes() == b"4\n0\n3\n"
    np.testing.assert_array_equal(load_labels(p, 5), [4, 0, 3])


def test_load_labels_errors(tmp_path):
    p = tmp_path / "y.txt"
    p.write_text("0\n1.5\n")
    with pytest.raises(ParseError, match=":2"):
        load_labels(p, 2)
    p.write_text("")
    with pytest.raises(ParseError, match="no labels"):
        load_labels(p, 2)
    p.write_text("0\n99999999999999999999\n")  # beyond int64
    with pytest.raises(ParseError, match=":2"):
        load_labels(p, 2)


def test_reader_messages_spell_the_path_as_pathlib_does(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cases = {
        b"0\nx\n": "y.txt:2: not an integer label: 'x'",
        b"0\n5\n": "y.txt:2: label 5 outside [0, 2)",
        b"\n": "y.txt: no labels",
        b"0\n\xff\n": "y.txt:2: not UTF-8 text",
    }
    for content, message in cases.items():
        (tmp_path / "y.txt").write_bytes(content)
        for read in (_parsed, _line_path):
            assert read(load_labels, "./y.txt", 2) == message


LABEL_TEXTS = {
    "underscore": b"3_0\n",
    "padding": b" 3 \n",
    "plus": b"+3\n",
    "float": b"1.0\n",
    "header": b"label\n3\n\n4\n",
    "header in caps": b"LABEL\n3\n",
    "header only": b"label\n",
    "beyond int64": b"0\n99999999999999999999\n",
    "out of range": b"0\n5\n",
    "negative": b"0\n-1\n",
    "two fields": b"1,2\n",
    "whitespace line": b"1\n \n2\n",
    "header after a blank line 1": b"\nlabel\n3\n",  # the header rule reads line 1 only
    "header twice": b"label\nlabel\n",
}


@pytest.mark.parametrize("text", LABEL_TEXTS.values(), ids=LABEL_TEXTS.keys())
def test_labels_fast_reader_matches_line_reader(tmp_path, text):
    path = tmp_path / "y.txt"
    path.write_bytes(text)
    slow = _line_path(load_labels, path, 5)
    fast = io._loadtxt(path, np.int64, skiprows=int(text[:5].lower() == b"label"))
    if fast is not None and fast.shape[1] == 1 and len(fast) and 0 <= fast.min() <= fast.max() < 5:
        _assert_same(fast[:, 0], slow)
    _assert_same(_parsed(load_labels, path, 5), slow)


def test_load_labels_class_range(tmp_path):
    p = tmp_path / "y.txt"
    p.write_text("label\n0\n2\n")
    np.testing.assert_array_equal(load_labels(p, 3), [0, 2])
    with pytest.raises(ParseError, match=r":3: label 2 outside \[0, 2\)"):
        load_labels(p, 2)
    p.write_text("0\n-1\n")
    with pytest.raises(ParseError, match=":2"):
        load_labels(p, 2)


# --- reports -------------------------------------------------------------------------


FROZEN_DOC = {
    "b": 1,
    "a": [1.5, True, None, "x"],
    "nested": {"z": 3.0},
    "empty": {},
    "elist": [],
}

FROZEN_TEXT = '{"b":1,"a":[1.5,true,null,"x"],"nested":{"z":3.0},"empty":{},"elist":[]}\n'


def test_serialize_report_frozen_layout():
    assert serialize_report(FROZEN_DOC) == FROZEN_TEXT


def test_serialize_preserves_insertion_order():
    assert serialize_report({"z": 1, "a": 2}).index('"z"') < serialize_report(
        {"z": 1, "a": 2}
    ).index('"a"')


def test_serialize_parse_serialize_identity():
    text = serialize_report(FROZEN_DOC)
    assert serialize_report(parse_report(text)) == text


def test_serialize_numpy_scalars():
    text = serialize_report(
        {"i": np.int64(7), "f": np.float64(0.25), "b": np.bool_(True)}
    )
    doc = parse_report(text)
    assert doc == {"i": 7, "f": 0.25, "b": True}


def test_serialize_rejects_bad_values():
    with pytest.raises(ValidationError):
        serialize_report({"x": math.inf})
    with pytest.raises(ValidationError):
        serialize_report({"x": math.nan})
    with pytest.raises(ValidationError):
        serialize_report({1: "x"})
    with pytest.raises(ValidationError):
        serialize_report({"x": object()})


def _sections(n):
    rng = np.random.default_rng(n)
    bound = rng.standard_normal(n)
    bound[::3] = np.inf
    bound[1::5] = np.nan
    return {
        "index": range(n),
        "label": rng.integers(0, 7, n),
        "x": rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
        "zero": np.full(n, -0.0),
        "ok": rng.random(n) < 0.5,
        "bound": bound,
    }


@pytest.mark.parametrize("n", [0, 1, 2 * io._CHUNK_ROWS + 1])
def test_columns_encode_as_per_row_dicts(n):
    columns = _sections(n)

    def doc(section):
        return {
            "head": 1.5,
            "samples": section(columns, nullable=("bound",)),
            "nest": {"a": {"b": [1, 2]}, "c": section({"y": np.arange(n) / 7})},
        }

    want = serialize_report(doc(report_rows))
    stream = stdio.StringIO()
    write_report(doc(Columns), stream)
    same = serialize_report(doc(Columns)) == want == stream.getvalue()  # no slow diff on failure
    assert same


def test_columns_reject_what_a_report_cannot_hold():
    for bad in (np.array([0.5, np.nan]), np.array([np.inf, 0.5]), np.array([-np.inf])):
        with pytest.raises(ValidationError, match="report column 'x' holds"):
            Columns({"x": bad})
    assert Columns({"x": np.array([np.nan])}, nullable=("x",)).n_rows == 1
    cases = {
        "must be 1-d": {"x": np.zeros((2, 2))},
        "integers or floats": {"x": np.array(["a", "b"])},
        "one common length": {"x": np.zeros(2), "y": np.zeros(3)},
        "keys must be strings": {1: np.zeros(2)},
    }
    if np.dtype(np.longdouble).itemsize > 8:  # extended precision has no float64 text
        cases["of at most 64 bits"] = {"x": np.zeros(2, dtype=np.longdouble)}
    for message, columns in cases.items():
        with pytest.raises(ValidationError, match=message):
            Columns(columns)


def test_write_report_checks_everything_before_writing():
    section = Columns({"x": np.arange(3.0)})
    for doc in (
        {"samples": section, "after": math.inf},
        {"samples": section, "after": {1: "x"}},
        {"samples": section, "after": object()},
    ):
        stream = stdio.StringIO()
        with pytest.raises(ValidationError):
            write_report(doc, stream)
        assert stream.getvalue() == ""
    looped = {"samples": section}
    looped["again"] = [looped]
    with pytest.raises(ValidationError, match="Circular"):
        serialize_report(looped)


def test_parse_report_errors():
    with pytest.raises(ParseError):
        parse_report("{not json")
    with pytest.raises(ParseError):
        parse_report("[1, 2]")


def test_sections_inside_lists_and_tuples_and_side_by_side():
    columns = {"i": np.arange(5), "x": np.arange(5) / 3, "ok": np.arange(5) % 2 == 0}
    for doc in (
        lambda section: {"a": [1, section(columns), "x"]},
        lambda section: {"a": (section(columns),), "b": 2},
        lambda section: {"a": section(columns), "b": section({"y": np.ones(2)})},
        lambda section: {"a": [section(columns), section(columns)]},
    ):
        assert serialize_report(doc(Columns)) == serialize_report(doc(report_rows))


def test_strings_like_the_section_placeholder_are_written_as_they_are():
    section = Columns({"x": np.array([0.5])})
    assert serialize_report({"a": "\x00"}) == '{"a":"\\u0000"}\n'
    assert serialize_report({"a": "\x00", "s": section}) == '{"a":"\\u0000","s":[{"x":0.5}]}\n'
    # an escaped quote before NULs ends in the text of a placeholder
    doc = {"\x00": section, "q": '"\x00', "r": ['"\x00\x00', "\\\x00"]}
    rows = {**doc, "\x00": [{"x": 0.5}]}
    assert serialize_report(doc) == serialize_report(rows)
    assert parse_report(serialize_report(doc)) == rows


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.recursive(
            st.one_of(
                st.integers(-(2**53), 2**53),
                st.floats(allow_nan=False, allow_infinity=False),
                st.booleans(),
                st.none(),
                st.text(max_size=12),
            ),
            lambda leaf: st.lists(leaf, max_size=4)
            | st.dictionaries(st.text(min_size=1, max_size=6), leaf, max_size=4),
            max_leaves=20,
        ),
        max_size=6,
    ),
    st.integers(0, 6),
)
@example({"\x00": "\x00"}, 1)
@example({"\x00\x00": "\x00\x00"}, 0)
def test_report_round_trip_property(doc, at):
    text = serialize_report(doc)
    assert parse_report(text) == doc
    assert serialize_report(parse_report(text)) == text
    # a section among the drawn items is written as a list of its rows
    items = [(key, value) for key, value in doc.items() if key != "samples"]
    columns = {"x": np.array([0.5, -0.0]), "ok": np.array([True, False])}

    def with_section(section):
        return dict(items[:at] + [("samples", section(columns))] + items[at:])

    assert serialize_report(with_section(Columns)) == serialize_report(with_section(report_rows))
