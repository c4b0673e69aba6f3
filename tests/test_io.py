"""Matrix files (CSV + binary container), labels, and JSON reports."""
from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import simplex_rows
from covar.errors import ParseError, ValidationError
from covar.io import (
    FORMAT_VERSION,
    MAGIC,
    format_float,
    load_labels,
    load_matrix,
    save_labels,
    matrix_digest,
    parse_report,
    save_matrix,
    serialize_report,
)
from covar.stats import ProbabilityBatch

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


def test_parse_report_errors():
    with pytest.raises(ParseError):
        parse_report("{not json")
    with pytest.raises(ParseError):
        parse_report("[1, 2]")


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
    )
)
def test_report_round_trip_property(doc):
    text = serialize_report(doc)
    assert parse_report(text) == doc
    assert serialize_report(parse_report(text)) == text
