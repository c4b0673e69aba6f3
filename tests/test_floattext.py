"""The vectorized float-to-text kernel writes exactly the text of ``repr``
(report sections) and of ``format_float`` (CSV matrices)."""
from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from covar import _floattext
from covar.cli import run_cli
from covar.io import _CHUNK_ROWS, Columns, format_float, save_matrix, serialize_report
from covar.simulator import SyntheticConfig, generate
from oracles import report_rows

STYLES = {"repr": (True, repr), "format_float": (False, format_float)}


def kernel_fields(values, shortest, fallback):
    """The kernel's field of each value, from one call per io chunk."""
    values = np.asarray(values, dtype=np.float64)
    chunks = [values[i : i + _CHUNK_ROWS] for i in range(0, len(values), _CHUNK_ROWS)]
    return np.concatenate([_floattext.float_fields(chunk, shortest, fallback) for chunk in chunks])


def kernel_text(values, shortest, fallback):
    """The kernel's text of each value, one per line."""
    fields = kernel_fields(values, shortest, fallback)
    lines = np.column_stack([fields, np.full(len(fields), ord("\n"), dtype=np.uint8)])
    return lines.tobytes().translate(None, b"\0").decode("ascii")


def assert_exact(values):
    values = np.asarray(values, dtype=np.float64)
    floats = values.tolist()
    for name, (shortest, reference) in STYLES.items():
        got = kernel_text(values, shortest, reference)
        want = "\n".join(map(reference, floats)) + "\n"
        if got != want:  # name the first value that differs, not MBs of text
            bad = next(i for i, text in enumerate(got.splitlines()) if text != reference(floats[i]))
            pytest.fail(f"{name}: {floats[bad]!r} written as {got.splitlines()[bad]!r}")


def field_texts(fields):
    """The text of each NUL-padded field."""
    lines = np.column_stack([fields, np.full(len(fields), ord("\n"), dtype=np.uint8)])
    return lines.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def fallbacks(values, shortest):
    """The values the kernel hands to its per-value function."""
    seen = []

    def fallback(x):
        seen.append(x)
        return repr(x) if shortest else format_float(x)

    kernel_fields(values, shortest, fallback)
    return seen


def test_random_bit_patterns():
    bits = np.random.default_rng(20261019).integers(0, 2**64, 1_100_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert len(values) >= 1_000_000
    assert_exact(values)


def test_uniform_and_log_uniform_values():
    rng = np.random.default_rng(7)
    assert_exact(rng.random(200_000))
    assert_exact(10.0 ** rng.uniform(-300, 300, 200_000) * rng.choice([-1.0, 1.0], 200_000))


def test_powers_of_two_and_ten_and_their_neighbours():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    for powers in (twos, tens):
        assert_exact(np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]))


def test_short_decimals():
    k = np.arange(5000)
    assert_exact(np.concatenate([k / 8, k / 1000, -k / 8]))


def test_edge_values():
    assert_exact(
        [
            0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, 1e16, 9007199254740993.0, 1125899906842624.25,
            2.0**-25, 1e-5, 1e-4, 123456789012345678.0, 0.1, 1 / 3,
        ]
    )


def test_the_kernel_decides_short_decimals_and_uniform_values_itself():
    # exact products (|x| from about 1e-6 to 1e17) need no per-value call
    k = np.arange(1, 5000)
    uniform = np.random.default_rng(11).random(100_000)
    for shortest in (True, False):
        assert fallbacks(np.concatenate([k / 8, k / 1000, uniform]), shortest) == []


def test_the_kernel_decides_exact_halves_and_ties_itself():
    # y = |x| * 10**s, an exact product here, halfway between two integers
    # (x = m / 4 in [2**50, 2**51), m odd), or an integer ending in 5
    # halfway between two of repr's candidates (x = j / 64 in [2**36, 2**37),
    # j odd)
    rng = np.random.default_rng(31)
    halves = (rng.integers(2**51, 2**52, 5000) * 2 + 1) / 4
    ties = (rng.integers(2**41, 2**42, 5000) * 2 + 1) / 64
    values = np.concatenate([halves, ties, -halves, -ties, [108300450064.42188]])
    assert_exact(values)
    for shortest in (True, False):
        assert fallbacks(values, shortest) == []


def test_values_outside_the_scaled_range_and_non_finite_ones_take_the_fallback():
    values = [5e-324, 0.0, 1e-300, 1e300, float("inf"), -0.0, float("nan"), 0.5, 1e300, 0.0]
    for shortest in (True, False):
        seen = fallbacks(values, shortest)  # once per distinct value
        assert sorted(map(repr, seen)) == ["-0.0", "0.0", "1e+300", "1e-300", "5e-324", "inf", "nan"]
    text = kernel_text(np.array([np.nan, np.inf, -np.inf, 2.5]), True, lambda x: "null")
    assert text == "null\nnull\nnull\n2.5\n"


def test_a_call_of_any_length_gives_the_per_value_text():
    # one call per length, not one per io chunk, so nothing sized to a
    # chunk can cap what a call takes
    rng = np.random.default_rng(30)
    bits = rng.integers(0, 2**64, 80_000, dtype=np.uint64).view(np.float64)
    floats = bits[np.isfinite(bits)][:70_000]
    ints = rng.integers(-(2**63), 2**63, 70_000, dtype=np.int64) // 10 ** rng.integers(0, 19, 70_000)
    assert len(floats) == 70_000
    for n in (0, 1, 4095, 4096, 70_000):
        for shortest, reference in STYLES.values():
            fields = _floattext.float_fields(floats[:n], shortest, reference)
            assert field_texts(fields) == list(map(reference, floats[:n].tolist()))
        assert field_texts(_floattext.int_fields(ints[:n])) == list(map(str, ints[:n].tolist()))


def test_report_columns_take_the_fallback_only_outside_the_scaled_range(tmp_path, monkeypatch, capsys):
    # every float column of decompose and select on a bimodal batch: the
    # kernel decides each common value itself, so only zeros, non-finite
    # values and values outside (1e-280, 1e280) reach the per-value function
    config = SyntheticConfig.uniform_priors(
        20_000, 6, base_accuracy=0.75, overconfidence_temp=0.25, residual_mode="bimodal", seed=30
    )
    path = tmp_path / "m.bin"
    save_matrix(generate(config)[0], path)
    written, seen = [], []
    real = _floattext.float_fields

    def recording(values, shortest, fallback):
        def recorded(x):
            seen.append(x)
            return fallback(x)

        written.append(len(values))
        return real(values, shortest, recorded)

    monkeypatch.setattr(_floattext, "float_fields", recording)
    for flags in (["decompose"], ["decompose", "--epsilon", "0.01"], ["decompose", "--paper-literal"]):
        assert run_cli([*flags, "--input", str(path)]) == 0
    assert run_cli(["select", "--input", str(path)]) == 0
    capsys.readouterr()
    assert sum(written) == 20_000 * (3 * 11 + 4)
    assert [x for x in seen if not (x == 0 or not math.isfinite(x) or not 1e-280 < abs(x) < 1e280)] == []


def test_threads_write_what_one_thread_writes():
    # callers may write reports or CSV matrices on threads of their own;
    # four threads at once, each on its own io-sized arrays
    rng = np.random.default_rng(16)
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300, np.inf, np.nan]
    mixed = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), edges])
    jobs = []
    for _ in range(8):
        bits = rng.integers(0, 2**64, _CHUNK_ROWS - len(mixed), dtype=np.uint64).view(np.float64)
        values = rng.permutation(np.concatenate([bits[np.isfinite(bits)], mixed]))
        jobs += [(values, shortest, fallback) for shortest, fallback in STYLES.values()]
    want = [_floattext.float_fields(*job) for job in jobs]
    got = [None] * len(jobs)
    start = threading.Barrier(4)

    def work(first):
        start.wait(timeout=60)
        for j in range(first, len(jobs), 4):
            got[j] = _floattext.float_fields(*jobs[j])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(g is not None and np.array_equal(g, w) for g, w in zip(got, want))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
def test_kernel_matches_repr_and_format_float(values):
    assert_exact(values)


EDGE_INTS = [0, -1, np.iinfo(np.int64).min, np.iinfo(np.int64).max]


@st.composite
def sections(draw):
    n = draw(st.integers(0, 40))
    floats = hnp.arrays(np.float32, n, elements=st.floats(width=32, allow_nan=False, allow_infinity=False))
    ints = hnp.arrays(np.int64, n, elements=st.integers(-(2**63), 2**63 - 1) | st.sampled_from(EDGE_INTS))
    columns = {
        "f32": draw(floats),
        "i64": draw(ints),
        "ok": draw(hnp.arrays(np.bool_, n)),
        "u64": draw(hnp.arrays(np.uint64, n, elements=st.integers(0, 2**64 - 1) | st.just(2**64 - 1))),
        "x": draw(hnp.arrays(np.float64, n, elements=st.floats())),
    }
    return columns


@given(sections())
def test_sections_match_per_row_dicts(columns):
    nullable = ("x",)
    text = serialize_report({"s": Columns(columns, nullable=nullable)})
    assert text == serialize_report({"s": report_rows(columns, nullable=nullable)})
