"""Row-blocked residual kernels: no bit depends on the block size, and the
(N, K-1) work stays within a few block-sized buffers."""
from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

import covar.stats as stats_module
from conftest import band_edge_rows
from covar.decomposition import CEDecomposition, EpsilonPolicy, decompose_batch
from covar.errors import InfiniteCrossEntropyError
from covar.stats import ProbabilityBatch

BATCH_COLUMNS = [f.name for f in dataclasses.fields(ProbabilityBatch)] + ["deviations"]
SAMPLE_COLUMNS = [f.name for f in dataclasses.fields(CEDecomposition)]
MEANS = ["mc_bar", "g_bar", "v_bar", "srcv", "cov_gv", "batch_ce", "lower_bound",
         "remainder_batch_bound", "n_samples"]
N_ROWS = 499  # prime: never a multiple of the block rows under test


def edge_rows(k: int) -> list[np.ndarray]:
    """Rows that take every branch of the residual kernels."""
    mu = 0.4 / (k - 1)
    noise = np.linspace(-1.0, 1.0, k - 1)
    rows = [
        np.full(k, 1.0 / k),  # uniform: v and rho are roundoff
        np.eye(k)[k - 1],  # one-hot: degenerate, residual mean 0
        np.array([1.0 - 1e-9] + [1e-9 / (k - 1)] * (k - 1)),  # near one-hot, not degenerate
        np.concatenate([[0.6], mu * (1.0 + 1e-3 * (noise - noise.mean()))]),  # |t| < 2^-7
    ]
    if k > 2:  # a residual below ulp(mu): its deviation saturates at -mu, t = -1
        rows.append(np.concatenate([[0.6, 1e-300], np.full(k - 2, (0.4 - 1e-300) / (k - 2))]))
    if k >= 5:  # t = -0.5, |t| at 2^-7 and its neighbours, rho below, at and above 1
        rows.extend(band_edge_rows(k))
    return rows


def mixed_batch(k: int, n: int = N_ROWS) -> np.ndarray:
    """Dirichlet rows with the edge rows spread across block boundaries."""
    rows = np.random.default_rng(k).dirichlet(np.full(k, 0.7), size=n)
    edges = edge_rows(k)
    for i in range(3, n, 23):
        rows[i] = edges[(i // 23) % len(edges)]
    return rows


def policies(k: int):
    # a fixed 0.01 must stay below 1/(K-1), which K = 1000 does not allow
    fixed = EpsilonPolicy.fixed(min(0.01, 0.5 / (k - 1)))
    return [(EpsilonPolicy.adaptive(), False), (fixed, False), (EpsilonPolicy.adaptive(), True)]


def run_all(rows: np.ndarray) -> dict[str, bytes]:
    """The bytes of every batch column, sample column and batch mean."""
    batch = ProbabilityBatch.from_array(rows)
    out = {name: np.asarray(getattr(batch, name)).tobytes() for name in BATCH_COLUMNS}
    for policy, literal in policies(rows.shape[1]):
        d = decompose_batch(batch, policy, paper_literal=literal)
        for name in SAMPLE_COLUMNS:
            out[f"{policy}/{literal}/{name}"] = getattr(d.samples, name).tobytes()
        out[f"{policy}/{literal}/means"] = np.array([getattr(d, m) for m in MEANS]).tobytes()
    return out


@pytest.mark.parametrize("k", [2, 6, 100, 1000])
def test_results_do_not_depend_on_the_block_size(monkeypatch, k):
    rows = mixed_batch(k)
    default = run_all(rows)
    for elements in (1, 7 * (k - 1), N_ROWS * (k - 1)):  # one row, 7 rows, one block
        monkeypatch.setattr(stats_module, "_BLOCK_ELEMENTS", elements)
        assert run_all(rows) == default, elements


def test_a_zero_residual_in_a_later_block_is_named(monkeypatch):
    k = 100
    rows = mixed_batch(k)
    rows[1] = np.eye(k)[0]  # one-hot zeros are canonicalized, never an error
    rows[400] = np.eye(k)[0] * 0.9 + np.eye(k)[1] * 0.1  # the first row with a zero residual
    batch = ProbabilityBatch.from_array(rows)
    assert 400 >= 2 * (stats_module._BLOCK_ELEMENTS // (k - 1))  # in the third block or later
    messages = set()
    for elements in (stats_module._BLOCK_ELEMENTS, 1, N_ROWS * (k - 1)):
        monkeypatch.setattr(stats_module, "_BLOCK_ELEMENTS", elements)
        with pytest.raises(InfiniteCrossEntropyError, match="^sample 400: ") as info:
            decompose_batch(batch, EpsilonPolicy.adaptive())
        messages.add(str(info.value))
    assert len(messages) == 1


def traced(call):
    """call()'s result, the bytes it left allocated and its peak beyond the start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current - start, peak - start


def test_wide_batches_stay_within_block_memory():
    values = mixed_batch(1000, 2000)
    # every other row nearly uniform, so half the tails take the |t| < 2^-7 series
    values[::2] = 1.0 / 1000 * (1.0 + 1e-4 * np.sin(np.arange(1000)))
    values[::2] /= values[::2].sum(axis=1, keepdims=True)
    batch, kept, peak = traced(lambda: ProbabilityBatch.from_array(values))
    # one (N, K-1) array is kept, residuals; the input itself is not copied
    assert np.shares_memory(batch.values, values)
    assert kept <= batch.residuals.nbytes + values.nbytes // 8
    assert peak <= batch.residuals.nbytes + values.nbytes // 4
    for policy, literal in policies(1000):
        _, _, peak = traced(lambda: decompose_batch(batch, policy, paper_literal=literal))
        assert peak <= values.nbytes // 8, (policy, literal, peak)
    # one row and its deviations cost O(K), never the whole deviations block
    row, _, peak = traced(lambda: batch[1234].deviations)
    assert row.shape == (999,) and not row.flags.writeable
    assert peak <= 4 * row.nbytes


def record_bits(record) -> list:
    """Each field of a record as its type and bytes, so -0.0, nan and the
    dtype of an array field all count."""
    out = []
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if isinstance(value, np.ndarray):
            out.append((value.dtype.str, value.shape, value.tobytes()))
        else:
            out.append((type(value), np.array(value).tobytes()))
    return out


def row_views(n: int):
    batch = ProbabilityBatch.from_array(mixed_batch(6, n))
    return batch, decompose_batch(batch, EpsilonPolicy.adaptive()).samples


def test_the_first_row_costs_a_chunk_not_the_batch():
    batch, samples = row_views(13 * stats_module._CHUNK_ROWS + 7)
    for rows in (batch, samples):
        first, _, peak = traced(lambda: next(iter(rows)))
        # a Python float and its list slot are 32 bytes; a chunk of every
        # 1-d column as such, twice over, is far below the N-row lists
        assert peak <= 2 * len(rows._names) * stats_module._CHUNK_ROWS * 32, (type(rows), peak)
        assert record_bits(first) == record_bits(rows[0])


@pytest.mark.parametrize("n", [2 * stats_module._CHUNK_ROWS, 2 * stats_module._CHUNK_ROWS + 5])
def test_iteration_gives_the_indexed_records(n):
    chunk = stats_module._CHUNK_ROWS
    picks = [0, chunk - 1, chunk, chunk + 1, n - 1]
    for rows in row_views(n):
        records = list(rows)
        assert len(records) == n
        for i in picks:
            assert record_bits(records[i]) == record_bits(rows[i]), (type(rows), i)
            for f in dataclasses.fields(records[i]):
                column = getattr(rows, f.name)
                assert np.asarray(getattr(records[i], f.name)).tobytes() == column[i].tobytes()


@pytest.mark.parametrize("n", [1, stats_module._CHUNK_ROWS + 1])
def test_iteration_yields_every_row(n):
    for rows in row_views(n):
        assert len(list(rows)) == n
