"""Threshold selection, calibration binning, retention and sweeps."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import batch_of, simplex_rows
from covar.baseline import (
    IGNORE_LABEL,
    ClassRetention,
    ThresholdPolicy,
    ece,
    retention_from_mask,
    threshold_select,
    threshold_sweep,
)
from covar.errors import DomainError, ValidationError
from covar.stats import ProbabilityBatch


def test_threshold_policy_domain():
    ThresholdPolicy(1.0)  # inclusive upper end is legal
    with pytest.raises(DomainError):
        ThresholdPolicy(0.0)
    with pytest.raises(DomainError):
        ThresholdPolicy(1.1)


def test_threshold_select_inclusive_and_ignore_label():
    batch = batch_of(
        [
            [0.95, 0.03, 0.02],  # exactly at tau: kept
            [0.90, 0.05, 0.05],  # below: dropped
            [0.02, 0.97, 0.01],  # kept, class 1
        ]
    )
    labels, mask = threshold_select(batch, ThresholdPolicy(0.95))
    np.testing.assert_array_equal(mask, [True, False, True])
    np.testing.assert_array_equal(labels, [0, IGNORE_LABEL, 1])


def test_threshold_one_keeps_only_one_hot():
    batch = batch_of([[1.0, 0.0], [0.999999, 0.000001]])
    _, mask = threshold_select(batch, ThresholdPolicy(1.0))
    np.testing.assert_array_equal(mask, [True, False])


@given(simplex_rows(max_n=6), st.floats(0.05, 1.0))
def test_threshold_monotone_in_tau(rows, tau):
    batch = ProbabilityBatch.from_array(rows)
    _, loose = threshold_select(batch, ThresholdPolicy(max(tau - 0.04, 1e-6)))
    _, tight = threshold_select(batch, ThresholdPolicy(tau))
    assert np.all(loose | ~tight)  # tight selection is a subset


# --- expected calibration error ----------------------------------------------


def test_ece_two_bin_hand_example():
    # bin (0, .5]: confs .3 .3, acc .5 -> gap .2 weight .5
    # bin (.5, 1]: confs .9 .9, acc 1. -> gap .1 weight .5
    rep = ece(np.array([0.3, 0.3, 0.9, 0.9]), np.array([1, 0, 1, 1]), n_bins=2)
    assert rep.ece == pytest.approx(0.15, abs=1e-12)
    np.testing.assert_allclose(rep.bin_confidence, [0.3, 0.9])
    np.testing.assert_allclose(rep.bin_accuracy, [0.5, 1.0])
    np.testing.assert_array_equal(rep.bin_count, [2, 2])


def test_ece_perfectly_calibrated_is_zero():
    # 1024 samples at confidence 0.75 with exactly 768 correct
    conf = np.full(1024, 0.75)
    corr = np.zeros(1024, dtype=bool)
    corr[:768] = True
    assert ece(conf, corr).ece == 0.0


def test_ece_fully_overconfident_is_half():
    conf = np.ones(64)
    corr = np.zeros(64, dtype=bool)
    corr[::2] = True
    assert ece(conf, corr).ece == pytest.approx(0.5, abs=1e-15)


def test_ece_edge_membership_right_inclusive():
    # 0.5 belongs to the lower of two bins; 0.0 joins the first bin
    rep = ece(np.array([0.5, 0.0]), np.array([1, 0]), n_bins=2)
    np.testing.assert_array_equal(rep.bin_count, [2, 0])
    assert math.isnan(rep.bin_confidence[1])


def test_ece_empty_bins_contribute_zero():
    rep = ece(np.array([0.32, 0.33]), np.array([0, 1]), n_bins=15)
    assert rep.bin_count.sum() == 2
    assert (rep.bin_count > 0).sum() == 1
    occupied = np.flatnonzero(rep.bin_count)
    gap = abs(rep.bin_accuracy[occupied[0]] - rep.bin_confidence[occupied[0]])
    assert rep.ece == pytest.approx(gap, rel=1e-12)  # only that bin counts


def test_ece_validation():
    with pytest.raises(DomainError):
        ece(np.array([1.2]), np.array([1]))
    with pytest.raises(DomainError):
        ece(np.array([-0.1]), np.array([1]))
    with pytest.raises(DomainError):
        ece(np.array([np.nan, 0.5]), np.array([True, False]))
    with pytest.raises(ValidationError):
        ece(np.array([0.5, 0.6]), np.array([1]))
    with pytest.raises(DomainError):
        ece(np.array([]), np.array([]))
    with pytest.raises(DomainError):
        ece(np.array([0.5]), np.array([1]), n_bins=0)


@given(
    st.integers(1, 400),
    st.integers(1, 20),
    st.integers(0, 2**31),
)
def test_ece_bounded_by_one(n, bins, seed):
    rng = np.random.default_rng(seed)
    conf = rng.random(n)
    corr = rng.random(n) < conf
    rep = ece(conf, corr, n_bins=bins)
    assert 0.0 <= rep.ece <= 1.0
    assert rep.bin_count.sum() == n


# --- retention ----------------------------------------------------------------


def test_retention_from_mask_hand_example():
    y = np.array([0, 0, 1, 2])
    mask = np.array([True, False, True, False])
    r = retention_from_mask(y, mask, n_classes=4)
    assert sorted(r) == [0, 1, 2]  # class 3 absent, omitted
    assert r[0].count == 2 and r[0].retained == 1
    assert r[0].retention == pytest.approx(0.5)
    assert r[0].inv_sqrt_count == pytest.approx(1.0 / math.sqrt(2.0))
    assert r[1].retention == 1.0
    assert r[2].retention == 0.0


def test_retention_validation():
    with pytest.raises(ValidationError):
        retention_from_mask(np.array([0, 5]), np.array([True, True]), n_classes=3)
    with pytest.raises(ValidationError):
        retention_from_mask(np.array([0, 1]), np.array([True]), n_classes=3)
    # a float label such as 1.5 used to overwrite class 1's entry
    with pytest.raises(ValidationError, match="labels must be integers, got float64"):
        retention_from_mask(np.array([0.0, 1.5, 1.0]), np.array([True, True, False]), 3)


@given(
    st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=40),
    st.sampled_from(["i1", "u8", "i8"]),
)
def test_retention_counts_each_present_class(pairs, dtype):
    y = np.array([label for label, _ in pairs], dtype=dtype)
    mask = np.array([kept for _, kept in pairs], dtype=bool)
    got = retention_from_mask(y, mask, n_classes=6)
    present = sorted({label for label, _ in pairs})
    assert list(got) == present  # ascending, absent classes omitted
    for label in present:
        count = sum(lab == label for lab, _ in pairs)
        retained = sum(lab == label and kept for lab, kept in pairs)
        assert type(got[label].count) is int and type(got[label].retained) is int
        assert got[label] == ClassRetention(
            label, count, retained, retained / count, 1.0 / math.sqrt(count)
        )


def test_class_retention_of_threshold_selection():
    batch = batch_of(
        [
            [0.97, 0.02, 0.01],
            [0.60, 0.30, 0.10],
            [0.05, 0.90, 0.05],
            [0.10, 0.85, 0.05],
        ]
    )
    y = np.array([0, 0, 1, 1])
    _, mask = threshold_select(batch, ThresholdPolicy(0.85))
    got = retention_from_mask(y, mask, 3)
    assert got[0].retention == pytest.approx(0.5)
    assert got[1].retention == pytest.approx(1.0)


# --- sweep ---------------------------------------------------------------------


def test_threshold_sweep_hand_values():
    conf = np.array([0.2, 0.6, 0.8, 0.95])
    corr = np.array([False, True, False, True])
    rate, acc = threshold_sweep(conf, corr, np.array([0.5, 0.9, 0.99]))
    np.testing.assert_allclose(rate, [0.75, 0.25, 0.0])
    np.testing.assert_allclose(acc[:2], [2.0 / 3.0, 1.0])
    assert math.isnan(acc[2])


def test_threshold_sweep_validation():
    # each pair raises what ece raises for it, without a warning
    bad = [
        ([0.9, 0.8, 0.7, 0.6], [True], ValidationError),  # no broadcast
        ([[0.9, 0.8], [0.7, 0.6]], [[True, False], [True, False]], ValidationError),
        ([0.9, np.nan], [True, False], DomainError),
        ([0.9, 1.5], [True, False], DomainError),
        ([-0.1, 0.9], [True, False], DomainError),
        ([], [], DomainError),
    ]
    for conf, corr, error in bad:
        with pytest.raises(error):
            ece(conf, corr)
        with pytest.raises(error):
            threshold_sweep(conf, corr, [0.5, 0.75])


def test_threshold_sweep_takes_a_vector_of_taus():
    conf, corr = [0.2, 0.9], [False, True]
    with pytest.raises(ValidationError, match=r"taus must be a vector, got shape \(1, 2\)"):
        threshold_sweep(conf, corr, [[0.5, 0.75]])
    with pytest.raises(ValidationError, match=r"got shape \(\)"):
        threshold_sweep(conf, corr, 0.5)


def test_threshold_sweep_rejects_nan_taus():
    # a NaN tau would read as "nothing kept"
    with pytest.raises(DomainError, match="taus must not be NaN"):
        threshold_sweep([0.2, 0.9], [False, True], [0.5, np.nan])


def test_threshold_sweep_rate_non_increasing():
    rng = np.random.default_rng(23)
    conf = rng.random(200)
    corr = rng.random(200) < 0.5
    taus = np.linspace(0.01, 1.0, 37)
    rate, _ = threshold_sweep(conf, corr, taus)
    assert np.all(np.diff(rate) <= 0)
