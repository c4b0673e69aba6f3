"""Row statistics: argmax, residual mean, RCV, rho, degeneracy, exact CE."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import batch_of, simplex_rows
from covar.errors import (
    DomainError,
    InfiniteCrossEntropyError,
    ValidationError,
)
from covar.stats import (
    CONF_CEILING,
    PredictionStats,
    ProbabilityBatch,
    compute_stats,
)
from oracles import IdealDistribution, exact_ce

# Hand-computed from the definitions: p = [0.7, 0.2, 0.1] gives
# mu = 0.3/2 = 0.15, deviations (0.05, -0.05), v = 0.0025, rho = 1/3.
ROW3 = [0.7, 0.2, 0.1]
# Second reference row, K = 5: mu = 0.6/4 = 0.15, deviations
# (0.05, 0.05, -0.05, -0.05), v = 0.01/4 = 0.0025, rho = 1/3.
ROW5 = [0.4, 0.2, 0.2, 0.1, 0.1]


def test_reference_row_three_classes():
    s = compute_stats(batch_of(ROW3))[0]
    assert s.max_class == 0
    assert s.max_conf == 0.7
    assert s.residual_mean == pytest.approx(0.15, abs=1e-15)
    assert s.rcv == pytest.approx(0.0025, abs=1e-15)
    assert s.rho == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert not s.degenerate
    np.testing.assert_allclose(s.deviations, [0.05, -0.05], atol=1e-15)
    # raw residual probabilities are carried bitwise, not reconstructed
    np.testing.assert_array_equal(s.residuals, [0.2, 0.1])
    assert not s.residuals.flags.writeable


def test_reference_row_five_classes():
    s = compute_stats(batch_of(ROW5))[0]
    assert (s.max_class, s.n_classes) == (0, 5)
    assert s.residual_mean == pytest.approx(0.15, abs=1e-15)
    assert s.rcv == pytest.approx(0.0025, abs=1e-15)
    assert s.rho == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_argmax_tie_takes_lowest_index():
    s = compute_stats(batch_of([0.4, 0.4, 0.15, 0.05]))[0]
    assert s.max_class == 0
    s = compute_stats(batch_of([0.1, 0.45, 0.45]))[0]
    assert s.max_class == 1


def test_uniform_row_is_all_zero_deviation():
    k = 7
    s = compute_stats(batch_of(np.full(k, 1.0 / k)))[0]
    assert s.max_class == 0
    assert s.rcv == 0.0
    assert s.rho == 0.0
    # mu may not exceed max_conf even when the float row sum is off by an ulp
    assert s.residual_mean <= s.max_conf


def test_one_hot_row_degenerate():
    s = compute_stats(batch_of([0.0, 1.0, 0.0]))[0]
    assert s.degenerate
    assert s.max_class == 1
    assert s.rho == 0.0  # residual mean is 0; ratio reported as 0
    assert s.safe_conf == CONF_CEILING


def test_near_one_hot_below_tolerance_not_degenerate():
    row = [1.0 - 1e-9, 5e-10, 5e-10]
    s = compute_stats(batch_of(row))[0]
    assert not s.degenerate
    # still clamped for 1-p denominators, which only kick in above the ceiling
    assert s.safe_conf == CONF_CEILING
    mild = compute_stats(batch_of([1.0 - 1e-5, 5e-6, 5e-6]))[0]
    assert mild.safe_conf == 1.0 - 1e-5


def test_batch_validation_rejects_negative_and_nonfinite():
    with pytest.raises(ValidationError, match=r"row 0: negative entry -0\.1$"):
        ProbabilityBatch.from_array(np.array([[0.5, 0.6, -0.1]]))
    with pytest.raises(ValidationError, match="row 1"):
        ProbabilityBatch.from_array(np.array([[0.5, 0.5], [np.nan, 0.5]]))
    with pytest.raises(ValidationError):
        ProbabilityBatch.from_array(np.array([0.5, 0.5]))  # 1-d
    with pytest.raises(ValidationError):
        ProbabilityBatch.from_array(np.ones((1, 1)))  # K < 2
    with pytest.raises(ValidationError):
        ProbabilityBatch.from_array(np.ones((0, 3)))  # empty


def test_row_sum_policy_three_zones():
    clean = np.array([[0.7, 0.2, 0.1]])
    b = ProbabilityBatch.from_array(clean)
    assert b.values.tobytes() == clean.tobytes()  # accepted untouched

    drifted = clean * (1.0 + 5e-8)  # inside the renormalize window
    b2 = ProbabilityBatch.from_array(drifted)
    assert abs(b2.values.sum() - 1.0) < 1e-12

    with pytest.raises(ValidationError, match="deviates"):
        ProbabilityBatch.from_array(clean * (1.0 + 1e-5))
    with pytest.raises(ValidationError, match=r"row 0: sum 1\.8 deviates"):
        ProbabilityBatch.from_array(np.array([[0.9, 0.9]]))


def test_batch_values_are_read_only():
    b = batch_of(ROW3)
    with pytest.raises(ValueError):
        b.values[0, 0] = 0.5
    for name in ("values", *(f.name for f in dataclasses.fields(PredictionStats))):
        column = getattr(b, name)
        if isinstance(column, np.ndarray):
            with pytest.raises(ValueError):
                column[0] = 0
    # the renormalized copy is read-only too
    drifted = ProbabilityBatch.from_array(np.array([ROW3]) * (1.0 + 5e-8))
    assert not drifted.values.flags.writeable


def test_batch_is_its_own_statistics():
    b = batch_of([ROW3, ROW3[::-1]])
    assert compute_stats(b) is b
    assert (len(b), b.n_samples, b.n_classes) == (2, 2, 3)
    np.testing.assert_array_equal(b.max_class, [0, 2])
    assert b[1].max_class == 2 and list(b)[0].max_conf == 0.7


def test_shape_is_checked_before_entries():
    with pytest.raises(ValidationError, match="need at least 2 classes, got 1") as info:
        ProbabilityBatch.from_array(np.full((1, 1), np.nan))
    assert info.value.row is None
    with pytest.raises(ValidationError, match="at least one sample"):
        ProbabilityBatch.from_array(np.full((0, 3), np.nan))


def test_row_errors_carry_the_row_index():
    with pytest.raises(ValidationError) as info:
        ProbabilityBatch.from_array(np.array([[0.5, 0.5], [0.9, 0.9]]))
    assert info.value.row == 1
    assert str(info.value) == f"row 1: {info.value.reason}"
    assert info.value.reason.startswith("sum 1.8 deviates")


SCALAR_FIELDS = ("max_class", "max_conf", "residual_mean", "rcv", "rho", "degenerate")


@given(simplex_rows())
def test_stats_invariants(rows):
    batch = ProbabilityBatch.from_array(rows)
    stats = compute_stats(batch)
    assert len(stats) == batch.n_samples
    for name in SCALAR_FIELDS + ("residuals", "deviations"):
        assert not getattr(stats, name).flags.writeable
    for i, s in enumerate(stats):
        # iterating, indexing and reading the columns agree
        for name in SCALAR_FIELDS:
            assert getattr(s, name) == getattr(stats[i], name) == getattr(stats, name)[i]
        np.testing.assert_array_equal(stats[i].residuals, stats.residuals[i])
        np.testing.assert_array_equal(stats[i].deviations, stats.deviations[i])
        assert 0 <= s.max_class < s.n_classes
        assert s.max_conf >= s.residual_mean  # argmax dominates the mean
        assert s.rcv >= 0.0
        assert s.rho >= 0.0
        assert s.deviations.shape == (s.n_classes - 1,)
        # residuals are the row's own values with the argmax column dropped
        np.testing.assert_array_equal(
            s.residuals, np.delete(batch.values[i], s.max_class)
        )
        # deviations are centred by construction
        assert abs(float(s.deviations.sum())) < 1e-9
        # RCV recomputed from the deviations
        v = float((s.deviations**2).sum()) / (s.n_classes - 1)
        assert math.isclose(v, s.rcv, rel_tol=1e-12, abs_tol=1e-300)


@given(simplex_rows(min_k=3, max_k=8, max_n=4), st.integers(0, 10_000))
def test_stats_permutation_consistency(rows, seed):
    """Permuting the classes permutes the argmax and preserves v and rho."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(rows.shape[1])
    base = compute_stats(ProbabilityBatch.from_array(rows))
    permuted = compute_stats(ProbabilityBatch.from_array(rows[:, perm]))
    for s0, s1 in zip(base, permuted):
        if np.isclose(rows[0], rows[0].max()).sum() > 1:
            continue  # ties can legitimately move under permutation
        assert s1.max_conf == pytest.approx(s0.max_conf, rel=1e-12)
        assert s1.rcv == pytest.approx(s0.rcv, rel=1e-9, abs=1e-30)


# --- ideal distribution and exact cross-entropy ---------------------------


def test_ideal_distribution_values_sum_to_one():
    q = IdealDistribution(epsilon=0.15, max_class=0, n_classes=3)
    np.testing.assert_allclose(q.values(), [0.7, 0.15, 0.15], atol=1e-15)
    assert q.values().sum() == pytest.approx(1.0, abs=1e-15)


def test_ideal_distribution_validation():
    with pytest.raises(DomainError):
        IdealDistribution(epsilon=0.5, max_class=0, n_classes=3)  # >= 1/(K-1)
    with pytest.raises(DomainError):
        IdealDistribution(epsilon=-0.01, max_class=0, n_classes=3)
    with pytest.raises(DomainError):
        IdealDistribution(epsilon=0.1, max_class=3, n_classes=3)


def test_exact_ce_reference_value():
    # -(0.7 log 0.7 + 0.15 log 0.2 + 0.15 log 0.1), computed by hand
    q = IdealDistribution(epsilon=0.15, max_class=0, n_classes=3)
    want = -(0.7 * math.log(0.7) + 0.15 * math.log(0.2) + 0.15 * math.log(0.1))
    got = exact_ce(np.array(ROW3), q)
    assert got == pytest.approx(want, abs=1e-15)
    assert got == pytest.approx(0.83647, abs=1e-4)


def test_exact_ce_zero_epsilon_ignores_zero_residuals():
    q = IdealDistribution(epsilon=0.0, max_class=0, n_classes=3)
    got = exact_ce(np.array([0.9, 0.1, 0.0]), q)
    assert got == pytest.approx(-math.log(0.9), abs=1e-15)


def test_exact_ce_infinite_cases():
    q = IdealDistribution(epsilon=0.1, max_class=0, n_classes=3)
    with pytest.raises(InfiniteCrossEntropyError):
        exact_ce(np.array([0.9, 0.1, 0.0]), q)
    q0 = IdealDistribution(epsilon=0.0, max_class=1, n_classes=3)
    with pytest.raises(InfiniteCrossEntropyError):
        exact_ce(np.array([1.0, 0.0, 0.0]), q0)
    with pytest.raises(DomainError):
        exact_ce(np.array([0.5, 0.5]), q)  # wrong width


@given(simplex_rows(min_k=3, max_k=6, max_n=1),
       st.floats(0.0, 0.2, exclude_max=True))
def test_exact_ce_matches_direct_dot_product(rows, eps_frac):
    row = rows[0]
    k = row.shape[0]
    kp = int(row.argmax())
    eps = eps_frac / (k - 1)
    q = IdealDistribution(epsilon=eps, max_class=kp, n_classes=k)
    want = -float(np.dot(q.values(), np.log(row)))
    assert exact_ce(row, q) == pytest.approx(want, rel=1e-10, abs=1e-12)
