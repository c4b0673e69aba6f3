"""Synthetic batch generator and policy comparison harness."""
from __future__ import annotations

import math

import numpy as np
import pytest

from covar.baseline import ThresholdPolicy, ece
from covar.errors import DomainError
from covar.pcos import pcos
from covar.simulator import (
    CovarPolicy,
    SyntheticConfig,
    evaluate_policies,
    generate,
)
from covar.stats import ProbabilityBatch

CANONICAL = dict(
    base_accuracy=0.75, overconfidence_temp=0.25, residual_mode="bimodal"
)


def test_config_validation():
    with pytest.raises(DomainError):
        SyntheticConfig.uniform_priors(0, 3, base_accuracy=0.5)
    for k in (1, 0, -1):  # k = 0 must not divide by zero on the way
        with pytest.raises(DomainError, match="at least 2 classes"):
            SyntheticConfig.uniform_priors(10, k, base_accuracy=0.5)
    with pytest.raises(DomainError, match="at most 65536 classes, got 65537"):
        SyntheticConfig.uniform_priors(2, 65_537, base_accuracy=0.5)
    with pytest.raises(DomainError, match="got 65537"):
        SyntheticConfig(2, 65_537, (1.0,) + (0.0,) * 65_536, base_accuracy=0.5)
    with pytest.raises(DomainError):
        SyntheticConfig.uniform_priors(10, 3, base_accuracy=0.0)
    with pytest.raises(DomainError):
        SyntheticConfig.uniform_priors(10, 3, base_accuracy=1.1)
    with pytest.raises(DomainError):
        SyntheticConfig.uniform_priors(10, 3, base_accuracy=0.5, overconfidence_temp=0.0)
    with pytest.raises(DomainError):
        SyntheticConfig.uniform_priors(10, 3, base_accuracy=0.5, residual_mode="spiky")
    with pytest.raises(DomainError):
        SyntheticConfig(
            n_samples=10, n_classes=3, class_priors=(0.5, 0.5), base_accuracy=0.5
        )
    with pytest.raises(DomainError):
        SyntheticConfig(
            n_samples=10, n_classes=2, class_priors=(0.7, 0.4), base_accuracy=0.5
        )
    # non-finite values are named rather than reaching numpy
    with pytest.raises(DomainError, match="nan"):
        SyntheticConfig(
            n_samples=10, n_classes=3, class_priors=(math.nan, 0.5, 0.5), base_accuracy=0.5
        )
    with pytest.raises(DomainError, match="inf"):
        SyntheticConfig.uniform_priors(10, 3, base_accuracy=0.5, overconfidence_temp=math.inf)
    for seed in (-1, 2.5, "3"):  # numpy's seeding would raise a plain ValueError or TypeError
        with pytest.raises(DomainError, match=f"got {seed!r}"):
            SyntheticConfig.uniform_priors(10, 3, base_accuracy=0.5, seed=seed)
    # noiseless configuration is allowed
    SyntheticConfig.uniform_priors(10, 3, base_accuracy=1.0)


def test_generate_deterministic_per_seed():
    cfg = SyntheticConfig.uniform_priors(64, 5, base_accuracy=0.8, seed=42)
    b1, y1 = generate(cfg)
    b2, y2 = generate(cfg)
    assert b1.values.tobytes() == b2.values.tobytes()
    np.testing.assert_array_equal(y1, y2)
    b3, _ = generate(SyntheticConfig.uniform_priors(64, 5, base_accuracy=0.8, seed=43))
    assert b1.values.tobytes() != b3.values.tobytes()


def test_generate_shapes_and_ranges():
    cfg = SyntheticConfig.uniform_priors(100, 7, base_accuracy=0.6, **{})
    batch, y = generate(cfg)
    assert batch.values.shape == (100, 7)
    assert y.shape == (100,)
    assert y.min() >= 0 and y.max() < 7
    np.testing.assert_allclose(batch.values.sum(axis=1), 1.0, atol=1e-9)


def test_generate_hits_base_accuracy():
    cfg = SyntheticConfig.uniform_priors(20_000, 6, base_accuracy=0.75, seed=1)
    batch, y = generate(cfg)
    acc = float((batch.values.argmax(axis=1) == y).mean())
    # binomial 5-sigma band around 0.75 at N = 20000 is about +/- 0.0153
    assert abs(acc - 0.75) < 0.016


def test_generate_perfect_accuracy():
    batch, y = generate(SyntheticConfig.uniform_priors(500, 4, base_accuracy=1.0, seed=3))
    np.testing.assert_array_equal(batch.values.argmax(axis=1), y)


def test_generate_respects_priors():
    cfg = SyntheticConfig(
        n_samples=30_000,
        n_classes=3,
        class_priors=(0.6, 0.3, 0.1),
        base_accuracy=0.9,
        seed=5,
    )
    _, y = generate(cfg)
    freq = np.bincount(y, minlength=3) / y.size
    np.testing.assert_allclose(freq, [0.6, 0.3, 0.1], atol=0.02)


def test_sharpening_raises_confidence():
    mk = lambda t: SyntheticConfig.uniform_priors(
        4000, 6, base_accuracy=0.8, overconfidence_temp=t, seed=9
    )
    sharp, _ = generate(mk(0.25))
    plain, _ = generate(mk(1.0))
    assert sharp.values.max(axis=1).mean() > plain.values.max(axis=1).mean() + 0.05


def test_sharpening_induces_miscalibration():
    cfg = SyntheticConfig.uniform_priors(
        10_000, 6, seed=2, **CANONICAL
    )
    batch, y = generate(cfg)
    conf = batch.values.max(axis=1)
    corr = batch.values.argmax(axis=1) == y
    assert ece(conf, corr).ece > 0.1  # grossly overconfident by construction


def test_bimodal_errors_confident_and_high_rcv():
    for seed in range(5):
        cfg = SyntheticConfig.uniform_priors(10_000, 6, seed=seed, **CANONICAL)
        batch, y = generate(cfg)
        correct = batch.values.argmax(axis=1) == y
        conf = batch.values.max(axis=1)
        # every wrong prediction clears a fixed tau = 0.95 screen
        assert conf[~correct].min() >= 0.955 - 1e-12
        assert conf[~correct].max() <= 0.995 + 1e-12
        rcv = np.array([s.rcv for s in batch])
        assert rcv[~correct].mean() > 2.0 * rcv[correct].mean()


def test_bimodal_spike_sits_on_true_class():
    # with moderate sharpening the wrong rows' second-largest entry should
    # overwhelmingly be the true class
    cfg = SyntheticConfig.uniform_priors(
        5_000, 6, base_accuracy=0.7, residual_mode="bimodal", seed=11
    )
    batch, y = generate(cfg)
    arg = batch.values.argmax(axis=1)
    wrong = arg != y
    vals = batch.values[wrong].copy()
    vals[np.arange(vals.shape[0]), arg[wrong]] = -1.0
    runner_up = vals.argmax(axis=1)
    assert (runner_up == y[wrong]).mean() > 0.95


def test_two_class_generation():
    batch, y = generate(
        SyntheticConfig.uniform_priors(200, 2, base_accuracy=0.8, residual_mode="bimodal", seed=7)
    )
    assert batch.values.shape == (200, 2)


# --- policy evaluation ---------------------------------------------------------


def test_evaluate_policies_threshold_hand_example():
    rows = np.array(
        [
            [0.97, 0.02, 0.01],
            [0.60, 0.30, 0.10],
            [0.05, 0.90, 0.05],
        ]
    )
    batch = ProbabilityBatch.from_array(rows)
    y = np.array([0, 1, 1])
    (ev,) = evaluate_policies(batch, y, [ThresholdPolicy(0.9)])
    assert ev.name == "fixed-tau=0.9"
    assert ev.n_selected == 2
    assert ev.selected_accuracy == pytest.approx(1.0)
    assert ev.weighted_accuracy == pytest.approx(1.0)
    assert ev.mean_weight == pytest.approx(2.0 / 3.0)
    assert ev.retention[0].retention == pytest.approx(1.0)
    assert ev.retention[1].retention == pytest.approx(0.5)  # row 1 dropped


def test_evaluate_policies_covar_consistency():
    cfg = SyntheticConfig.uniform_priors(400, 6, seed=17, **CANONICAL)
    batch, y = generate(cfg)
    (ev,) = evaluate_policies(batch, y, [CovarPolicy()])
    assert ev.name == "covar-pcos"
    w = pcos(batch).weights
    assert ev.n_selected == int((w >= 0.5).sum())
    correct = batch.values.argmax(axis=1) == y
    assert ev.weighted_accuracy == pytest.approx(
        float((w * correct).sum() / w.sum())
    )
    assert ev.mean_weight == pytest.approx(float(w.mean()))
    assert 0.0 <= ev.ece <= 1.0


def test_evaluate_policies_shared_ece_and_validation():
    cfg = SyntheticConfig.uniform_priors(300, 5, base_accuracy=0.8, seed=19)
    batch, y = generate(cfg)
    evs = evaluate_policies(
        batch, y, [ThresholdPolicy(0.5), ThresholdPolicy(0.95), CovarPolicy()]
    )
    assert len({e.ece for e in evs}) == 1  # batch property, policy-independent
    with pytest.raises(DomainError):
        evaluate_policies(batch, y[:-1], [ThresholdPolicy(0.5)])
    with pytest.raises(DomainError):
        evaluate_policies(batch, y, ["not-a-policy"])


def test_covar_beats_fixed_threshold_on_canonical_scenario():
    """The headline comparison on one seed (the acceptance suite sweeps 50)."""
    cfg = SyntheticConfig.uniform_priors(10_000, 6, seed=0, **CANONICAL)
    batch, y = generate(cfg)
    base, cov = evaluate_policies(batch, y, [ThresholdPolicy(0.95), CovarPolicy()])
    assert cov.weighted_accuracy > base.selected_accuracy + 0.1
