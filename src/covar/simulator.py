"""Synthetic softmax batches with controllable failure structure.

Rows are built from independent pieces so each knob moves one property:
a Beta-distributed confidence level, a Dirichlet residual shape, and a
power-temperature sharpening p -> p^(1/T) (T < 1 sharpens, raising max
confidence without touching correctness, i.e. inducing overconfidence).

``residual_mode`` controls the error structure.  In ``uniform`` mode all
rows spread residual mass evenly (low RCV).  In ``bimodal`` mode wrong
predictions concentrate their residual mass on one competitor (the true
class), yielding high RCV, and are lifted to max confidence above 0.955
after sharpening, the "confidently wrong" population a fixed threshold
cannot reject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .baseline import ClassRetention, ThresholdPolicy, ece, retention_from_mask, threshold_select
from .errors import DomainError
from .pcos import DEFAULT_LAMBDA, pcos
from .stats import ProbabilityBatch

__all__ = [
    "SyntheticConfig",
    "CovarPolicy",
    "PolicyEvaluation",
    "generate",
    "evaluate_policies",
]

# Pre-sharpening confidence level of every row.
_CONF_ALPHA, _CONF_BETA = 5.0, 2.0
# Residual-shape concentrations: flat for well-behaved rows, spiked for
# bimodal errors.
_UNIFORM_CONC = 32.0
_BIMODAL_MAIN, _BIMODAL_REST = 8.0, 0.35
# Bimodal errors land in this max-confidence band after sharpening.
_ERROR_CONF_FLOOR, _ERROR_CONF_SPAN = 0.955, 0.04
# Above ImageNet-21k's 21,841 classes; the priors, K Python floats, are
# echoed into every simulate report.
_MAX_CLASSES = 65_536


def _check_n_classes(n_classes: int) -> None:
    """Run before anything K-sized is built."""
    if n_classes < 2:
        raise DomainError("need at least 2 classes")
    if n_classes > _MAX_CLASSES:
        raise DomainError(f"need at most {_MAX_CLASSES} classes, got {n_classes}")


@dataclass(frozen=True)
class SyntheticConfig:
    n_samples: int
    n_classes: int
    class_priors: tuple[float, ...]
    base_accuracy: float
    overconfidence_temp: float = 1.0
    residual_mode: str = "uniform"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise DomainError("n_samples must be positive")
        _check_n_classes(self.n_classes)
        pri = np.asarray(self.class_priors, dtype=np.float64)
        if pri.shape != (self.n_classes,):
            raise DomainError(
                f"class_priors has length {pri.size}, expected {self.n_classes}"
            )
        if not np.isfinite(pri).all():
            raise DomainError(f"class_priors must be finite, got {self.class_priors!r}")
        if (pri < 0.0).any() or abs(pri.sum() - 1.0) > 1e-9:
            raise DomainError("class_priors must be a probability vector")
        # 1.0 is allowed: the noiseless configuration is useful in tests.
        if not 0.0 < self.base_accuracy <= 1.0:
            raise DomainError("base_accuracy must lie in (0, 1]")
        if not self.overconfidence_temp > 0.0:
            raise DomainError("overconfidence_temp must be positive")
        if not math.isfinite(self.overconfidence_temp):
            raise DomainError(f"overconfidence_temp must be finite, got {self.overconfidence_temp!r}")
        if self.residual_mode not in ("uniform", "bimodal"):
            raise DomainError(f"unknown residual_mode {self.residual_mode!r}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise DomainError(f"seed must be a non-negative integer, got {self.seed!r}")

    @classmethod
    def uniform_priors(cls, n_samples: int, n_classes: int, **kw) -> "SyntheticConfig":
        """Equal priors, built only for a class count the simulator accepts."""
        _check_n_classes(n_classes)
        return cls(
            n_samples=n_samples,
            n_classes=n_classes,
            class_priors=tuple(1.0 / n_classes for _ in range(n_classes)),
            **kw,
        )


def generate(config: SyntheticConfig) -> tuple[ProbabilityBatch, np.ndarray]:
    """Draw a seeded batch; returns (batch, true_labels).

    Deterministic for a given config: one PCG64 stream seeded from
    ``config.seed`` drives every draw in a fixed order.
    """
    rows, y = _draw(config)  # frees the draw's temporaries before the statistics pass
    return ProbabilityBatch.from_array(rows), y


def _draw(config: SyntheticConfig) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(config.seed)
    n, k = config.n_samples, config.n_classes
    y = rng.choice(k, size=n, p=np.asarray(config.class_priors))
    correct = rng.random(n) < config.base_accuracy
    offset = rng.integers(1, k, size=n)
    arg = np.where(correct, y, (y + offset) % k)

    m = rng.beta(_CONF_ALPHA, _CONF_BETA, size=n)
    w = rng.dirichlet(np.full(k - 1, _UNIFORM_CONC), size=n)
    if config.residual_mode == "bimodal" and k > 2:
        alpha = np.full(k - 1, _BIMODAL_REST)
        alpha[0] = _BIMODAL_MAIN
        spiked = rng.dirichlet(alpha, size=n)
        # Roll the spike onto the true class's residual slot, the natural
        # confusion pattern for a wrong prediction.
        pos = (y - (y > arg)) % (k - 1)
        cols = (np.arange(k - 1)[None, :] - pos[:, None]) % (k - 1)
        spiked = spiked[np.arange(n)[:, None], cols]
        w = np.where(correct[:, None], w, spiked)

    rows = np.zeros((n, k))
    idx = np.arange(n)
    rows[idx, arg] = m
    keep = np.ones((n, k), dtype=bool)
    keep[idx, arg] = False
    rows[keep] = ((1.0 - m)[:, None] * w).ravel()

    # The Beta/Dirichlet draws do not guarantee the intended argmax; swap
    # the largest entry into place when they disagree.
    jmax = rows.argmax(axis=1)
    fix = rows[idx, jmax] > rows[idx, arg]
    fi = idx[fix]
    tmp = rows[fi, jmax[fix]].copy()
    rows[fi, jmax[fix]] = rows[fi, arg[fix]]
    rows[fi, arg[fix]] = tmp

    if config.overconfidence_temp != 1.0:
        rows = rows ** (1.0 / config.overconfidence_temp)
        rows /= rows.sum(axis=1, keepdims=True)

    if config.residual_mode == "bimodal":
        # Rescale every error row into the high-confidence band, keeping its
        # spiked residual shape: the hard failure mode is wrong predictions
        # that look as certain as the good ones but carry a fat deviation
        # spread underneath.
        need = ~correct
        if need.any():
            u = rng.random(n)
            target = _ERROR_CONF_FLOOR + _ERROR_CONF_SPAN * u[need]
            # Sum the residual entries directly: 1 - cur cancels badly when
            # sharpening pushed the row within ulps of one-hot.
            rows[idx[need], arg[need]] = 0.0
            rsum = rows[need].sum(axis=1)
            ok = rsum > 0.0
            scale = np.where(ok, (1.0 - target) / np.where(ok, rsum, 1.0), 0.0)
            rows[need] *= scale[:, None]
            flat = np.where(ok, 0.0, (1.0 - target) / (k - 1))
            rows[need] += flat[:, None]
            rows[idx[need], arg[need]] = target

    return rows, y


@dataclass(frozen=True)
class CovarPolicy:
    """Select via PCOS reliability weights (>= 0.5 counts as selected)."""

    kind: str = "theory"
    lam: float = DEFAULT_LAMBDA


@dataclass(frozen=True)
class PolicyEvaluation:
    name: str
    n_selected: int
    selected_accuracy: float
    weighted_accuracy: float
    mean_weight: float
    retention: dict[int, ClassRetention]
    ece: float


def evaluate_policies(
    batch: ProbabilityBatch,
    true_labels: np.ndarray,
    policies: Sequence[Union[ThresholdPolicy, CovarPolicy]],
) -> list[PolicyEvaluation]:
    """Score selection policies against known labels on one batch.

    Weighted accuracy is sum(w * correct) / sum(w); for a threshold
    policy the weights are the 0/1 mask, so it coincides with accuracy
    among selected.  The ECE column describes the batch (15 bins) and is
    the same for every policy.
    """
    y = np.asarray(true_labels)
    if y.shape != batch.max_class.shape:
        raise DomainError("true_labels length must match the batch")
    correct = batch.max_class == y
    cal = ece(batch.max_conf, correct, n_bins=15).ece

    out = []
    for policy in policies:
        if isinstance(policy, ThresholdPolicy):
            _, mask = threshold_select(batch, policy)
            weights = mask.astype(np.float64)
            name = f"fixed-tau={policy.tau:g}"
        elif isinstance(policy, CovarPolicy):
            weights = pcos(batch, policy.kind, policy.lam).weights
            name = "covar-pcos"
        else:
            raise DomainError(f"unknown policy {policy!r}")
        mask = weights >= 0.5
        n_sel = int(mask.sum())
        sel_acc = float(correct[mask].mean()) if n_sel else math.nan
        wsum = float(weights.sum())
        w_acc = float((weights * correct).sum() / wsum) if wsum > 0.0 else math.nan
        out.append(
            PolicyEvaluation(
                name=name,
                n_selected=n_sel,
                selected_accuracy=sel_acc,
                weighted_accuracy=w_acc,
                mean_weight=float(weights.mean()),
                retention=retention_from_mask(y, mask, batch.n_classes),
                ece=cal,
            )
        )
    return out
