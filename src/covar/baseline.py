"""Fixed-threshold selection and calibration diagnostics.

The comparison baseline keeps a sample iff its max confidence clears a
threshold tau (inclusive).  Calibration error uses equal-width bins with
right-inclusive upper edges; a cumulative >=-threshold accuracy curve is
provided separately since the two views answer different questions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .stats import ProbabilityBatch

__all__ = [
    "IGNORE_LABEL",
    "ThresholdPolicy",
    "CalibrationReport",
    "ClassRetention",
    "threshold_select",
    "ece",
    "retention_from_mask",
    "threshold_sweep",
]

IGNORE_LABEL = -1


@dataclass(frozen=True)
class ThresholdPolicy:
    """Keep samples with max confidence >= tau."""

    tau: float

    def __post_init__(self) -> None:
        if not 0.0 < self.tau <= 1.0:
            raise DomainError(f"tau must lie in (0, 1], got {self.tau!r}")


@dataclass(frozen=True)
class CalibrationReport:
    """Binned reliability summary.

    ``bin_confidence`` / ``bin_accuracy`` are nan for empty bins, which
    contribute 0 to the expected calibration error.
    """

    n_bins: int
    bin_edges: np.ndarray
    bin_confidence: np.ndarray
    bin_accuracy: np.ndarray
    bin_count: np.ndarray
    ece: float


@dataclass(frozen=True)
class ClassRetention:
    label: int
    count: int
    retained: int
    retention: float
    inv_sqrt_count: float


def threshold_select(
    batch: ProbabilityBatch, policy: ThresholdPolicy
) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-labels and selection mask under a fixed confidence threshold.

    Returns ``(labels, mask)`` where labels holds the argmax class for
    selected samples and ``IGNORE_LABEL`` (-1) elsewhere.  The comparison
    is inclusive, so tau = 1.0 keeps exactly the one-hot rows.
    """
    mask = batch.max_conf >= policy.tau
    labels = np.where(mask, batch.max_class, IGNORE_LABEL)
    return labels, mask


def _confidence_pairs(confidences, correct) -> tuple[np.ndarray, np.ndarray]:
    """Equal-length 1-d (confidence, correctness) vectors, confidences in [0, 1]."""
    conf = np.asarray(confidences, dtype=np.float64)
    corr = np.asarray(correct, dtype=bool)
    if conf.ndim != 1 or conf.shape != corr.shape:
        raise ValidationError(
            f"confidences {conf.shape} and correctness {corr.shape} must be equal-length vectors"
        )
    if conf.size == 0:
        raise DomainError("need at least one sample")
    if not (conf.min() >= 0.0 and conf.max() <= 1.0):  # NaN fails both comparisons
        raise DomainError("confidences must lie in [0, 1]")
    return conf, corr


def ece(confidences: np.ndarray, correct: np.ndarray, n_bins: int = 15) -> CalibrationReport:
    """Expected calibration error over equal-width confidence bins.

    ECE = sum_b (count_b / N) * |accuracy_b - confidence_b|; empty bins
    contribute nothing.
    """
    conf, corr = _confidence_pairs(confidences, correct)
    if n_bins < 1:
        raise DomainError(f"need at least one bin, got {n_bins}")
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    # Right-inclusive bins (lo, hi]; confidence 0.0 joins the first bin.
    idx = np.clip(np.digitize(conf, edges, right=True) - 1, 0, n_bins - 1)
    count = np.bincount(idx, minlength=n_bins)
    conf_sum = np.bincount(idx, weights=conf, minlength=n_bins)
    acc_sum = np.bincount(idx, weights=corr.astype(np.float64), minlength=n_bins)
    bin_conf = np.where(count > 0, conf_sum / np.maximum(count, 1), np.nan)
    bin_acc = np.where(count > 0, acc_sum / np.maximum(count, 1), np.nan)
    total = math.fsum(
        (count[b] / conf.size) * abs(bin_acc[b] - bin_conf[b]) for b in np.flatnonzero(count)
    )
    return CalibrationReport(
        n_bins=n_bins,
        bin_edges=edges,
        bin_confidence=bin_conf,
        bin_accuracy=bin_acc,
        bin_count=count,
        ece=total,
    )


def retention_from_mask(
    true_labels: np.ndarray, mask: np.ndarray, n_classes: int
) -> dict[int, ClassRetention]:
    """Per-class retention of an arbitrary selection mask.

    Classes absent from ``true_labels`` are omitted from the result
    rather than reported as zero.  The 1/sqrt(N_k) factor that scales the
    theoretical retention deviation is reported alongside for context;
    its constant is model-dependent, so nothing is asserted about it.
    """
    y = np.asarray(true_labels)
    if y.ndim != 1 or y.shape != np.asarray(mask).shape:
        raise ValidationError("labels and mask must be equal-length vectors")
    if y.dtype.kind not in "iu":
        raise ValidationError(f"labels must be integers, got {y.dtype}")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValidationError(f"labels must lie in [0, {n_classes})")
    y = y.astype(np.intp, copy=False)  # the bincount of numpy 1.x takes no uint64
    counts = np.bincount(y, minlength=n_classes).tolist()
    kept = np.bincount(y[np.asarray(mask, dtype=bool)], minlength=n_classes).tolist()
    return {
        label: ClassRetention(
            label=label,
            count=count,
            retained=retained,
            retention=retained / count,
            inv_sqrt_count=1.0 / math.sqrt(count),
        )
        for label, (count, retained) in enumerate(zip(counts, kept))
        if count
    }


def threshold_sweep(
    confidences: np.ndarray, correct: np.ndarray, taus: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Selection rate and cumulative (>= tau) accuracy across thresholds.

    The accuracy entry is nan where nothing clears the threshold.
    selection_rate is non-increasing in tau by construction.  The pair is
    checked as in ``ece``; taus must be a vector with no NaN.
    """
    conf, corr = _confidence_pairs(confidences, correct)
    ts = np.asarray(taus, dtype=np.float64)
    if ts.ndim != 1:
        raise ValidationError(f"taus must be a vector, got shape {ts.shape}")
    if np.isnan(ts).any():
        raise DomainError("taus must not be NaN")
    keep = conf[None, :] >= ts[:, None]
    counts = keep.sum(axis=1)
    rate = counts / conf.size
    acc = np.where(counts > 0, (keep & corr[None, :]).sum(axis=1) / np.maximum(counts, 1), np.nan)
    return rate, acc
