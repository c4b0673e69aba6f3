"""Per-sample summary statistics of softmax probability rows.

Everything downstream runs on four numbers per sample: the argmax class
k', its confidence p(k'), the residual mean

    mu = (1 - p(k')) / (K - 1),

and the residual class variance (RCV)

    v = (1/(K-1)) * sum_{k != k'} (p(k) - mu)^2 .

The residual-scale ratio rho = max_k |p(k) - mu| / mu measures how far
the residual entries stray from their mean in relative terms; the
second-order expansion used by :mod:`covar.decomposition` is certified
only while rho < 1.

A :class:`ProbabilityBatch` carries these statistics as columns, computed
once when the batch is validated.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import ClassVar, TypeVar

import numpy as np

from .errors import ValidationError

__all__ = [
    "ONE_HOT_TOL",
    "CONF_CEILING",
    "ROW_SUM_ACCEPT",
    "ROW_SUM_REJECT",
    "ProbabilityBatch",
    "PredictionStats",
    "RowColumns",
    "compute_stats",
]

# A row whose max confidence reaches 1 - ONE_HOT_TOL is flagged degenerate:
# mu and rho are no longer trustworthy at that scale.
ONE_HOT_TOL = 1e-12

# Formulas with a 1 - p(k') denominator use confidence clamped to this
# ceiling so degenerate rows stay finite (and keep their "stronger
# penalty" ordering instead of overflowing).
CONF_CEILING = 1.0 - 1e-6

# Row sums within ROW_SUM_ACCEPT of 1 are taken as-is (so clean float64
# batches round-trip bitwise through I/O).  Sums off by more than that
# but within ROW_SUM_REJECT (think float32 softmax exports) are
# renormalized.  Anything worse is rejected.
ROW_SUM_ACCEPT = 1e-9
ROW_SUM_REJECT = 1e-6


@dataclass(frozen=True)
class PredictionStats:
    """Summary statistics of one probability row.

    ``residuals`` holds the raw p(k) of the K-1 residual classes in
    ascending class order (argmax column removed); ``deviations`` holds
    p(k) - mu in the same order and sums to zero up to roundoff.  The raw
    values are kept because a probability below mu's ulp is unrecoverable
    from its deviation (p - mu rounds to exactly -mu).  ``degenerate``
    marks rows whose max confidence is within ``ONE_HOT_TOL`` of 1, where
    mu and rho lose meaning.
    """

    max_class: int
    max_conf: float
    residual_mean: float
    residuals: np.ndarray = field(repr=False)
    deviations: np.ndarray = field(repr=False)
    rcv: float
    rho: float
    degenerate: bool
    n_classes: int

    @property
    def safe_conf(self) -> float:
        """Max confidence clamped to ``CONF_CEILING`` for 1-p denominators."""
        return min(self.max_conf, CONF_CEILING)


R = TypeVar("R")


class RowColumns(Sequence[R]):
    """Base of a frozen dataclass holding one read-only column per field of
    the record type ``row_type``.

    Fields whose value is not an array (such as ``n_classes``) are shared
    by every row.  Every array field is marked read-only on construction,
    and the instance is also a sequence of ``row_type`` records, each built
    only when indexed or iterated.
    """

    row_type: ClassVar[type]
    _names: ClassVar[tuple[str, ...]]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._names = tuple(f.name for f in fields(cls.row_type))

    def __post_init__(self) -> None:
        for col in vars(self).values():
            if isinstance(col, np.ndarray):
                col.setflags(write=False)

    def __len__(self) -> int:
        # The first field of every record type is a per-row column.
        return getattr(self, self._names[0]).shape[0]

    def __getitem__(self, i: int) -> R:
        i = range(len(self))[operator.index(i)]
        return next(self._rows(i, i + 1))

    def __iter__(self) -> Iterator[R]:
        return self._rows(0, len(self))

    def _rows(self, start: int, stop: int) -> Iterator[R]:
        parts = []
        for name in self._names:
            col = getattr(self, name)
            if not isinstance(col, np.ndarray):
                parts.append(repeat(col))
            elif col.ndim == 2:
                parts.append(col[start:stop])
            else:  # tolist() so rows hold Python scalars
                parts.append(col[start:stop].tolist())
        for row in zip(*parts):
            yield self.row_type(*row)


@dataclass(frozen=True, eq=False)
class ProbabilityBatch(RowColumns[PredictionStats]):
    """A validated (N, K) row-stochastic float64 matrix ``values`` with its
    :class:`PredictionStats` as columns, one read-only array per field.

    ``residuals`` and ``deviations`` have shape (N, K-1); every other
    column has shape (N,).  The batch is also a sequence of per-row
    :class:`PredictionStats`, each built only when indexed or iterated.
    Build instances through :meth:`from_array`.
    """

    row_type: ClassVar[type] = PredictionStats

    values: np.ndarray
    max_class: np.ndarray
    max_conf: np.ndarray
    residual_mean: np.ndarray
    residuals: np.ndarray
    deviations: np.ndarray
    rcv: np.ndarray
    rho: np.ndarray
    degenerate: np.ndarray
    n_classes: int

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def safe_conf(self) -> np.ndarray:
        """Max confidence clamped to ``CONF_CEILING`` for 1-p denominators."""
        return np.minimum(self.max_conf, CONF_CEILING)

    @classmethod
    def from_array(cls, values: np.ndarray) -> "ProbabilityBatch":
        """Validate the entries, renormalize rows with small sum drift and
        compute the per-row statistics; a row's error carries its index as
        ``ValidationError.row``.  Argmax ties resolve to the lowest class
        index.  Rows with max confidence at or above 1 - 1e-12 are flagged
        degenerate, with rho 0 when the residual mean underflows to zero.
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError(f"expected a 2-d array, got ndim={arr.ndim}")
        n, k = arr.shape
        if n < 1:
            raise ValidationError("batch must contain at least one sample")
        if k < 2:
            raise ValidationError(f"need at least 2 classes, got {k}")
        if not np.all(np.isfinite(arr)):
            row = int(np.argwhere(~np.isfinite(arr).all(axis=1))[0, 0])
            raise ValidationError("non-finite entry", row=row)
        neg = arr < 0.0
        if neg.any():
            row = int(np.argwhere(neg.any(axis=1))[0, 0])
            raise ValidationError(f"negative entry {float(arr[row][neg[row]][0])!r}", row=row)
        sums = arr.sum(axis=1)
        drift = np.abs(sums - 1.0)
        bad = drift > ROW_SUM_REJECT
        if bad.any():
            row = int(np.argmax(bad))
            reason = f"sum {float(sums[row])!r} deviates from 1 by more than {ROW_SUM_REJECT}"
            raise ValidationError(reason, row=row)
        fix = drift > ROW_SUM_ACCEPT
        if fix.any():
            arr = arr.copy()
            arr[fix] = arr[fix] / sums[fix, None]
        vals = np.ascontiguousarray(arr)

        idx = np.arange(n)
        max_class = vals.argmax(axis=1)  # first maximum wins ties
        max_conf = vals[idx, max_class]
        mu = (1.0 - max_conf) / (k - 1)
        # A row that is uniform up to the last ulp can have its float row sum
        # land just below 1, which would put mu one ulp above max_conf and
        # break the exact ordering p(k') >= mu that downstream sign arguments
        # rely on.  Clamping costs at most one ulp and restores the invariant
        # the exact simplex row satisfies.
        np.minimum(mu, max_conf, out=mu)
        keep = np.ones((n, k), dtype=bool)
        keep[idx, max_class] = False
        residuals = vals[keep].reshape(n, k - 1)
        deviations = residuals - mu[:, None]
        rcv = (deviations * deviations).sum(axis=1) / (k - 1)
        max_abs_dev = np.abs(deviations).max(axis=1)
        degenerate = max_conf >= 1.0 - ONE_HOT_TOL
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.where(mu > 0.0, max_abs_dev / np.where(mu > 0.0, mu, 1.0), 0.0)
        return cls(
            vals, max_class, max_conf, mu, residuals, deviations, rcv, rho, degenerate, n_classes=k
        )


def compute_stats(batch: ProbabilityBatch) -> ProbabilityBatch:
    """The batch itself, whose statistics ``from_array`` already computed."""
    return batch
