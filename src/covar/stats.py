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
    ascending class order (argmax column removed); ``deviations`` is
    p(k) - mu in the same order, computed from this row on each access.
    The raw values are kept because a probability below mu's ulp is
    unrecoverable from its deviation (p - mu rounds to exactly -mu).
    ``degenerate`` marks rows whose max confidence is within
    ``ONE_HOT_TOL`` of 1, where mu and rho lose meaning.
    """

    max_class: int
    max_conf: float
    residual_mean: float
    residuals: np.ndarray = field(repr=False)
    rcv: float
    rho: float
    degenerate: bool

    @property
    def n_classes(self) -> int:
        return len(self.residuals) + 1

    @property
    def safe_conf(self) -> float:
        """Max confidence clamped to ``CONF_CEILING`` for 1-p denominators."""
        return min(self.max_conf, CONF_CEILING)

    @property
    def deviations(self) -> np.ndarray:
        """p(k) - mu per residual class; sums to zero up to roundoff."""
        return _read_only(self.residuals - self.residual_mean)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# The (N, K-1) residual work runs over row blocks of about this many
# float64s, so each scratch buffer (128 kB) is allocated once per call and
# stays in cache.
_BLOCK_ELEMENTS = 1 << 14


def _row_blocks(n: int, width: int, buffers: int) -> Iterator[tuple[slice, np.ndarray]]:
    """Split n rows of ``width`` values into blocks of about
    ``_BLOCK_ELEMENTS``, yielding each block's row slice with ``buffers``
    float64 scratch arrays of shape (rows, width), reused by every block.

    Callers reduce only along axis 1, so no result depends on the block
    size: every bit is the same as in one whole-batch pass.
    """
    step = max(1, _BLOCK_ELEMENTS // width)
    scratch = np.empty((buffers, min(step, n), width))
    for start in range(0, n, step):
        stop = min(start + step, n)
        yield slice(start, stop), scratch[:, : stop - start]


R = TypeVar("R")


class RowColumns(Sequence[R]):
    """Base of a frozen dataclass holding one read-only column per field of
    the record type ``row_type``.

    Every column is marked read-only on construction, and the instance is
    also a sequence of ``row_type`` records, each built only when indexed
    or iterated.
    """

    row_type: ClassVar[type]
    _names: ClassVar[tuple[str, ...]]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._names = tuple(f.name for f in fields(cls.row_type))

    def __post_init__(self) -> None:
        for col in vars(self).values():
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
            if col.ndim == 2:
                parts.append(col[start:stop])
            else:  # tolist() so rows hold Python scalars
                parts.append(col[start:stop].tolist())
        for row in zip(*parts):
            yield self.row_type(*row)


@dataclass(frozen=True, eq=False)
class ProbabilityBatch(RowColumns[PredictionStats]):
    """A validated (N, K) row-stochastic float64 matrix ``values`` with its
    :class:`PredictionStats` as columns, one read-only array per field.

    ``residuals`` has shape (N, K-1); every other column has shape (N,).
    ``deviations`` is not stored: it is ``residuals - residual_mean``,
    recomputed on each access, bitwise what a stored column would hold.
    The batch is also a sequence of per-row :class:`PredictionStats`, each
    built only when indexed or iterated.  Build instances through
    :meth:`from_array`.
    """

    row_type: ClassVar[type] = PredictionStats

    values: np.ndarray
    max_class: np.ndarray
    max_conf: np.ndarray
    residual_mean: np.ndarray
    residuals: np.ndarray
    rcv: np.ndarray
    rho: np.ndarray
    degenerate: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]

    @property
    def safe_conf(self) -> np.ndarray:
        """Max confidence clamped to ``CONF_CEILING`` for 1-p denominators."""
        return np.minimum(self.max_conf, CONF_CEILING)

    @property
    def deviations(self) -> np.ndarray:
        """p(k) - mu, shape (N, K-1), computed on each access."""
        return _read_only(self.residuals - self.residual_mean[:, None])

    @classmethod
    def from_array(cls, values: np.ndarray) -> "ProbabilityBatch":
        """Validate the entries, renormalize rows with small sum drift and
        compute the per-row statistics; a row's error carries its index as
        ``ValidationError.row``.  Argmax ties resolve to the lowest class
        index.  Rows with max confidence at or above 1 - 1e-12 are flagged
        degenerate, with rho 0 when the residual mean underflows to zero.

        A C-contiguous float64 input with no row to renormalize is not
        copied: ``values`` is a read-only view of it, so the batch sees
        later writes to the caller's array, which stays writable.
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError(f"expected a 2-d array, got ndim={arr.ndim}")
        n, k = arr.shape
        if n < 1:
            raise ValidationError("batch must contain at least one sample")
        if k < 2:
            raise ValidationError(f"need at least 2 classes, got {k}")
        # A non-finite entry makes its row sum non-finite, so the entries are
        # scanned only when a sum is; finite entries can overflow a sum,
        # which the row-sum check then names.
        with np.errstate(over="ignore", invalid="ignore"):
            sums = arr.sum(axis=1)
        if not np.isfinite(sums).all():
            finite = np.isfinite(arr).all(axis=1)
            if not finite.all():
                raise ValidationError("non-finite entry", row=int(finite.argmin()))
        if arr.min() < 0.0:
            neg = arr < 0.0
            row = int(neg.any(axis=1).argmax())
            raise ValidationError(f"negative entry {float(arr[row][neg[row]][0])!r}", row=row)
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
        vals = np.ascontiguousarray(arr).view()  # freezing a view leaves the input writable

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
        del keep
        rcv = np.empty(n)
        max_abs_dev = np.empty(n)
        for rows, (dev, sq) in _row_blocks(n, k - 1, 2):
            np.subtract(residuals[rows], mu[rows, None], out=dev)
            np.multiply(dev, dev, out=sq)
            sq.sum(axis=1, out=rcv[rows])
            np.abs(dev, out=dev)
            dev.max(axis=1, out=max_abs_dev[rows])
        rcv /= k - 1
        degenerate = max_conf >= 1.0 - ONE_HOT_TOL
        rho = np.divide(max_abs_dev, mu, out=np.zeros(n), where=mu > 0.0)
        return cls(vals, max_class, max_conf, mu, residuals, rcv, rho, degenerate)


def compute_stats(batch: ProbabilityBatch) -> ProbabilityBatch:
    """The batch itself, whose statistics ``from_array`` already computed."""
    return batch
