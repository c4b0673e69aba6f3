"""Reference implementations the tests hold the package to.

None of these is on the library's path.  Each is a direct, per-row or
exhaustive statement of a definition, kept simple enough to check by
hand:

* :class:`IdealDistribution` and :func:`exact_ce`: the smoothed target q
  and the exact cross-entropy of one row against it;
* :func:`taylor_log_expand`: the single-term second-order expansion of
  log p_k around mu with its Lagrange remainder bound;
* :func:`trace_objective`, :func:`enumerate_bipartitions` and
  :func:`brute_force_partition`: the grouping objective of a bipartition
  and its exhaustive maximizer (N <= 20);
* :func:`report_rows`: a per-sample report section as one dict per row,
  the values a streamed :class:`covar.io.Columns` section must hold;
  :func:`report_text`: the text a report must have, written value by
  value, and :func:`report_values`: a report's values, to compare bit
  for bit.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from covar.errors import DomainError, InfiniteCrossEntropyError
from covar.io import format_float

BRUTE_FORCE_LIMIT = 20


class AssumptionViolation(DomainError):
    """The bounded-deviation assumption (rho < 1, point inside the band) fails."""


# ---------------------------------------------------------------------------
# exact cross-entropy


@dataclass(frozen=True)
class IdealDistribution:
    """The smoothed target q: q(k') = 1 - (K-1)*eps, q(k) = eps elsewhere."""

    epsilon: float
    max_class: int
    n_classes: int

    def __post_init__(self) -> None:
        k = self.n_classes
        if k < 2:
            raise DomainError(f"need at least 2 classes, got {k}")
        if not 0 <= self.max_class < k:
            raise DomainError(f"max_class {self.max_class} outside [0, {k})")
        if not 0.0 <= self.epsilon < 1.0 / (k - 1):
            raise DomainError(
                f"epsilon {self.epsilon!r} outside [0, 1/(K-1)) for K={k}"
            )

    def values(self) -> np.ndarray:
        q = np.full(self.n_classes, self.epsilon)
        q[self.max_class] = 1.0 - (self.n_classes - 1) * self.epsilon
        return q


def exact_ce(p_row: np.ndarray, q: IdealDistribution) -> float:
    """Cross-entropy -sum_k q(k) log p(k) of one probability row against q.

    With eps = 0 the residual term vanishes and zero residual entries are
    fine (0 * log 0 = 0 convention); with eps > 0 an exact zero anywhere
    raises :class:`InfiniteCrossEntropyError` rather than returning inf.
    """
    p = np.asarray(p_row, dtype=np.float64)
    if p.ndim != 1 or p.shape[0] != q.n_classes:
        raise DomainError(
            f"row has shape {p.shape}, expected ({q.n_classes},)"
        )
    k = q.n_classes
    eps = q.epsilon
    kp = q.max_class
    if p[kp] <= 0.0:
        raise InfiniteCrossEntropyError(
            f"p({kp}) = {p[kp]!r} where the target places mass {1.0 - (k - 1) * eps!r}"
        )
    head = -(1.0 - (k - 1) * eps) * math.log(p[kp])
    if eps == 0.0:
        return head
    rest = np.delete(p, kp)
    if np.any(rest <= 0.0):
        j = int(np.argmax(rest <= 0.0))
        raise InfiniteCrossEntropyError(
            f"residual entry {j} is zero while epsilon={eps!r} places mass on it"
        )
    return head - eps * math.fsum(math.log(x) for x in rest)


# ---------------------------------------------------------------------------
# single-term expansion


def taylor_log_expand(p_k: float, mu: float, rho: float) -> tuple[float, float]:
    """Second-order expansion of log p_k around mu with a certified bound.

    Returns ``(value, bound)`` where value = log mu + d/mu - d^2/(2 mu^2)
    and |log p_k - value| <= bound = |d|^3 / (3 (1-rho)^3 mu^3), valid for
    p_k inside the band [(1-rho) mu, (1+rho) mu] with rho < 1.
    """
    if not mu > 0.0:
        raise DomainError(f"mu must be positive, got {mu!r}")
    if not 0.0 <= rho < 1.0:
        raise AssumptionViolation(f"rho={rho!r} outside [0, 1)")
    d = p_k - mu
    # A point exactly on the band edge is legal (rho is usually computed
    # as max|d|/mu, which lands there); allow a few ulp of slack so the
    # float product rho*mu does not spuriously reject it.
    if abs(d) > rho * mu * (1.0 + 1e-12):
        raise AssumptionViolation(
            f"p_k={p_k!r} outside the band [{(1 - rho) * mu!r}, {(1 + rho) * mu!r}]"
        )
    t = d / mu
    value = math.log(mu) + t - 0.5 * t * t
    bound = abs(d) ** 3 / (3.0 * (1.0 - rho) ** 3 * mu**3)
    return value, bound


# ---------------------------------------------------------------------------
# grouping objective and the exhaustive search


def _phi_array(phi) -> np.ndarray:
    arr = np.asarray(phi, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != 2:
        raise DomainError(f"phi must be (2, N), got {arr.shape}")
    return arr


def trace_objective(phi, selection, normalized: bool = True) -> float:
    """Grouping objective of a bipartition given as cluster ids in {0, 1}.

    Unnormalized: sum_c ||sum_{n in c} h_n||^2, i.e. Tr(S^T Phi^T Phi S).
    Normalized divides each cluster's term by its size (the projection
    form Tr(Phi^T P Phi)); it requires both clusters to be non-empty.
    """
    arr = _phi_array(phi)
    a = np.asarray(selection)
    if a.shape != (arr.shape[1],):
        raise DomainError(f"assignment shape {a.shape} does not match N={arr.shape[1]}")
    if a.size and not np.isin(a, (0, 1)).all():
        raise DomainError("assignment entries must be 0 or 1")
    total = 0.0
    for c in (0, 1):
        cols = arr[:, a == c]
        n_c = cols.shape[1]
        if n_c == 0:
            if normalized:
                raise DomainError(f"cluster {c} is empty; normalized objective undefined")
            continue
        s = cols.sum(axis=1)
        term = float(s @ s)
        total += term / n_c if normalized else term
    return total


def enumerate_bipartitions(n: int) -> np.ndarray:
    """All non-trivial bipartitions of n samples with sample 0 in cluster 0.

    Returns a (2^(n-1) - 1, n) int8 matrix in lexicographic order of the
    assignment vector.  Complementary assignments have equal objectives,
    so pinning sample 0 halves the enumeration without losing any value;
    it also makes the first maximizer the lexicographically smallest one.
    """
    if not 2 <= n <= BRUTE_FORCE_LIMIT:
        raise DomainError(f"exhaustive enumeration supports 2 <= N <= {BRUTE_FORCE_LIMIT}")
    codes = np.arange(1, 1 << (n - 1), dtype=np.int64)
    shifts = np.arange(n - 2, -1, -1, dtype=np.int64)
    bits = ((codes[:, None] >> shifts[None, :]) & 1).astype(np.int8)
    return np.hstack([np.zeros((codes.size, 1), dtype=np.int8), bits])


def brute_force_partition(phi) -> np.ndarray:
    """Exhaustive maximizer of the normalized objective (N <= 20).

    Returns the int64 assignment vector of cluster ids in {0, 1}; ties
    resolve to the lexicographically smallest one.
    """
    arr = _phi_array(phi)
    n = arr.shape[1]
    parts = enumerate_bipartitions(n)
    ones = parts.astype(np.float64)
    sums1 = ones @ arr.T  # (M, 2) cluster-1 sums
    total = arr.sum(axis=1)
    sums0 = total[None, :] - sums1
    n1 = ones.sum(axis=1)
    n0 = n - n1
    obj = (sums0 * sums0).sum(axis=1) / n0 + (sums1 * sums1).sum(axis=1) / n1
    best = int(np.argmax(obj))
    return parts[best].astype(np.int64)


# ---------------------------------------------------------------------------
# report sections


class Rows(list):
    """A report section as :func:`report_rows` gives it."""


def report_rows(columns: dict, nullable=()) -> Rows:
    """One dict per row with one key per column, in column order; the
    non-finite values of a ``nullable`` column become None.  Takes the
    arguments of :class:`covar.io.Columns`."""
    values = []
    for name, column in columns.items():
        column = column.tolist() if isinstance(column, np.ndarray) else list(column)
        if name in nullable:
            column = [x if math.isfinite(x) else None for x in map(float, column)]
        values.append(column)
    return Rows(dict(zip(columns, row)) for row in zip(*values))


def report_text(doc: dict) -> str:
    """A report's text: compact JSON with keys in insertion order, each
    float in a :class:`Rows` section as ``format_float`` writes it and
    every other value, numpy scalars as Python ones, as ``json.dumps``
    writes it."""

    def text(obj, float_text) -> str:
        if isinstance(obj, dict):
            return "{" + ",".join(f"{json.dumps(k)}:{text(v, float_text)}" for k, v in obj.items()) + "}"
        if isinstance(obj, (list, tuple)):
            inner = format_float if isinstance(obj, Rows) else float_text
            return "[" + ",".join(text(v, inner) for v in obj) + "]"
        obj = obj.item() if isinstance(obj, np.generic) else obj
        return float_text(obj) if isinstance(obj, float) else json.dumps(obj)

    return text(doc, json.dumps) + "\n"


def report_values(text: str):
    """A report's document with each float as its ``float.hex``, so that
    values compare bit for bit (-0.0 is not 0.0)."""
    return json.loads(text, parse_float=lambda s: float(s).hex())
