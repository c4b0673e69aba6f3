"""Cross-entropy decomposition into confidence and residual-variance terms.

For a row p with argmax k', residual mean mu and RCV v, the cross-entropy
against the smoothed target q (eps mass on each non-max class) is

    CE = -(1 - (K-1) eps) log p(k') - eps sum_{k != k'} log p(k),

computed as the CE against uniform residuals of the same mass plus its
Jensen gap -eps sum_k log(p(k)/mu) >= 0 (part (i) of the theorem).

Expanding each residual log around mu to second order,

    log p(k) = log mu + d/mu - d^2 / (2 mu^2) + R2(k),   d = p(k) - mu,

and using sum_k d = 0 gives the working approximation

    CE ~ -log p(k') + (K-1) eps log(p(k')/mu) + g v,

with the dispersion penalty

    g = (K-1)^3 eps / (2 (1 - p(k'))^2)        (fixed eps)
      = (K-1)^2 / (2 (1 - p(k')))              (adaptive eps = mu).

The middle term above carries a positive sign; that is the form the
substitution actually produces and the only one whose error is covered by
the remainder certificate below.  A variant with the sign flipped and the
log(K-1) constant dropped circulates in derived write-ups; it is exposed
behind ``paper_literal=True`` for comparison but is not certified.

While every |d| <= rho * mu with rho < 1, the Lagrange form of R2 gives

    |CE - approx| <= C v^{3/2},
    C = (K-1)^{3/2} eps / (3 (1 - rho)^3 mu^3),

which under the adaptive policy eps = mu simplifies to
C = (K-1)^{3/2} / (3 (1 - rho)^3 mu^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .errors import DomainError, InfiniteCrossEntropyError
from .stats import (
    CONF_CEILING,
    ROW_SUM_ACCEPT,
    PredictionStats,
    ProbabilityBatch,
    RowColumns,
    _row_blocks,
)

__all__ = [
    "EpsilonPolicy",
    "CEDecomposition",
    "DecompositionColumns",
    "BatchDecomposition",
    "g_coefficient",
    "decompose_sample",
    "decompose_batch",
]


@dataclass(frozen=True)
class EpsilonPolicy:
    """How much target mass each residual class receives.

    ``value=None`` (:meth:`adaptive`) sets eps = mu per sample; a value
    (:meth:`fixed`) is used for the whole run and must be positive and
    stay below 1/(K-1).  The policy checks what holds for every K >= 2,
    0 < value < 1; :meth:`resolve` checks the bound for the batch's K.
    """

    value: float | None = None

    def __post_init__(self) -> None:
        if self.value is None:
            return
        if not self.value > 0.0:
            raise DomainError(f"a fixed epsilon must be > 0, got {self.value!r}")
        if not self.value < 1.0:
            raise DomainError(
                f"a fixed epsilon must be < 1, the bound 1/(K-1) at K = 2, got {self.value!r}"
            )

    @classmethod
    def adaptive(cls) -> "EpsilonPolicy":
        return cls()

    @classmethod
    def fixed(cls, value: float) -> "EpsilonPolicy":
        return cls(value)

    def resolve(self, residual_mean: float, n_classes: int) -> float:
        """The eps used for a sample with the given residual mean."""
        if self.value is None:
            return residual_mean
        eps = float(self.value)
        if eps >= 1.0 / (n_classes - 1):
            raise DomainError(
                f"fixed epsilon {eps!r} must stay below 1/(K-1) for K={n_classes}"
            )
        return eps


@dataclass(frozen=True)
class CEDecomposition:
    """Per-sample decomposition record.

    ``approx_ce`` always equals ``-f_term + g_coeff * rcv`` for whichever
    form (certified or paper-literal) was requested; ``middle_term`` is
    the certified (K-1) eps log(p(k')/mu) correction regardless.  The
    remainder certificate |remainder_actual| <= remainder_bound is only
    claimed while ``assumption_ok`` (rho < 1) and only for the certified
    form.
    """

    exact_ce: float
    f_term: float
    g_coeff: float
    middle_term: float
    approx_ce: float
    remainder_bound: float
    remainder_actual: float
    assumption_ok: bool
    epsilon: float


@dataclass(frozen=True, eq=False)
class DecompositionColumns(RowColumns[CEDecomposition]):
    """:class:`CEDecomposition` of a whole batch, one read-only (N,) array
    per field; also a sequence of per-row records built on demand, one
    chunk of rows at a time."""

    row_type: ClassVar[type] = CEDecomposition

    exact_ce: np.ndarray
    f_term: np.ndarray
    g_coeff: np.ndarray
    middle_term: np.ndarray
    approx_ce: np.ndarray
    remainder_bound: np.ndarray
    remainder_actual: np.ndarray
    assumption_ok: np.ndarray
    epsilon: np.ndarray


@dataclass(frozen=True)
class BatchDecomposition:
    """Batch-mean view: CE_B ~ -mc_bar + g_bar * v_bar + cov_gv.

    ``srcv`` is the separable product g_bar * v_bar; ``cov_gv`` is the
    population covariance of (g, v) over the batch, so the identity
    mean(g v) = srcv + cov_gv is algebraic.  ``lower_bound`` is the mean
    of -log p(k') + (K-1)^2/(2(1-p(k'))) v; under the adaptive policy
    batch_ce >= lower_bound - remainder_batch_bound.  ``samples`` holds the
    per-sample decompositions the means were taken over, in input order,
    as columns.
    """

    mc_bar: float
    g_bar: float
    v_bar: float
    srcv: float
    cov_gv: float
    batch_ce: float
    lower_bound: float
    remainder_batch_bound: float
    n_samples: int
    samples: DecompositionColumns = field(repr=False)


def g_coefficient(max_conf, n_classes: int, policy: EpsilonPolicy):
    """Dispersion-penalty coefficient g as a function of max confidence.

    Strictly increasing in max_conf under both policies.  ``max_conf`` is
    a float or an array of them; the result has the same shape.
    """
    k = n_classes
    if k < 2:
        raise DomainError(f"need at least 2 classes, got {k}")
    # A row is kept as-is while its sum is within ROW_SUM_ACCEPT of 1, so
    # its max entry can sit that far below 1/K (plus a few ulp of roundoff).
    floor = (1.0 / k) * (1.0 - ROW_SUM_ACCEPT - 1e-12)
    value = max_conf
    if isinstance(max_conf, np.ndarray):
        bad = ~((max_conf >= floor) & (max_conf <= CONF_CEILING))
        value = float(max_conf.flat[bad.argmax()]) if bad.any() else floor
    if not floor <= value <= CONF_CEILING:
        raise DomainError(f"max_conf {value!r} outside [1/K, {CONF_CEILING}] for K={k}")
    if policy.value is None:
        return (k - 1) ** 2 / (2.0 * (1.0 - max_conf))
    eps = policy.resolve((1.0 - max_conf) / (k - 1), k)
    return (k - 1) ** 3 * eps / (2.0 * (1.0 - max_conf) ** 2)


# log1p(t) - t + t^2/2 = t^3 sum_{j>=0} (-1)^j t^j / (j + 3).  Evaluated
# through log1p, the tail carries the rounding error of log1p(t), about
# ulp(t): a relative error of ~3 * 2^-52 / t^2, which is 3 * 2^-38 at
# |t| = _TAIL_CUT and swamps the tail entirely once |t| < 2^-26.  Below
# the cut the series is summed instead; its eight terms leave a
# truncation error under t^11/11, below half an ulp of t^3/3 there.
_TAIL_CUT = 2.0**-7
_SQ_CUT = 0.5 * _TAIL_CUT * _TAIL_CUT  # 2^-15, exact
_TAIL_COEFFS = tuple((-1) ** j / (j + 3) for j in range(8))


def _tail_series(t):
    """t^3 (1/3 - t/4 + ... - t^7/10) by Horner's rule; float or array."""
    acc = _TAIL_COEFFS[-1]
    for c in _TAIL_COEFFS[-2::-1]:
        acc = acc * t + c
    return t * t * t * acc


def _residual_sums(residuals, mu: float) -> tuple[float, float]:
    """fsum_k l_k and sum_k (l_k - t_k + t_k^2/2), with l_k = log(p(k)/mu).

    t_k = (p(k) - mu) / mu.  The first feeds the exact CE; -eps times the
    second is exact_ce - approx_ce at full relative precision, where the
    difference of two O(1) cross-entropies is roundoff.  Below |t| = 2^-7 a
    tail is its power series.  l_k is log1p(t), but the log of the raw
    ratio from t <= -0.5 on, since t saturates at exactly -1 once p(k) <
    ulp(mu).  Every residual must be positive.
    """
    ratios = []
    acc = 0.0
    for r in residuals:
        t = (r - mu) / mu
        log_ratio = math.log1p(t) if t > -0.5 else math.log(r / mu)
        ratios.append(log_ratio)
        acc += _tail_series(t) if abs(t) < _TAIL_CUT else log_ratio - t + 0.5 * t * t
    return math.fsum(ratios), acc


def _certificate(k: int, eps, rho, mu, v):
    """The remainder bound C v^{3/2} while rho < 1; floats or arrays."""
    return (k - 1) ** 1.5 * eps / (3.0 * (1.0 - rho) ** 3 * mu**3) * v**1.5


def _fields(log, k, p, mu, v, rho, eps, g, log_p, ratio_sum, remainder, bound, *, paper_literal):
    """The :class:`CEDecomposition` fields of one row, or of a batch as columns.

    ``log`` is ``math.log`` for Python floats or ``np.log`` for arrays, so
    each caller keeps its own bits.  ``ratio_sum`` is the row sum of the log
    ratios l_k = log(p(k)/mu), 0 for a degenerate row: the exact CE is the
    uniform-residual CE minus eps ratio_sum, its Jensen gap, and neither
    term is negative.  ``remainder`` and ``bound`` are the certified form's;
    the paper-literal form shifts the remainder by its distance from the
    certified approximation.
    """
    middle = (k - 1) * eps * log(p / mu)
    gv = g * v
    approx = -log_p + middle + gv
    if paper_literal:
        f = log_p + (k - 1) * eps * log(p / (1.0 - p))
        certified_approx, approx = approx, -f + gv
        remainder = remainder + (certified_approx - approx)
    else:
        f = log_p - middle
    return dict(
        exact_ce=-(1.0 - (k - 1) * eps) * log_p - eps * (ratio_sum + (k - 1) * log(mu)),
        f_term=f,
        g_coeff=g,
        middle_term=middle,
        approx_ce=approx,
        remainder_bound=bound,
        remainder_actual=remainder,
        assumption_ok=rho < 1.0,
        epsilon=eps,
    )


_ZERO_RESIDUAL = (
    "a residual class has probability exactly 0 while the "
    "smoothed target puts mass on every class"
)


def decompose_sample(
    stats: PredictionStats,
    policy: EpsilonPolicy,
    *,
    paper_literal: bool = False,
) -> CEDecomposition:
    """Decompose one sample's cross-entropy against its ideal target.

    This is the scalar reference for :func:`decompose_batch`, in plain
    Python floats.  Degenerate (near one-hot) rows are canonicalized to
    confidence 1 - 1e-6 with uniform residuals, which keeps every field
    finite.
    """
    k = stats.n_classes
    if stats.degenerate:
        p = stats.safe_conf
        mu = (1.0 - p) / (k - 1)
        residuals: Sequence[float] = ()
        v = 0.0
        rho = 0.0
    else:
        p = stats.max_conf
        mu = stats.residual_mean
        residuals = stats.residuals.tolist()
        v = stats.rcv
        rho = stats.rho

    eps = policy.resolve(mu, k)
    # safe_conf, since a row can sit above CONF_CEILING without being degenerate
    g = g_coefficient(stats.safe_conf, k, policy)

    # log(0 / mu) raises, so an exact-zero residual is named first.
    if not all(r > 0.0 for r in residuals):
        raise InfiniteCrossEntropyError(_ZERO_RESIDUAL)
    ratio_sum, tail_sum = _residual_sums(residuals, mu)

    # C only where rho < 1 and v > 0: a float division by zero raises here.
    if v == 0.0:
        bound = remainder = 0.0
    else:
        bound = _certificate(k, eps, rho, mu, v) if rho < 1.0 else math.inf
        remainder = -eps * tail_sum
    fields = _fields(
        math.log, k, p, mu, v, rho, eps, g, math.log(p), ratio_sum, remainder, bound,
        paper_literal=paper_literal,
    )
    return CEDecomposition(**fields)


def decompose_batch(
    batch_stats: ProbabilityBatch,
    policy: EpsilonPolicy,
    *,
    paper_literal: bool = False,
) -> BatchDecomposition:
    """Decompose every sample and aggregate the results into batch means.

    Computes what :func:`decompose_sample` computes for each row (degenerate
    rows clamped), as whole-batch numpy columns.  The (N, K-1) residual work
    runs over row blocks in a few reused buffers, with the deviations
    recomputed there from ``residuals``; every reduction runs along a row,
    so blocking changes no bit of any result.  All means use compensated
    (fsum) summation in input order, so results are deterministic for a
    given input.  The covariance is population normalized (1/N), which is
    what makes mean(g v) = g_bar v_bar + cov_gv exact.  A sample with
    infinite cross entropy raises :class:`InfiniteCrossEntropyError`
    naming its index.
    """
    n = len(batch_stats)
    if n == 0:
        raise DomainError("cannot decompose an empty batch")
    k = batch_stats.n_classes
    degenerate = batch_stats.degenerate
    safe_conf = batch_stats.safe_conf
    # Degenerate rows are canonicalized as in decompose_sample: confidence
    # 1 - 1e-6 with uniform residuals, so v = rho = 0.
    p = np.where(degenerate, safe_conf, batch_stats.max_conf)
    mu = np.where(degenerate, (1.0 - p) / (k - 1), batch_stats.residual_mean)
    v = np.where(degenerate, 0.0, batch_stats.rcv)
    rho = np.where(degenerate, 0.0, batch_stats.rho)
    eps = np.full(n, policy.resolve(mu, k))  # mu, or the checked fixed value
    g = g_coefficient(safe_conf, k, policy)

    # One pass over the (N, K-1) residual block, in row blocks: the row
    # sums of the log ratios l_k = log(p(k)/mu) for the exact CE's Jensen
    # gap, and of the remainder's tails l_k - t + t^2/2 with t = (p(k) -
    # mu) / mu.  A degenerate row takes a ratio sum of 0, and its v is 0.
    residuals = batch_stats.residuals
    ratio_sums = np.empty(n)
    tail_sums = np.empty(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows, (t, tails, sq, mask) in _row_blocks(n, k - 1, 4):
            r = residuals[rows]
            mu_col = mu[rows, None]
            np.subtract(r, mu_col, out=t)
            np.divide(t, mu_col, out=t)
            # log(r / mu) where t <= -0.5, since t saturates at -1 once
            # r < ulp(mu); log1p(t) above
            np.divide(r, mu_col, out=tails)
            np.log(tails, out=tails)
            np.log1p(t, out=sq)
            # The two are selected on the bits, tails ^= (sq ^ tails) & mask,
            # with mask all ones where t > -0.5: every element takes the same
            # full-array passes, about twice as fast as a masked copy
            # (np.putmask) with a data-dependent mask.
            bits, sq_bits, mask_bits = (a.view(np.uint64) for a in (tails, sq, mask))
            np.greater(t, -0.5, out=mask_bits)
            np.negative(mask_bits, out=mask_bits)  # 1 -> all ones
            sq_bits ^= bits
            sq_bits &= mask_bits
            bits ^= sq_bits
            tails.sum(axis=1, out=ratio_sums[rows])
            tails -= t
            np.multiply(t, 0.5, out=sq)
            sq *= t
            tails += sq
            # sq = t^2/2 rounded, and rounding is monotone: sq < 2^-15
            # exactly when |t| < 2^-7, so no |t| pass is needed
            small = np.flatnonzero(sq < _SQ_CUT)
            if small.size:
                np.put(tails, small, _tail_series(np.take(t, small)))
            tails.sum(axis=1, out=tail_sums[rows])
    # A residual of exactly 0, and only that, makes its row's ratio sum -inf.
    zero = (ratio_sums == -math.inf) & ~degenerate
    if zero.any():
        raise InfiniteCrossEntropyError(f"sample {int(zero.argmax())}: {_ZERO_RESIDUAL}")
    ratio_sums[degenerate] = 0.0

    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.log(p)
        # Only in-band rows reach pow: (1 - rho)^3 on a negative base takes
        # pow's slow path, and np.where discards those values anyway.
        band = rho < 1.0
        certified = np.where(band, _certificate(k, eps, np.where(band, rho, 0.0), mu, v), math.inf)
        bound = np.where(v == 0.0, 0.0, certified)
        remainder = np.where(v == 0.0, 0.0, -eps * tail_sums)
        fields = _fields(
            np.log, k, p, mu, v, rho, eps, g, log_p, ratio_sums, remainder, bound,
            paper_literal=paper_literal,
        )
    samples = DecompositionColumns(**fields)
    mc_bar = math.fsum(memoryview(samples.f_term)) / n
    g_bar = math.fsum(memoryview(g)) / n
    v_bar = math.fsum(memoryview(v)) / n
    cov = math.fsum(memoryview((g - g_bar) * (v - v_bar))) / n
    # The lower bound uses the adaptive g whatever the policy, and -log p
    # at the confidence the exact CE used; the clamp only enters 1 - p.
    g_adaptive = g if policy.value is None else g_coefficient(safe_conf, k, EpsilonPolicy.adaptive())
    lower = math.fsum(memoryview(-log_p + g_adaptive * v)) / n

    return BatchDecomposition(
        mc_bar=mc_bar,
        g_bar=g_bar,
        v_bar=v_bar,
        srcv=g_bar * v_bar,
        cov_gv=cov,
        batch_ce=math.fsum(memoryview(samples.exact_ce)) / n,
        lower_bound=lower,
        remainder_batch_bound=math.fsum(memoryview(bound)) / n,
        n_samples=n,
        samples=samples,
    )
