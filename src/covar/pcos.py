"""Threshold-free reliability partitioning of a batch in a 2-d embedding.

Each sample is embedded as a column of a 2 x N matrix Phi.  The "theory"
embedding is (log p(k'), -g v) with the adaptive dispersion penalty
g = (K-1)^2 / (2 (1 - p(k'))); the "raw" embedding is (p_max, v).  A
bipartition S maximizing the normalized grouping objective

    sum_c || sum_{n in c} h_n ||^2 / n_c

is approximated by the top-two right singular directions of Phi: sample n
joins the direction i with the larger normalized score |u_i(n)|, where
u_i = Phi^T w_i / sigma_i comes from the closed-form eigendecomposition
of the 2 x 2 matrix Phi Phi^T.  By the Ky Fan inequality the objective of
any bipartition is at most lambda_1 + lambda_2.

The cluster whose statistics score best under mu_c[0] - lambda sigma_c[1]
(lambda = 0.25) is declared reliable, and every sample is weighted by a
separable Gaussian centred on that cluster's statistics; samples beating
the reliable mean in both coordinates keep weight 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decomposition import EpsilonPolicy, g_coefficient
from .errors import DomainError
from .stats import ProbabilityBatch, compute_stats  # noqa: F401  (perfbench wraps compute_stats)

__all__ = [
    "DEFAULT_LAMBDA",
    "EmbeddingMatrix",
    "SpectralAssignment",
    "ClusterStats",
    "ReliabilityWeights",
    "embed",
    "spectral_assign",
    "cluster_statistics",
    "select_reliable_cluster",
    "gaussian_weights",
    "pcos",
]

DEFAULT_LAMBDA = 0.25
_RANK_TOL = 1e-14


@dataclass(frozen=True)
class EmbeddingMatrix:
    """2 x N sample embedding plus the kind that produced it."""

    phi: np.ndarray
    kind: str  # "theory" | "raw"

    def __post_init__(self) -> None:
        if self.kind not in ("theory", "raw"):
            raise DomainError(f"unknown embedding kind {self.kind!r}")
        if self.phi.ndim != 2 or self.phi.shape[0] != 2:
            raise DomainError(f"phi must be (2, N), got {self.phi.shape}")


@dataclass(frozen=True)
class SpectralAssignment:
    """Result of the closed-form two-direction spectral split."""

    assignment: np.ndarray
    rank_deficient: bool
    isotropic: bool
    singular_values: np.ndarray = field(repr=False)
    left_vectors: np.ndarray = field(repr=False)  # rows w1, w2
    scores: np.ndarray = field(repr=False)  # (2, N) normalized scores u_i(n)


@dataclass(frozen=True)
class ClusterStats:
    """Per-cluster per-dimension mean and population std (nan if empty)."""

    mean: np.ndarray  # (2 clusters, 2 dims)
    std: np.ndarray
    size: np.ndarray  # (2,) int


@dataclass(frozen=True)
class ReliabilityWeights:
    """Final PCOS output: weights in [0, 1] plus the supporting structure."""

    weights: np.ndarray
    reliable_cluster: int
    preserved_mask: np.ndarray
    assignment: np.ndarray
    cluster_stats: ClusterStats
    rank_deficient: bool


# ---------------------------------------------------------------------------
# embedding


def embed(batch_stats: ProbabilityBatch, kind: str = "theory") -> EmbeddingMatrix:
    """Stack per-sample statistics into the 2 x N embedding matrix.

    theory: row 0 = log p(k') (confidence reward, <= 0),
            row 1 = -(K-1)^2 / (2 (1 - p(k'))) * v (dispersion penalty, <= 0).
    raw:    row 0 = p_max, row 1 = v.

    Degenerate rows enter through the clamped confidence, so every entry
    is finite.  Needs at least two samples (a bipartition of one point is
    meaningless).
    """
    n = len(batch_stats)
    if n < 2:
        raise DomainError(f"need at least 2 samples to partition, got {n}")
    if kind == "theory":
        conf = batch_stats.safe_conf
        g = g_coefficient(conf, batch_stats.n_classes, EpsilonPolicy.adaptive())
        phi = np.vstack([np.log(conf), -g * batch_stats.rcv])
    else:  # EmbeddingMatrix rejects a kind other than "raw"
        phi = np.vstack([batch_stats.max_conf, batch_stats.rcv])
    phi.setflags(write=False)
    return EmbeddingMatrix(phi=phi, kind=kind)


# ---------------------------------------------------------------------------
# spectral route


def _as_phi(phi) -> np.ndarray:
    # EmbeddingMatrix holds the shape rule; the kind is not read here
    if not isinstance(phi, EmbeddingMatrix):
        phi = EmbeddingMatrix(np.asarray(phi, dtype=np.float64), "raw")
    return phi.phi


def _eig2_sym(a: float, b: float, c: float):
    """Eigendecomposition of [[a, b], [b, c]], eigenvalues descending.

    Returns (lam1, lam2, w1, w2, isotropic).  An off-diagonal whose square
    is not a normal double (|b| < 2^-511) is negligible: at a + c >= 0.25 a
    rotation that small is below 1e-137, and at a = c the eigenvalues tie
    to float precision.  So the axes are the eigenvectors, ordered
    lexicographically on a tie, which sets the isotropy flag.
    """
    if abs(b) < 2.0**-511:
        if a == c:
            return a, c, np.array([0.0, 1.0]), np.array([1.0, 0.0]), True
        if a > c:
            return a, c, np.array([1.0, 0.0]), np.array([0.0, 1.0]), False
        return c, a, np.array([0.0, 1.0]), np.array([1.0, 0.0]), False
    half_tr = 0.5 * (a + c)
    half_gap = 0.5 * math.hypot(a - c, 2.0 * b)
    lam1 = half_tr + half_gap
    lam2 = half_tr - half_gap
    # Two algebraically equivalent eigenvector formulas; pick the better
    # conditioned one.
    cand1 = np.array([b, lam1 - a])
    cand2 = np.array([lam1 - c, b])
    w1 = cand1 if cand1 @ cand1 >= cand2 @ cand2 else cand2
    w1 = w1 / math.sqrt(w1 @ w1)
    w2 = np.array([-w1[1], w1[0]])
    for w in (w1, w2):
        if w[0] < 0.0 or (w[0] == 0.0 and w[1] < 0.0):
            np.negative(w, out=w)
    return lam1, max(lam2, 0.0), w1, w2, False


def spectral_assign(phi) -> SpectralAssignment:
    """Assign each sample to its dominant normalized singular direction.

    The top-two right singular vectors u_i of Phi are obtained in closed
    form from the 2 x 2 matrix Phi Phi^T as u_i = Phi^T w_i / sigma_i;
    sample n goes to argmax_i |u_i(n)| with ties to cluster 0.  A
    rank-deficient Phi (sigma_2 = 0) yields the single cluster 0 and sets
    the flag.  Scale and singular-vector sign changes cannot move any
    sample across clusters (a singular value past float64 reads inf).  It
    fails only on bad input: a wrong shape, N < 2, non-finite or all zero.
    """
    arr = _as_phi(phi)
    if arr.shape[1] < 2:
        raise DomainError("need at least 2 samples")
    if not np.all(np.isfinite(arr)):
        raise DomainError("phi contains non-finite entries")
    # The gram squares the entries, so bring max|phi| into [0.5, 1) first
    # to keep it clear of overflow and underflow.  Scaling by a power of
    # two is exact, so the assignment and scores do not depend on scale.
    e = math.frexp(float(np.abs(arr).max()))[1]
    arr = np.ldexp(arr, -e)
    a = float(arr[0] @ arr[0])
    b = float(arr[0] @ arr[1])
    c = float(arr[1] @ arr[1])
    trace = a + c
    if trace == 0.0:
        raise DomainError("all-zero embedding has no principal directions")
    lam1, lam2, w1, w2, isotropic = _eig2_sym(a, b, c)
    sigma = np.sqrt([lam1, lam2])  # _eig2_sym gives eigenvalues >= 0
    n = arr.shape[1]
    scores = np.zeros((2, n))
    scores[0] = (w1 @ arr) / sigma[0]
    rank_deficient = lam2 <= trace * _RANK_TOL
    if rank_deficient:
        assignment = np.zeros(n, dtype=np.int64)
    else:
        scores[1] = (w2 @ arr) / sigma[1]
        assignment = (np.abs(scores[1]) > np.abs(scores[0])).astype(np.int64)
    scores.setflags(write=False)
    assignment.setflags(write=False)
    with np.errstate(over="ignore"):
        singular_values = np.ldexp(sigma, e)
    return SpectralAssignment(
        assignment=assignment,
        rank_deficient=rank_deficient,
        isotropic=isotropic,
        singular_values=singular_values,
        left_vectors=np.vstack([w1, w2]),
        scores=scores,
    )


# ---------------------------------------------------------------------------
# cluster scoring and weights


def cluster_statistics(phi, selection) -> ClusterStats:
    """Per-cluster mean and population std along each embedding dimension.

    Singleton clusters get std 0; empty clusters get size 0 and nan
    statistics (callers on the rank-deficient path never read them).
    """
    arr = _as_phi(phi)
    a = np.asarray(selection)
    if a.shape != arr.shape[1:]:
        raise DomainError(f"selection must be ({arr.shape[1]},), got {a.shape}")
    mean = np.full((2, 2), np.nan)
    std = np.full((2, 2), np.nan)
    size = np.zeros(2, dtype=np.int64)
    for c in (0, 1):
        cols = arr[:, a == c]
        size[c] = cols.shape[1]
        if size[c] > 0:
            mean[c] = cols.mean(axis=1)
            std[c] = cols.std(axis=1)  # ddof=0
    return ClusterStats(mean=mean, std=std, size=size)


def select_reliable_cluster(stats: ClusterStats, lam: float = DEFAULT_LAMBDA) -> int:
    """Pick the cluster maximizing mu_c[0] - lam * sigma_c[1] (ties -> 0)."""
    if (stats.size == 0).any():
        raise DomainError("both clusters must be non-empty to score reliability")
    scores = stats.mean[:, 0] - lam * stats.std[:, 1]
    return 0 if scores[0] >= scores[1] else 1


def gaussian_weights(
    phi: EmbeddingMatrix,
    mean: np.ndarray,
    std: np.ndarray,
    *,
    alg1_exponent: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Separable Gaussian reliability weights around the reliable cluster.

    Default factor per dimension: exp(-(h - mu)^2 / (2 sigma^2)); with
    ``alg1_exponent`` the spread doubles to exp(-(h - mu)^2 / (4 sigma^2)).
    A dimension with sigma = 0 degenerates to an exact-match indicator.
    Samples strictly better than the mean in both dimensions (higher
    confidence coordinate, and for the theory embedding a higher = less
    negative penalty coordinate, for the raw embedding a lower variance)
    are preserved at weight 1.  Returns (weights, preserved_mask).
    """
    arr = phi.phi
    d = arr - np.asarray(mean, dtype=np.float64)[:, None]
    weights = np.ones(arr.shape[1])
    with np.errstate(over="ignore", under="ignore"):
        for dim in (0, 1):
            s = float(std[dim])
            if s > 0.0:
                z = d[dim] / s
                expo = z * z * (0.25 if alg1_exponent else 0.5)
                weights = weights * np.exp(-expo)
            else:
                weights = weights * (d[dim] == 0.0)
    if phi.kind == "theory":
        preserved = (d[0] > 0.0) & (d[1] > 0.0)
    else:
        preserved = (d[0] > 0.0) & (d[1] < 0.0)
    weights = np.where(preserved, 1.0, weights)
    weights.setflags(write=False)
    preserved.setflags(write=False)
    return weights, preserved


def pcos(
    batch: ProbabilityBatch,
    kind: str = "theory",
    lam: float = DEFAULT_LAMBDA,
    *,
    alg1_exponent: bool = False,
) -> ReliabilityWeights:
    """End-to-end pipeline: embed -> split -> score -> weights."""
    if not math.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam!r}")
    em = embed(batch, kind)
    split = spectral_assign(em)
    cs = cluster_statistics(em, split.assignment)
    if split.rank_deficient:
        reliable = 0
    else:
        reliable = select_reliable_cluster(cs, lam)
    weights, preserved = gaussian_weights(
        em, cs.mean[reliable], cs.std[reliable], alg1_exponent=alg1_exponent
    )
    return ReliabilityWeights(
        weights=weights,
        reliable_cluster=reliable,
        preserved_mask=preserved,
        assignment=split.assignment,
        cluster_stats=cs,
        rank_deficient=split.rank_deficient,
    )
