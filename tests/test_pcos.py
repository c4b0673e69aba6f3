"""Embedding, trace objective, spectral bipartition and reliability weights."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import batch_of
from covar.errors import DomainError
from covar.pcos import (
    DEFAULT_LAMBDA,
    ClusterStats,
    EmbeddingMatrix,
    _eig2_sym,
    cluster_statistics,
    embed,
    gaussian_weights,
    pcos,
    select_reliable_cluster,
    spectral_assign,
)
from covar.stats import ProbabilityBatch
from oracles import brute_force_partition, enumerate_bipartitions, trace_objective

E1E1E2 = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
UNIT_PHI = np.random.default_rng(3).normal(size=(2, 17))


def phi_strategy(max_n=12):
    return hnp.arrays(
        np.float64,
        st.tuples(st.just(2), st.integers(2, max_n)),
        elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False),
    )


# --- embedding ---------------------------------------------------------------


def test_embed_theory_reference_column():
    s = batch_of([[0.7, 0.2, 0.1]] * 2)
    em = embed(s, kind="theory")
    np.testing.assert_allclose(
        em.phi[:, 0], [math.log(0.7), -20.0 / 3.0 * 0.0025], rtol=1e-12
    )
    assert em.kind == "theory"


def test_embed_raw_reference_column():
    s = batch_of([[0.7, 0.2, 0.1]] * 2)
    em = embed(s, kind="raw")
    np.testing.assert_allclose(em.phi[:, 0], [0.7, 0.0025], rtol=1e-12)


def test_embed_needs_two_samples_and_known_kind():
    s = batch_of([0.7, 0.2, 0.1])
    with pytest.raises(DomainError):
        embed(s, kind="theory")
    with pytest.raises(DomainError):
        embed(batch_of([[0.7, 0.2, 0.1]] * 2), kind="zscore")


def test_embed_handles_one_hot_rows():
    rows = np.array([[1.0, 0.0, 0.0], [0.6, 0.25, 0.15]])
    em = embed(ProbabilityBatch.from_array(rows))
    assert np.all(np.isfinite(em.phi))


# --- objective and exhaustive search ----------------------------------------


def test_trace_objective_hand_values():
    # {h1, h2} + {h3} with h1 = h2 = e1, h3 = e2:
    # normalized |e1+e1|^2/2 + |e2|^2/1 = 3; unnormalized 4 + 1 = 5.
    assert trace_objective(E1E1E2, [0, 0, 1]) == pytest.approx(3.0)
    assert trace_objective(E1E1E2, [0, 0, 1], normalized=False) == pytest.approx(5.0)
    assert trace_objective(E1E1E2, [0, 1, 0]) == pytest.approx(
        1.0 + (E1E1E2[:, [1]].sum(axis=1) ** 2).sum()
    )


def test_trace_objective_validation():
    with pytest.raises(DomainError):
        trace_objective(E1E1E2, [0, 0, 0])  # empty cluster, normalized
    assert trace_objective(E1E1E2, [0, 0, 0], normalized=False) == pytest.approx(5.0)
    with pytest.raises(DomainError):
        trace_objective(E1E1E2, [0, 2, 1])
    with pytest.raises(DomainError):
        trace_objective(E1E1E2, [0, 1])


def test_enumerate_bipartitions_small():
    np.testing.assert_array_equal(
        enumerate_bipartitions(3), [[0, 0, 1], [0, 1, 0], [0, 1, 1]]
    )
    np.testing.assert_array_equal(enumerate_bipartitions(2), [[0, 1]])
    assert enumerate_bipartitions(10).shape == (2**9 - 1, 10)
    with pytest.raises(DomainError):
        enumerate_bipartitions(21)
    with pytest.raises(DomainError):
        enumerate_bipartitions(1)


def test_brute_force_reference_and_tie_break():
    np.testing.assert_array_equal(brute_force_partition(E1E1E2), [0, 0, 1])
    # four unit vectors at right angles: the two axis-pairings tie at 2.0
    # and the lexicographically smaller assignment wins
    square = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
    sel = brute_force_partition(square)
    np.testing.assert_array_equal(sel, [0, 0, 1, 1])
    assert trace_objective(square, sel) == pytest.approx(2.0)


@given(phi_strategy(max_n=8))
@settings(max_examples=80)
def test_ky_fan_bound_and_brute_force_dominance(phi):
    gram = phi @ phi.T
    lam_sum = float(np.linalg.eigvalsh(gram).sum())  # lam1 + lam2 = trace
    parts = enumerate_bipartitions(phi.shape[1])
    objs = [trace_objective(phi, p) for p in parts]
    assert max(objs) <= lam_sum * (1 + 1e-9) + 1e-9
    best = brute_force_partition(phi)
    assert trace_objective(phi, best) == pytest.approx(max(objs), rel=1e-12)


# --- spectral route ----------------------------------------------------------


def test_spectral_reference_instance():
    sp = spectral_assign(E1E1E2)
    np.testing.assert_array_equal(sp.assignment, [0, 0, 1])
    np.testing.assert_allclose(sp.singular_values, [math.sqrt(2.0), 1.0], rtol=1e-12)
    assert not sp.rank_deficient and not sp.isotropic


def test_spectral_matches_brute_force_here():
    np.testing.assert_array_equal(
        spectral_assign(E1E1E2).assignment,
        brute_force_partition(E1E1E2),
    )


def test_spectral_isotropic_tie():
    square = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
    sp = spectral_assign(square)
    assert sp.isotropic
    # tie ordering: w1 = e2, w2 = e1 (ascending lexicographic)
    np.testing.assert_array_equal(sp.left_vectors, [[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(sp.assignment, [1, 0, 1, 0])
    # an off-diagonal whose square is not a normal double after scaling is
    # negligible: the split is that of the exactly isotropic phi, also where
    # the square is subnormal rather than 0 (1e-80 and 3e-78)
    for tiny in (1e-100, 1e-80, 3e-78):
        sp = spectral_assign(np.array([[1.0, 0.0, tiny], [0.0, 1.0, tiny]]))
        assert sp.isotropic and not sp.rank_deficient, tiny
        np.testing.assert_array_equal(sp.left_vectors, [[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(sp.assignment, [1, 0, 0])


def test_eig2_sym_vectors_are_unit_length_at_a_tie():
    # at a == c, an off-diagonal near 2^-511 (b^2 near the smallest normal)
    # must still give unit eigenvectors, on either side of the cut
    for b in np.concatenate([np.logspace(-165, -150, 4001), -np.logspace(-165, -150, 4001)]):
        _, _, w1, w2, _ = _eig2_sym(0.25, float(b), 0.25)
        for w in (w1, w2):
            assert abs(float(w @ w) - 1.0) <= 4 * math.ulp(1.0), (b, w)


def test_spectral_rank_deficient_collapses_to_one_cluster():
    phi = np.array([[1.0, 2.0, -3.0], [2.0, 4.0, -6.0]])  # rank 1
    sp = spectral_assign(phi)
    assert sp.rank_deficient
    np.testing.assert_array_equal(sp.assignment, [0, 0, 0])


def test_spectral_rejects_zero_and_nonfinite():
    with pytest.raises(DomainError):
        spectral_assign(np.zeros((2, 3)))
    with pytest.raises(DomainError):
        spectral_assign(np.array([[1.0, np.inf], [0.0, 1.0]]))
    with pytest.raises(DomainError, match=r"phi must be \(2, N\), got \(3, 2\)"):
        spectral_assign(np.ones((3, 2)))
    with pytest.raises(DomainError, match="need at least 2 samples"):
        spectral_assign(np.ones((2, 1)))
    with pytest.raises(DomainError, match=r"phi must be \(2, N\), got \(3, 2\)"):
        EmbeddingMatrix(np.zeros((3, 2)), "raw")


@given(phi_strategy(), st.integers(0, 11), st.floats(5e-324, 1e-100))
@example(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), 2, 1e-100)
@example(np.array([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0]]), 2, 5e-324)
@settings(max_examples=200)
def test_spectral_scores_are_finite_with_a_tiny_column(phi, col, tiny):
    # a tiny sample makes the gram's off-diagonal tiny where the rows are
    # otherwise orthogonal; the split must still give finite scores
    phi = phi.copy()
    phi[:, col % phi.shape[1]] = tiny
    sp = spectral_assign(phi)
    assert np.isfinite(sp.scores).all()
    assert set(sp.assignment.tolist()) <= {0, 1}


def test_spectral_scale_and_sign_invariance():
    phi = UNIT_PHI
    base = spectral_assign(phi)
    # the extreme scales would overflow or underflow an unscaled gram
    for c in (0.25, 4.0, 1024.0, 1e100, 1e-100, 1e160, 1e-170):
        sp = spectral_assign(c * phi)
        np.testing.assert_array_equal(sp.assignment, base.assignment)
        np.testing.assert_allclose(sp.singular_values, c * base.singular_values, rtol=1e-12)
    np.testing.assert_array_equal(spectral_assign(-phi).assignment, base.assignment)
    # powers of two up to one that puts max|phi| in [2**1023, 2**1024)
    # move no bit; a singular value past the float64 range reads inf
    top = 2.0 ** (1024 - math.frexp(np.abs(phi).max())[1])
    assert np.abs(top * phi).max() >= 2.0**1023
    for c in (2.0**1000, top):
        sp = spectral_assign(c * phi)
        np.testing.assert_array_equal(sp.assignment, base.assignment)
        np.testing.assert_array_equal(sp.scores, base.scores)
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(sp.singular_values, c * base.singular_values)
    # the largest finite entry beside small ones still splits
    sp = spectral_assign(np.array([[1.7976931348623157e308, -1e300, 3.0], [1.0, 5.0, -1.0]]))
    assert sp.rank_deficient and np.isfinite(sp.scores).all()


def _reference_spectral(phi):
    """Independent assignment via numpy's eigendecomposition of the gram."""
    gram = phi @ phi.T
    lam, vecs = np.linalg.eigh(gram)  # ascending
    w = vecs[:, ::-1].T  # rows: top then second direction
    sigma = np.sqrt(np.maximum(lam[::-1], 0.0))
    scores = (w @ phi) / sigma[:, None]
    return (np.abs(scores[1]) > np.abs(scores[0])).astype(int), lam[::-1]


@given(phi_strategy(max_n=40), st.integers(0, 2**31))
@example(np.array([[0.0, 1.312e-82], [1.312e-82, 1.312e-82]]), 0)
@example(UNIT_PHI * 1e100, 0)
@example(UNIT_PHI * 1e-100, 0)
@settings(max_examples=100)
def test_spectral_agrees_with_library_eigendecomposition(phi, seed):
    gram = phi @ phi.T
    trace = float(np.trace(gram))
    if trace == 0.0:
        return
    lam = np.linalg.eigvalsh(gram)
    if lam[0] <= trace * 1e-9:  # stay clear of the rank-deficiency tol
        return
    if lam[1] - lam[0] <= trace * 1e-9:
        # near-equal eigenvalues: any orthonormal pair spans the top
        # subspace, so the two routes may pick different (equally valid)
        # bases and cluster ids are arbitrary
        return
    sp = spectral_assign(phi)
    ref, _ = _reference_spectral(phi)
    margin = np.abs(np.abs(sp.scores[1]) - np.abs(sp.scores[0]))
    close = margin < 1e-9 * np.abs(sp.scores).max()
    np.testing.assert_array_equal(sp.assignment[~close], ref[~close])


# --- cluster scoring and weights ---------------------------------------------


def test_cluster_statistics_population_std():
    phi = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    cs = cluster_statistics(phi, [0, 0, 1])
    np.testing.assert_allclose(cs.mean[0], [1.5, 4.5])
    np.testing.assert_allclose(cs.std[0], [0.5, 0.5])  # ddof = 0
    np.testing.assert_allclose(cs.mean[1], [3.0, 6.0])
    np.testing.assert_allclose(cs.std[1], [0.0, 0.0])
    np.testing.assert_array_equal(cs.size, [2, 1])


def test_cluster_statistics_empty_cluster():
    cs = cluster_statistics(np.ones((2, 3)), [0, 0, 0])
    assert cs.size[1] == 0
    assert np.isnan(cs.mean[1]).all() and np.isnan(cs.std[1]).all()


def test_select_reliable_cluster_scoring():
    cs = ClusterStats(
        mean=np.array([[-0.1, -0.5], [-0.5, -0.1]]),
        std=np.array([[0.3, 0.2], [0.3, 0.1]]),
        size=np.array([2, 2]),
    )
    # scores: -0.1 - 0.25*0.2 = -0.15 vs -0.5 - 0.25*0.1 = -0.525
    assert select_reliable_cluster(cs) == 0
    # with a huge spread penalty the other side wins
    cs2 = ClusterStats(
        mean=np.array([[-0.1, -0.5], [-0.2, -0.1]]),
        std=np.array([[0.3, 2.0], [0.3, 0.0]]),
        size=np.array([2, 2]),
    )
    assert select_reliable_cluster(cs2) == 1
    assert select_reliable_cluster(cs2, lam=0.0) == 0  # lam gates the penalty


def test_select_reliable_cluster_tie_and_empty():
    tie = ClusterStats(
        mean=np.zeros((2, 2)), std=np.zeros((2, 2)), size=np.array([1, 1])
    )
    assert select_reliable_cluster(tie) == 0
    empty = ClusterStats(
        mean=np.zeros((2, 2)), std=np.zeros((2, 2)), size=np.array([2, 0])
    )
    with pytest.raises(DomainError):
        select_reliable_cluster(empty)


def test_gaussian_weights_reference_values():
    phi = EmbeddingMatrix(
        phi=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]), kind="theory"
    )
    mean = np.array([0.0, 0.0])
    std = np.array([1.0, 2.0])
    w, preserved = gaussian_weights(phi, mean, std)
    np.testing.assert_allclose(w, [1.0, math.exp(-0.5), math.exp(-0.5)], rtol=1e-12)
    w4, _ = gaussian_weights(phi, mean, std, alg1_exponent=True)
    np.testing.assert_allclose(w4, [1.0, math.exp(-0.25), math.exp(-0.25)], rtol=1e-12)
    assert not preserved.any()


def test_gaussian_weights_zero_sigma_indicator():
    phi = EmbeddingMatrix(
        phi=np.array([[0.5, 0.5, 0.4], [1.0, 2.0, 1.0]]), kind="theory"
    )
    w, _ = gaussian_weights(phi, np.array([0.5, 1.0]), np.array([0.0, 1.0]))
    assert w[0] == 1.0  # exact match on the zero-sigma dim
    assert w[1] == pytest.approx(math.exp(-0.5))
    assert w[2] == 0.0  # off the zero-sigma dim kills the weight


def test_gaussian_weights_preservation_by_kind():
    # better than the mean in both dims -> weight forced to 1
    theory = EmbeddingMatrix(
        phi=np.array([[0.5, -0.5], [0.1, -0.1]]), kind="theory"
    )
    w, p = gaussian_weights(theory, np.zeros(2), np.array([0.01, 0.01]))
    assert p.tolist() == [True, False] and w[0] == 1.0 and w[1] < 1e-10
    raw = EmbeddingMatrix(phi=np.array([[0.9, 0.5], [0.0, 0.4]]), kind="raw")
    w, p = gaussian_weights(raw, np.array([0.7, 0.2]), np.array([0.01, 0.01]))
    assert p.tolist() == [True, False] and w[0] == 1.0


def test_gaussian_weights_extreme_z_underflows_to_zero():
    phi = EmbeddingMatrix(phi=np.array([[1e9], [0.0]]), kind="theory")
    w, _ = gaussian_weights(phi, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    assert w[0] == 0.0  # no overflow warnings, just a hard zero


# --- end-to-end --------------------------------------------------------------


def _calm(p, k=6):
    row = np.full(k, (1 - p) / (k - 1))
    row[0] = p
    return row


def _spiky(p, frac, k=6):
    row = np.full(k, (1 - p) * (1 - frac) / (k - 2))
    row[1] = (1 - p) * frac
    row[0] = p
    return row


def test_pcos_isolates_high_dispersion_cluster():
    rows = np.array(
        [
            _calm(0.96), _calm(0.97), _calm(0.98), _calm(0.99),
            _spiky(0.955, 0.995), _spiky(0.97, 0.6), _spiky(0.96, 0.98),
        ]
    )
    batch = ProbabilityBatch.from_array(rows / rows.sum(axis=1, keepdims=True))
    out = pcos(batch)
    np.testing.assert_array_equal(out.assignment, [1, 1, 1, 1, 0, 1, 0])
    assert out.reliable_cluster == 1
    assert np.all((out.weights >= 0.0) & (out.weights <= 1.0))
    # the two heavy spikes are annihilated, the best calm rows survive
    assert out.weights[4] < 1e-20 and out.weights[6] < 1e-20
    np.testing.assert_array_equal(np.flatnonzero(out.weights >= 0.5), [1, 2, 3])
    assert out.weights[1] == pytest.approx(0.818402, abs=1e-5)
    assert out.weights[0] == pytest.approx(0.340832, abs=1e-5)


def test_pcos_internal_consistency():
    rng = np.random.default_rng(11)
    rows = rng.dirichlet(np.full(5, 0.7), size=30)
    batch = ProbabilityBatch.from_array(rows)
    out = pcos(batch)
    em = embed(batch)
    sp = spectral_assign(em)
    np.testing.assert_array_equal(out.assignment, sp.assignment)
    cs = cluster_statistics(em, sp.assignment)
    w, preserved = gaussian_weights(
        em, cs.mean[out.reliable_cluster], cs.std[out.reliable_cluster]
    )
    np.testing.assert_array_equal(out.weights, w)
    np.testing.assert_array_equal(out.preserved_mask, preserved)
    assert np.all((out.weights >= 0.0) & (out.weights <= 1.0))


def test_pcos_rank_deficient_batch():
    # identical rows embed to identical columns: rank-1 gram
    rows = np.tile([0.6, 0.25, 0.15], (4, 1))
    out = pcos(ProbabilityBatch.from_array(rows))
    assert out.rank_deficient
    assert out.reliable_cluster == 0
    np.testing.assert_array_equal(out.assignment, [0, 0, 0, 0])
    np.testing.assert_allclose(out.weights, 1.0)  # all match the lone cluster


def test_pcos_raw_kind_runs():
    rng = np.random.default_rng(5)
    rows = rng.dirichlet(np.full(4, 1.2), size=12)
    out = pcos(ProbabilityBatch.from_array(rows), kind="raw")
    assert out.weights.shape == (12,)
    assert np.all((out.weights >= 0.0) & (out.weights <= 1.0))


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_pcos_rejects_non_finite_lambda(lam):
    rows = np.array([[0.7, 0.2, 0.1], [0.5, 0.3, 0.2], [0.9, 0.05, 0.05]])
    with pytest.raises(DomainError, match="lambda"):
        pcos(ProbabilityBatch.from_array(rows), lam=lam)
