"""Cross-entropy decomposition: expansion, remainder certificate, batch view."""
from __future__ import annotations

import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import band_edge_rows, batch_of, confident_rows, simplex_rows
from covar import decomposition
from covar.decomposition import (
    CEDecomposition,
    EpsilonPolicy,
    decompose_batch,
    decompose_sample,
    g_coefficient,
)
from covar.errors import DomainError, InfiniteCrossEntropyError
from covar.stats import CONF_CEILING, ProbabilityBatch
from oracles import AssumptionViolation, IdealDistribution, exact_ce, taylor_log_expand

ADAPTIVE = EpsilonPolicy.adaptive()


def stats_of(row):
    return batch_of(row)[0]


# --- single-point expansion ------------------------------------------------


def test_taylor_reference_points():
    # log 0.2 around mu = 0.15 with rho = 1/3: t = 1/3,
    # value = log .15 + 1/3 - 1/18, bound = .05^3/(3 (2/3)^3 .15^3) = 1/24.
    val, bound = taylor_log_expand(0.2, 0.15, 1.0 / 3.0)
    assert val == pytest.approx(-1.6193422071081034, rel=1e-12)
    assert bound == pytest.approx(1.0 / 24.0, rel=1e-12)
    assert abs(math.log(0.2) - val) <= bound

    val, bound = taylor_log_expand(0.1, 0.15, 1.0 / 3.0)
    assert val == pytest.approx(-2.2860088737747697, rel=1e-12)
    assert abs(math.log(0.1) - val) <= bound


def test_taylor_band_edge_is_legal():
    # the extreme residual entry sits exactly on the band edge
    val, bound = taylor_log_expand(0.2, 0.15, 1.0 / 3.0)
    assert math.isfinite(val) and math.isfinite(bound)


def test_taylor_rejects_out_of_band_and_bad_args():
    with pytest.raises(AssumptionViolation):
        taylor_log_expand(0.31, 0.15, 1.0 / 3.0)
    with pytest.raises(AssumptionViolation):
        taylor_log_expand(0.1, 0.15, 1.0)  # rho must stay < 1
    with pytest.raises(DomainError):
        taylor_log_expand(0.1, 0.0, 0.5)


@given(st.floats(1e-4, 0.3), st.floats(0.0, 0.9), st.floats(-1.0, 1.0))
def test_taylor_bound_holds_inside_band(mu, rho, frac):
    p_k = mu * (1.0 + rho * frac)
    # the rounded p_k can land an ulp outside a tiny band; use the band it is in
    rho = max(rho, abs(p_k - mu) / mu)
    val, bound = taylor_log_expand(p_k, mu, rho)
    # slack for the roundoff of evaluating log mu + t - t^2/2 itself
    fp = 5e-14 * max(1.0, abs(val))
    assert abs(math.log(p_k) - val) <= bound * (1.0 + 1e-12) + fp


# --- epsilon policy and g coefficient --------------------------------------


def test_epsilon_policies_resolve():
    assert ADAPTIVE.resolve(0.15, 3) == 0.15
    assert EpsilonPolicy.fixed(0.12).resolve(0.15, 3) == 0.12
    with pytest.raises(DomainError):
        EpsilonPolicy.fixed(0.2).resolve(0.05, 11)  # 0.2 >= 1/10
    with pytest.raises(DomainError):
        EpsilonPolicy.fixed(-0.01).resolve(0.05, 3)
    # no value means adaptive; a fixed value must lie in (0, 1), which
    # 1/(K-1) bounds for every K >= 2
    assert EpsilonPolicy.adaptive() == EpsilonPolicy()
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="fixed epsilon must be > 0"):
            EpsilonPolicy.fixed(bad)
    for bad in (1.0, 2.5, math.inf):
        with pytest.raises(DomainError, match="fixed epsilon must be < 1"):
            EpsilonPolicy.fixed(bad)
    assert EpsilonPolicy.fixed(math.nextafter(1.0, 0.0)).resolve(0.25, 2) < 1.0


def test_g_coefficient_reference_values():
    # adaptive, p = 0.7, K = 3: (K-1)^2 / (2 * 0.3) = 20/3
    assert g_coefficient(0.7, 3, ADAPTIVE) == pytest.approx(20.0 / 3.0, rel=1e-12)
    # fixed eps = mu reproduces the adaptive value
    assert g_coefficient(0.7, 3, EpsilonPolicy.fixed(0.15)) == pytest.approx(
        20.0 / 3.0, rel=1e-10
    )
    with pytest.raises(DomainError):
        g_coefficient(0.2, 3, ADAPTIVE)  # below 1/K
    with pytest.raises(DomainError):
        g_coefficient(1.0, 3, ADAPTIVE)  # above the ceiling


@given(st.integers(3, 12), st.floats(0.0, 1.0, exclude_max=True))
def test_g_increases_with_confidence(k, x):
    lo = 1.0 / k + 1e-9
    hi = 1.0 - 1e-6
    p1 = lo + (hi - lo) * x * 0.999
    p2 = p1 + (hi - p1) * 1e-3
    assert g_coefficient(p2, k, ADAPTIVE) > g_coefficient(p1, k, ADAPTIVE)


# --- single-sample decomposition -------------------------------------------


def test_worked_example_adaptive():
    d = decompose_sample(stats_of([0.7, 0.2, 0.1]), ADAPTIVE)
    assert d.g_coeff == pytest.approx(6.66667, abs=1e-5)
    assert d.g_coeff * 0.0025 == pytest.approx(0.016667, abs=1e-6)
    assert d.middle_term == pytest.approx(0.46213, abs=1e-4)
    assert d.approx_ce == pytest.approx(0.83547, abs=1e-4)
    assert d.exact_ce == pytest.approx(0.83647, abs=1e-4)
    assert d.remainder_bound == pytest.approx(0.01768, abs=1e-4)
    assert abs(d.remainder_actual) == pytest.approx(0.00100, abs=2e-5)
    assert abs(d.remainder_actual) <= d.remainder_bound
    assert d.assumption_ok
    assert d.epsilon == pytest.approx(0.15, rel=1e-12)


def test_second_reference_row():
    # K = 5 row computed by hand from the definitions (see test_stats.ROW5)
    d = decompose_sample(stats_of([0.4, 0.2, 0.2, 0.1, 0.1]), ADAPTIVE)
    assert d.exact_ce == pytest.approx(1.5401231943781055, rel=1e-12)
    assert d.approx_ce == pytest.approx(1.5381216170145242, rel=1e-12)
    assert d.g_coeff == pytest.approx(40.0 / 3.0, rel=1e-12)
    assert d.middle_term == pytest.approx(0.5884975518070358, rel=1e-12)
    assert d.remainder_bound == pytest.approx(0.05, rel=1e-12)
    assert d.remainder_actual == pytest.approx(0.0020015773635813083, rel=1e-9)


def test_approx_equals_minus_f_plus_gv():
    s = stats_of([0.55, 0.22, 0.13, 0.1])
    for literal in (False, True):
        d = decompose_sample(s, ADAPTIVE, paper_literal=literal)
        assert d.approx_ce == pytest.approx(
            -d.f_term + d.g_coeff * s.rcv, rel=1e-13
        )


def test_paper_literal_variant_is_not_certified():
    """The sign-flipped f variant lands far outside the remainder bound."""
    d = decompose_sample(stats_of([0.7, 0.2, 0.1]), ADAPTIVE, paper_literal=True)
    assert d.f_term == pytest.approx(-0.10248558582257139, rel=1e-12)
    assert abs(d.remainder_actual) > 10 * d.remainder_bound
    # the certified middle term is reported unchanged for comparison
    assert d.middle_term == pytest.approx(0.46213351228414473, rel=1e-12)


def test_remainder_matches_naive_difference_when_well_conditioned():
    for row in ([0.7, 0.2, 0.1], [0.4, 0.2, 0.2, 0.1, 0.1], [0.5, 0.35, 0.15]):
        d = decompose_sample(stats_of(row), ADAPTIVE)
        assert d.remainder_actual == pytest.approx(
            d.exact_ce - d.approx_ce, abs=1e-12
        )


def test_remainder_series_is_stable_near_uniform():
    """Tiny deviations: the naive CE difference is pure roundoff, the
    series evaluation still carries the right leading term eps*sum(t^3)/3."""
    k = 4
    eps_dev = 1e-7
    row = np.full(k, 0.25)
    row[0] += 2 * eps_dev
    row[1] -= eps_dev  # break ties; deviations ~ 1e-7
    row[2] -= eps_dev
    s = stats_of(row / row.sum())
    d = decompose_sample(s, ADAPTIVE)
    lead = d.epsilon * sum((float(x) / s.residual_mean) ** 3 for x in s.deviations) / 3.0
    assert d.remainder_actual == pytest.approx(lead, rel=1e-3)
    assert abs(d.remainder_actual) <= d.remainder_bound


def test_sub_ulp_residuals_decompose_finitely():
    """Residual probabilities below ulp(mu) make the stored deviation
    collapse to exactly -mu; the exact CE and remainder must come from the
    raw values, not from mu + deviation (which reconstructs 0)."""
    row = np.array([5.9e-04, 2.1e-28, 4.5e-18, 3.5e-02, 2.6e-14, 0.0])
    row[-1] = 1.0 - row.sum()
    s = stats_of(row)
    assert (s.residuals > 0.0).all()
    assert (s.deviations.min() == -s.residual_mean)  # saturated deviation
    d = decompose_sample(s, ADAPTIVE)
    k, eps = 6, s.residual_mean
    want = -(1.0 - (k - 1) * eps) * math.log(s.max_conf) - eps * math.fsum(
        math.log(r) for r in s.residuals
    )
    assert d.exact_ce == pytest.approx(want, rel=1e-14)
    assert d.remainder_actual == pytest.approx(d.exact_ce - d.approx_ce, rel=1e-10)
    assert not d.assumption_ok and d.remainder_bound == math.inf


def test_exact_zero_residual_is_infinite_ce():
    s = stats_of([0.9, 0.1, 0.0])
    with pytest.raises(InfiniteCrossEntropyError):
        decompose_sample(s, ADAPTIVE)
    with pytest.raises(InfiniteCrossEntropyError):
        decompose_sample(s, EpsilonPolicy.fixed(0.01))


def test_one_hot_row_canonicalized():
    s = stats_of([1.0, 0.0, 0.0])
    d = decompose_sample(s, ADAPTIVE)
    assert math.isfinite(d.exact_ce) and math.isfinite(d.approx_ce)
    assert d.remainder_bound == 0.0
    assert d.remainder_actual == 0.0
    assert d.exact_ce == pytest.approx(d.approx_ce, rel=1e-12)


@given(confident_rows())
@settings(max_examples=120)
def test_remainder_certificate_property(row):
    s = stats_of(row)
    if s.degenerate or s.rho >= 0.9:
        return
    for policy in (ADAPTIVE, EpsilonPolicy.fixed(0.4 / (s.n_classes - 1))):
        d = decompose_sample(s, policy)
        assert d.assumption_ok
        # FP slack: the certificate is proven in real arithmetic
        assert abs(d.remainder_actual) <= d.remainder_bound * (1 + 1e-9) + 1e-15


def test_uniform_residual_rows_meet_certificate():
    """Rows like [0.8, 0.1, 0.1] have deviations of one rounding error, so
    v is ~1e-33 and the bound ~1e-48; the remainder must still stay below
    it, with no slack (log1p(t) - t + t^2/2 there is pure roundoff)."""
    perturbed = total = 0
    for k in range(3, 11):
        ps = [p for p in np.arange(0.35, 1.0, 0.05).round(2).tolist() + [0.99] if p > 1 / k]
        rows = np.array([[p] + [round((1 - p) / (k - 1), 12)] * (k - 1) for p in ps])
        stats = ProbabilityBatch.from_array(rows)
        perturbed += int((stats.rcv > 0.0).sum())
        total += len(stats)
        for policy in (ADAPTIVE, EpsilonPolicy.fixed(0.01)):
            batch = decompose_batch(stats, policy).samples
            for s, d_batch in zip(stats, batch):
                for d in (decompose_sample(s, policy), d_batch):
                    assert d.assumption_ok
                    assert abs(d.remainder_actual) <= d.remainder_bound
    assert perturbed >= total / 2  # most rows carry a roundoff variance


@given(simplex_rows(min_k=3, max_n=4))
def test_middle_term_nonnegative(rows):
    for s in ProbabilityBatch.from_array(rows):
        d = decompose_sample(s, ADAPTIVE)
        assert d.middle_term >= 0.0


# --- batch aggregation ------------------------------------------------------


def test_batch_hand_example():
    # rows chosen so g = (4, 8) and v = (0.01, 0.0025) exactly:
    # g_bar = 6, v_bar = 0.00625, srcv = 0.0375,
    # cov = mean(g v) - srcv = 0.03 - 0.0375 = -0.0075.
    rows = np.array([[0.5, 0.35, 0.15], [0.75, 0.175, 0.075]])
    bd = decompose_batch(ProbabilityBatch.from_array(rows), ADAPTIVE)
    assert bd.g_bar == pytest.approx(6.0, rel=1e-13)
    assert bd.v_bar == pytest.approx(0.00625, rel=1e-13)
    assert bd.srcv == pytest.approx(0.0375, rel=1e-13)
    assert bd.cov_gv == pytest.approx(-0.0075, rel=1e-12)
    assert bd.n_samples == 2


def test_batch_means_and_identity():
    rows = np.array(
        [[0.5, 0.35, 0.15], [0.75, 0.175, 0.075], [0.34, 0.33, 0.33]]
    )
    stats = ProbabilityBatch.from_array(rows)
    per = [decompose_sample(s, ADAPTIVE) for s in stats]
    bd = decompose_batch(stats, ADAPTIVE)
    n = len(per)
    assert bd.batch_ce == pytest.approx(sum(d.exact_ce for d in per) / n, rel=1e-13)
    assert bd.mc_bar == pytest.approx(sum(d.f_term for d in per) / n, rel=1e-13)
    # mean(g v) = srcv + cov_gv, and mean(approx) = -mc_bar + mean(g v)
    mean_gv = sum(d.g_coeff * s.rcv for d, s in zip(per, stats)) / n
    assert bd.srcv + bd.cov_gv == pytest.approx(mean_gv, rel=1e-12)
    mean_approx = sum(d.approx_ce for d in per) / n
    assert -bd.mc_bar + bd.srcv + bd.cov_gv == pytest.approx(mean_approx, rel=1e-12)


def test_batch_lower_bound_certificate():
    rng = np.random.default_rng(7)
    raw = rng.dirichlet(np.full(5, 0.8), size=64)
    stats = ProbabilityBatch.from_array(raw)
    bd = decompose_batch(stats, ADAPTIVE)
    assert bd.batch_ce >= bd.lower_bound - bd.remainder_batch_bound - 1e-12


def test_batch_accepts_degenerate_rows_and_rejects_empty():
    rows = np.array([[1.0, 0.0, 0.0], [0.5, 0.3, 0.2]])
    bd = decompose_batch(ProbabilityBatch.from_array(rows), ADAPTIVE)
    assert math.isfinite(bd.batch_ce)
    assert bd.v_bar == pytest.approx(
        ProbabilityBatch.from_array(rows)[1].rcv / 2, rel=1e-12
    )
    with pytest.raises(DomainError):
        decompose_batch([], ADAPTIVE)


def test_batch_names_sample_with_infinite_ce():
    rows = np.array([[0.5, 0.3, 0.2], [0.9, 0.1, 0.0]])
    with pytest.raises(InfiniteCrossEntropyError, match="sample 1"):
        decompose_batch(ProbabilityBatch.from_array(rows), ADAPTIVE)


# --- vectorized kernel against the scalar reference ------------------------

_SUB_ULP = np.array([5.9e-04, 2.1e-28, 4.5e-18, 3.5e-02, 2.6e-14, 0.0])
_SUB_ULP[-1] = 1.0 - _SUB_ULP.sum()
EDGE_BATCHES = [
    np.array(
        [
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # one-hot: degenerate, clamped
            [1.0 - 1e-8] + [2e-9] * 5,  # near one-hot, not degenerate
            _SUB_ULP,  # residuals below ulp(mu), rho >= 1
            [0.5, 0.45, 0.01, 0.01, 0.02, 0.01],  # rho >= 1
            [0.3, 0.14, 0.14, 0.14, 0.14, 0.14],  # uniform residuals
        ]
    ),
    np.full((1, 5), 0.2 * (1 - 5e-10)),  # near uniform, max below 1/K
    np.array([[0.9, 0.1], [0.75, 0.25], [0.5, 0.5]]),  # K = 2
    np.array([[0.8, 0.1, 0.1], [0.7, 0.2, 0.1]]),
    np.array(band_edge_rows(5)),  # t = -0.5, |t| near 2^-7, rho near 1
]
FIELDS = [f.name for f in dataclasses.fields(CEDecomposition)]


def assert_kernel_matches_reference(rows, policy, paper_literal):
    """Every per-row field within 8 ulp of decompose_sample.

    The ulp is taken of the sum of the magnitudes of the terms that make
    up the field, which is the field itself except for the paper-literal
    f and approx, whose terms can cancel.  The remainder may move by 1e-9
    of its bound, plus, in the paper-literal form, 8 ulp of the
    certified-minus-literal approx difference it carries.
    """
    stats = ProbabilityBatch.from_array(rows)
    cols = decompose_batch(stats, policy, paper_literal=paper_literal).samples
    for i, s in enumerate(stats):
        want = decompose_sample(s, policy, paper_literal=paper_literal)
        got = cols[i]
        assert got.assumption_ok == want.assumption_ok
        assert got.epsilon == want.epsilon
        log_p = math.log(s.safe_conf if s.degenerate else s.max_conf)
        f_scale = abs(log_p) + abs(want.f_term - log_p)
        gv = want.g_coeff * (0.0 if s.degenerate else s.rcv)
        scales = {
            "exact_ce": abs(want.exact_ce),
            "f_term": f_scale,
            "g_coeff": abs(want.g_coeff),
            "middle_term": abs(want.middle_term),
            "approx_ce": f_scale + abs(gv),
            "remainder_bound": abs(want.remainder_bound),
        }
        for name, scale in scales.items():
            a, b = getattr(got, name), getattr(want, name)
            assert a == b or abs(a - b) <= 8 * math.ulp(scale), (i, name, a, b)
        if want.assumption_ok:
            diff = abs(got.remainder_actual - want.remainder_actual)
            tol = 1e-9 * want.remainder_bound
            if paper_literal:
                certified_scale = abs(log_p) + abs(want.middle_term) + abs(gv)
                tol += 8 * math.ulp(certified_scale + scales["approx_ce"])
            assert diff <= tol, (i, got, want)


POLICY_CASES = [
    (ADAPTIVE, False),
    (ADAPTIVE, True),
    (EpsilonPolicy.fixed(0.01), False),
    (EpsilonPolicy.fixed(0.01), True),
]


@given(simplex_rows())
@settings(max_examples=60)
def test_kernel_matches_reference_on_random_rows(rows):
    for policy, literal in POLICY_CASES:
        assert_kernel_matches_reference(rows, policy, literal)


@pytest.mark.parametrize(
    "rows", EDGE_BATCHES, ids=["k6-edges", "near-uniform", "k2", "k3", "k5-band-edges"]
)
@pytest.mark.parametrize("policy,literal", POLICY_CASES)
def test_kernel_matches_reference_on_edge_rows(rows, policy, literal):
    assert_kernel_matches_reference(rows, policy, literal)


@pytest.mark.parametrize("k", [5, 100, 1000])
def test_band_edge_rows_sit_on_the_branch_points(k):
    batch = ProbabilityBatch.from_array(np.array(band_edge_rows(k)))
    mu = batch.residual_mean[:, None]
    t = (batch.residuals - mu) / mu  # as the kernel rounds it
    cut = 2.0**-7
    assert t[:4, 0].tolist() == [-0.5, math.nextafter(cut, 0.0), cut, math.nextafter(cut, 1.0)]
    assert (t[:4, 1] == -t[:4, 0]).all()
    assert batch.rho[-3] < 1.0 == batch.rho[-2] < batch.rho[-1]


def test_small_t_test_reads_the_quadratic_term():
    # sq = (0.5 t) t rounded; rounding is monotone and 2^-15 is exact, so
    # sq < 2^-15 exactly when |t| < 2^-7, for every double t
    cut = decomposition._TAIL_CUT
    near = [math.nextafter(cut, 0.0), cut, math.nextafter(cut, 1.0)]
    special = [0.0, 5e-324, 1e-170, 1e200, math.inf, math.nan, 0.5, 1.0]
    t = np.array(near + special + np.random.default_rng(0).uniform(-0.02, 0.02, 1000).tolist())
    t = np.concatenate([t, -t])
    with np.errstate(over="ignore", under="ignore"):
        sq = np.multiply(t, 0.5) * t
    assert decomposition._SQ_CUT == 2.0**-15
    assert np.array_equal(sq < decomposition._SQ_CUT, np.abs(t) < cut)


def test_in_band_bound_is_the_certificate_of_the_unmodified_columns():
    # rows out of the band reach pow with rho = 0 in place of their own rho;
    # every in-band bound must keep the bits of the certificate evaluated
    # on the batch's own columns, with the negative bases 1 - rho present
    rng = np.random.default_rng(3)
    rows = np.concatenate([rng.dirichlet(np.full(8, a), 300) for a in (0.5, 40.0, 400.0)])
    batch = ProbabilityBatch.from_array(rng.permutation(rows))
    band = (batch.rho < 1.0) & (batch.rcv > 0.0) & ~batch.degenerate
    assert 100 < band.sum() < len(rows) - 100
    for policy in (ADAPTIVE, EpsilonPolicy.fixed(0.01)):
        cols = decompose_batch(batch, policy).samples
        with np.errstate(divide="ignore", invalid="ignore"):
            want = decomposition._certificate(8, cols.epsilon, batch.rho, batch.residual_mean, batch.rcv)
        assert cols.remainder_bound[band].tobytes() == want[band].tobytes()
        assert np.isinf(cols.remainder_bound[(batch.rho >= 1.0) & ~batch.degenerate]).all()


@given(simplex_rows())
@settings(max_examples=60)
def test_kernel_exact_ce_matches_oracle(rows):
    """The batch exact CE equals the per-row oracle against the same target.

    Degenerate rows (canonicalized by the kernel) and rows with a zero
    residual (infinite CE) are left out.  Tolerance: 8 ulp of the sum of
    the magnitudes of the CE's terms.
    """
    stats = ProbabilityBatch.from_array(rows)
    keep = ~stats.degenerate & (stats.residuals > 0.0).all(axis=1)
    if not keep.any():
        return
    batch = ProbabilityBatch.from_array(rows[keep])
    k = batch.n_classes
    for policy in (ADAPTIVE, EpsilonPolicy.fixed(0.01)):
        cols = decompose_batch(batch, policy).samples
        for i, row in enumerate(batch.values):
            eps = float(cols.epsilon[i])
            kp = int(batch.max_class[i])
            want = exact_ce(row, IdealDistribution(eps, kp, k))
            logs = np.abs(np.log(row))
            scale = (1.0 - (k - 1) * eps) * logs[kp] + eps * (logs.sum() - logs[kp])
            got = float(cols.exact_ce[i])
            assert abs(got - want) <= 8 * math.ulp(scale), (i, got, want)


def _rows_above_ceiling(k: int, n: int, seed: int) -> np.ndarray:
    """Rows with p(k') in [1 - 1e-6, 1 - 1e-12): above the confidence
    ceiling but not degenerate, so their residuals are kept as they are."""
    rng = np.random.default_rng(seed)
    rest = 10.0 ** -rng.uniform(6.0, 11.9, n)
    return np.column_stack([1.0 - rest, rest[:, None] * rng.dirichlet(np.full(k - 1, 1.0), n)])


def _exact_ce_decimal(p: float, residuals, eps: float) -> decimal.Decimal:
    """-(1 - (K-1) eps) ln p - eps sum_k ln r_k, to 40 digits, at these floats."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        d = decimal.Decimal
        logs = sum(d(r).ln() for r in residuals)
        return -(1 - len(residuals) * d(eps)) * d(p).ln() - d(eps) * logs


def test_exact_ce_is_within_4_ulp_of_a_40_digit_evaluation():
    # both paths take the exact CE as the uniform-residual CE plus its
    # Jensen gap, from the remainder's log ratios; rows with a zero
    # residual (infinite CE) and degenerate rows (canonicalized) are left out
    rng = np.random.default_rng(11)
    batches = list(EDGE_BATCHES) + [
        _rows_above_ceiling(3, 20, 1),
        _rows_above_ceiling(6, 20, 2),
        _rows_above_ceiling(40, 10, 3),
        rng.dirichlet(np.full(100, 0.3), 48),
        rng.dirichlet(np.full(300, 0.5), 12),
    ]
    checked = above_ceiling = 0
    for rows in batches:
        stats = ProbabilityBatch.from_array(rows)
        k = stats.n_classes
        keep = ~stats.degenerate & (stats.residuals > 0.0).all(axis=1)
        above_ceiling += int((keep & (stats.max_conf >= CONF_CEILING)).sum())
        for policy in (ADAPTIVE, EpsilonPolicy.fixed(min(0.01, 0.5 / (k - 1)))):
            cols = decompose_batch(stats, policy).samples
            for i in np.flatnonzero(keep).tolist():
                s = stats[i]
                want = _exact_ce_decimal(s.max_conf, s.residuals.tolist(), float(cols.epsilon[i]))
                tol = 4 * math.ulp(float(want))
                for got in (float(cols.exact_ce[i]), decompose_sample(s, policy).exact_ce):
                    assert abs(decimal.Decimal(got) - want) <= tol, (k, i, policy, got, want)
                checked += 1
    # every row built above the ceiling, and every Dirichlet row, was checked
    assert above_ceiling >= 50 and checked >= 2 * (above_ceiling + 48 + 12)


def test_kernel_errors_match_reference():
    # sample 1 is one-hot (clamped, no error); sample 2 is the first with
    # an exact-zero residual
    rows = np.array([[0.5, 0.3, 0.2], [1.0, 0.0, 0.0], [0.9, 0.1, 0.0], [0.8, 0.2, 0.0]])
    stats = ProbabilityBatch.from_array(rows)
    for policy in (ADAPTIVE, EpsilonPolicy.fixed(0.01)):
        decompose_sample(stats[0], policy)
        decompose_sample(stats[1], policy)
        with pytest.raises(InfiniteCrossEntropyError) as scalar:
            decompose_sample(stats[2], policy)
        with pytest.raises(InfiniteCrossEntropyError) as batch:
            decompose_batch(stats, policy)
        assert str(batch.value) == f"sample 2: {scalar.value}"
    # fixed eps at or above 1/(K-1)
    ok = ProbabilityBatch.from_array(rows[:2])
    for call in (lambda p: decompose_sample(ok[0], p), lambda p: decompose_batch(ok, p)):
        with pytest.raises(DomainError):
            call(EpsilonPolicy.fixed(0.5))
    # a confidence below 1/K (only reachable in hand-built stats)
    low = dataclasses.replace(ok, max_conf=np.array([0.5, 0.2]), degenerate=np.array([False, False]))
    decompose_sample(low[0], ADAPTIVE)
    for call in (lambda: decompose_sample(low[1], ADAPTIVE), lambda: decompose_batch(low, ADAPTIVE)):
        with pytest.raises(DomainError, match="max_conf"):
            call()
    with pytest.raises(DomainError):
        decompose_batch([], ADAPTIVE)


def test_sample_columns_are_read_only_rows():
    stats = ProbabilityBatch.from_array(EDGE_BATCHES[0])
    cols = decompose_batch(stats, ADAPTIVE).samples
    assert len(cols) == len(stats)
    iterated = list(cols)
    for i in range(len(cols)):
        from_columns = CEDecomposition(*(getattr(cols, f)[i].item() for f in FIELDS))
        assert cols[i] == iterated[i] == from_columns
        assert cols[i - len(cols)] == cols[i]
    for f in FIELDS:
        column = getattr(cols, f)
        assert column.shape == (len(stats),)
        with pytest.raises(ValueError):
            column[0] = 0
    with pytest.raises(IndexError):
        cols[len(cols)]
