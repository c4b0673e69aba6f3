"""Parts (i) and (ii) of the paper's theorem as properties of exact_ce and g.

Each property runs through both the scalar reference ``decompose_sample``
and the kernel ``decompose_batch``.  Where the two policies differ, the
test says which claim holds under which:

- (i) uniform residuals minimize CE at a fixed top mass, under both;
- (ii), fixed eps: g = (K-1)^3 eps / (2 (1-p)^2), increasing and bounded
  by (K-1)^3 eps / (2 gamma^2) for p <= 1 - gamma; but at a fixed v the
  CE decreases in p only up to p* = 1 - (K-1) eps, the smoothed target's
  own top mass, and increases after it;
- (ii), adaptive eps = mu: g = (K-1)^2 / (2 (1-p)), which grows as
  Theta((1-p)^-1), not Theta((1-p)^-2), and the CE decreases on [1/K, 1).

Tolerances cover only float evaluation.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covar.decomposition import EpsilonPolicy, decompose_batch, decompose_sample
from covar.stats import ProbabilityBatch

ULP = 2.0**-52
FIXED_EPS = 0.01  # below 1/(K-1) for every K drawn here
POLICIES = [EpsilonPolicy.adaptive(), EpsilonPolicy.fixed(FIXED_EPS)]
V = 1e-9  # the fixed RCV of the CE-shape claims


def both_paths(rows, policy):
    """The rows' decompositions from decompose_sample, then from decompose_batch."""
    batch = ProbabilityBatch.from_array(np.asarray(rows, dtype=np.float64))
    return [decompose_sample(s, policy) for s in batch], list(decompose_batch(batch, policy).samples)


def row_at(p: float, k: int, v: float = 0.0) -> np.ndarray:
    """Top mass p on class 0; residuals mu +- delta in alternation (0 on the
    last when K-1 is odd), with delta set so that the RCV is v."""
    mu = (1.0 - p) / (k - 1)
    pairs = (k - 1) // 2
    signs = np.zeros(k - 1)
    signs[0 : 2 * pairs : 2] = 1.0
    signs[1 : 2 * pairs : 2] = -1.0
    return np.concatenate([[p], mu + math.sqrt(v * (k - 1) / (2 * pairs)) * signs])


def g_closed_form(k: int, policy: EpsilonPolicy) -> tuple[float, int]:
    """(c, m) with g = c / (1-p)^m under the policy: (K-1)^2 / 2 and 1 for
    adaptive eps, (K-1)^3 eps / 2 and 2 for a fixed eps."""
    if policy.value is None:
        return (k - 1) ** 2 / 2.0, 1
    return (k - 1) ** 3 * policy.value / 2.0, 2


@st.composite
def fixed_top_mass_rows(draw):
    """A row with top mass p on class 0 and random positive residuals."""
    k = draw(st.sampled_from([3, 6, 50]))
    w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=k - 1, max_size=k - 1)))
    # class 0 stays the argmax while p > (1 - p) max(w) / sum(w)
    a = w.max() / w.sum()
    lo = a / (1.0 + a) + 1e-6
    p = lo + (0.999 - lo) * draw(st.floats(0.0, 1.0))
    return np.concatenate([[p], (1.0 - p) * w / w.sum()])


def increasing_pair(lo: float, hi: float):
    """p1 < p2 in [lo, hi], at least 1e-3 apart."""
    return st.floats(lo, hi - 1e-3).flatmap(
        lambda p1: st.tuples(st.just(p1), st.floats(p1 + 1e-3, hi))
    )


# --- (i) -------------------------------------------------------------------


@pytest.mark.parametrize("policy", POLICIES, ids=["adaptive", "fixed"])
@given(row=fixed_top_mass_rows())
def test_i_uniform_residuals_minimize_ce_at_a_fixed_top_mass(policy, row):
    k = row.size
    p = row[0]
    uniform = np.concatenate([[p], np.full(k - 1, (1.0 - p) / (k - 1))])
    for d, d_uniform in both_paths([row, uniform], policy):
        # both rows have top mass p, hence the same mu and eps
        assert d.epsilon == d_uniform.epsilon
        eps = d.epsilon
        # a few ulp per term of each CE: the residual log sums carry the most
        logs = np.abs(np.log(np.concatenate([row, uniform[1:]])))
        scale = (1.0 - (k - 1) * eps) * logs[0] + eps * logs[1:].sum()
        assert d.exact_ce >= d_uniform.exact_ce - 8 * k * ULP * scale


# --- (ii): g ---------------------------------------------------------------


@pytest.mark.parametrize("policy", POLICIES, ids=["adaptive", "fixed"])
@given(k=st.sampled_from([3, 6, 10, 50]), x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0))
def test_ii_g_is_the_policys_closed_form_and_increases(policy, k, x, y):
    lo = 1.0 / k + 1e-3
    p1 = lo + (0.999 - 1e-3 - lo) * x
    p2 = p1 + 1e-3 + (0.999 - 1e-3 - p1) * y
    c, m = g_closed_form(k, policy)
    for d1, d2 in both_paths([row_at(p1, k), row_at(p2, k)], policy):
        for p, d in ((p1, d1), (p2, d2)):
            # g (1-p)^m is constant: g grows as Theta((1-p)^-m)
            assert math.isclose(d.g_coeff * (1.0 - p) ** m, c, rel_tol=8 * ULP)
        assert d2.g_coeff > d1.g_coeff


@pytest.mark.parametrize("policy", POLICIES, ids=["adaptive", "fixed"])
@given(k=st.sampled_from([3, 6, 10, 50]), x=st.floats(0.0, 1.0), s=st.floats(0.01, 1.0))
def test_ii_g_is_bounded_where_p_stays_gamma_below_1(policy, k, x, s):
    lo = 1.0 / k + 1e-3
    p = lo + (0.999 - lo) * x
    gamma = (1.0 - p) * s  # so p <= 1 - gamma
    c, m = g_closed_form(k, policy)
    for (d,) in both_paths([row_at(p, k)], policy):
        assert d.g_coeff <= c / gamma**m * (1.0 + 4 * ULP)


# --- (ii): the CE at a fixed v ---------------------------------------------


@given(k=st.sampled_from([3, 6, 10]), c=st.floats(0.1, 0.9), data=st.data())
def test_ii_fixed_eps_ce_turns_at_the_targets_top_mass(k, c, data):
    """At v = 1e-9 the CE decreases in p below p* = 1 - (K-1) eps and
    increases above it.  The g v term moves the turn left by O(v / eps^2),
    at most 1e-5 here, so the falling side stops 1e-3 short of p*."""
    eps = c / k
    policy = EpsilonPolicy.fixed(eps)
    turn = 1.0 - (k - 1) * eps
    if data.draw(st.booleans(), label="rising side"):
        p1, p2 = data.draw(increasing_pair(turn, 0.999))
        for d1, d2 in both_paths([row_at(p1, k, V), row_at(p2, k, V)], policy):
            assert d2.exact_ce > d1.exact_ce
    else:
        p1, p2 = data.draw(increasing_pair(1.0 / k + 1e-3, turn - 1e-3))
        for d1, d2 in both_paths([row_at(p1, k, V), row_at(p2, k, V)], policy):
            assert d2.exact_ce < d1.exact_ce


@given(k=st.sampled_from([3, 6, 10]), data=st.data())
def test_ii_adaptive_ce_decreases_in_p(k, data):
    p1, p2 = data.draw(increasing_pair(1.0 / k + 1e-3, 0.999))
    policy = EpsilonPolicy.adaptive()
    for d1, d2 in both_paths([row_at(p1, k, V), row_at(p2, k, V)], policy):
        assert d2.exact_ce < d1.exact_ce


@pytest.mark.parametrize(
    "policy,table",
    [
        (EpsilonPolicy.fixed(0.01), [0.5164, 0.5003, 0.5140, 0.6214, 0.8242]),
        (EpsilonPolicy.adaptive(), [0.7523, 0.5003, 0.3084, 0.0780, 0.0101]),
    ],
    ids=["fixed", "adaptive"],
)
def test_ii_ce_table_at_k10(policy, table):
    """K = 10, v = 1e-9: the fixed-eps CE turns at p* = 0.91, the adaptive
    CE keeps falling."""
    ps = [0.85, 0.91, 0.95, 0.99, 0.999]
    for path in both_paths([row_at(p, 10, V) for p in ps], policy):
        assert [round(d.exact_ce, 4) for d in path] == table
