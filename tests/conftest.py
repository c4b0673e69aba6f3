"""Shared helpers and hypothesis strategies for the covar test suite."""
from __future__ import annotations

import math
import os

import hypothesis
import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from covar.stats import ProbabilityBatch

hypothesis.settings.register_profile("ci", max_examples=200, deadline=None)
hypothesis.settings.register_profile(
    "default", max_examples=60, deadline=None
)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def normalize_rows(raw: np.ndarray) -> np.ndarray:
    return raw / raw.sum(axis=1, keepdims=True)


@st.composite
def simplex_rows(draw, min_k: int = 2, max_k: int = 12, min_n: int = 1,
                 max_n: int = 8):
    """Random probability batches built from positive floats, renormalized.

    Entries are drawn log-uniform-ish over several decades so that both
    near-uniform and highly peaked rows show up.
    """
    k = draw(st.integers(min_k, max_k))
    n = draw(st.integers(min_n, max_n))
    raw = draw(
        hnp.arrays(
            np.float64,
            (n, k),
            elements=st.floats(1e-6, 1e3, allow_nan=False, allow_infinity=False),
        )
    )
    return normalize_rows(raw + 1e-9)


@st.composite
def confident_rows(draw, min_k: int = 3, max_k: int = 10):
    """Single rows with a clearly dominant class and deviation ratio < 1.

    The residual mass is spread as mu*(1+delta) with |delta| < 1 by
    construction, which keeps the expansion's convergence assumption
    satisfied without rejection sampling.
    """
    k = draw(st.integers(min_k, max_k))
    p = draw(st.floats(0.35, 0.99))
    # deviations as fractions of mu, each in (-0.9, 0.9), recentred to sum 0
    frac = np.array(draw(st.lists(st.floats(-0.85, 0.85), min_size=k - 1,
                                  max_size=k - 1)))
    frac -= frac.mean()
    if np.abs(frac).max() >= 0.9:
        frac *= 0.89 / np.abs(frac).max()
    mu = (1.0 - p) / (k - 1)
    res = mu * (1.0 + frac)
    row = np.concatenate([[p], res])
    if row[0] <= res.max():  # keep class 0 strictly dominant
        row[0] = res.max() * 1.5
    return row / row.sum()


def batch_of(rows) -> ProbabilityBatch:
    return ProbabilityBatch.from_array(np.atleast_2d(np.asarray(rows, dtype=np.float64)))


def row_with_t(t: float, k: int) -> np.ndarray | None:
    """A K-class row (K >= 5) whose first two residuals sit at exactly t and -t.

    t is (p(k) - mu) / mu as the residual kernels round it, with mu =
    (1 - p(k')) / (K - 1); the other residuals sit at mu.  The search tries
    seeded top confidences in (0.3, 0.5), where 1 - p(k') can end in any
    bit, until both residuals land on t and -t, and gives None if none does.
    t just below 2^-7 needs a mu whose significand is above 4/3 and ends in
    the bits 0000001, which no K = 6 row with p(k') on top has.
    """
    for p in np.random.default_rng(0).uniform(0.3, 0.5, 1 << 16).tolist():
        mu = (1.0 - p) / (k - 1)
        d = round(t * mu / math.ulp(mu)) * math.ulp(mu)
        if (mu + d - mu) / mu == t and (mu - d - mu) / mu == -t:
            return np.array([p, mu + d, mu - d] + [mu] * (k - 3))
    return None


def band_edge_rows(k: int) -> list[np.ndarray]:
    """Rows (K >= 5) at the residual kernels' branch points.

    t = -0.5 (log(r/mu) below, log1p above), |t| = 2^-7 and its neighbouring
    doubles where a row reaches them (series below, log1p above), and rho
    just below 1, exactly 1 and above 1 (the certificate holds only while
    rho < 1).
    """
    cut = 2.0**-7
    targets = (-0.5, math.nextafter(cut, 0.0), cut, math.nextafter(cut, 1.0))
    rows = [row for t in targets if (row := row_with_t(t, k)) is not None]
    mu = 0.5 / (k - 1)
    rows.append(np.array([0.5, mu * (2.0 - 2.0**-30), mu * 2.0**-30] + [mu] * (k - 3)))  # rho < 1
    rows.append(np.array([0.5, 2.0 * mu] + [(0.5 - 2.0 * mu) / (k - 2)] * (k - 2)))  # rho = 1
    rows.append(np.array([0.5, 0.45] + [0.05 / (k - 2)] * (k - 2)))  # rho > 1
    return rows
