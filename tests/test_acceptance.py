"""Release acceptance suite.

One test per criterion; each prints a single ``PASS criterion N`` /
``FAIL criterion N`` line (visible with ``pytest -s``).  Tolerances are
pinned here on purpose — these are the numbers the package promises, not
implementation details.
"""
from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from covar.baseline import ThresholdPolicy, ece, threshold_select, threshold_sweep
from covar.cli import run_cli
from covar.decomposition import (
    EpsilonPolicy,
    decompose_batch,
    decompose_sample,
    g_coefficient,
)
from covar.io import load_matrix, matrix_digest, save_labels, save_matrix
from covar.pcos import (
    ClusterStats,
    embed,
    gaussian_weights,
    pcos,
    select_reliable_cluster,
    spectral_assign,
)
from covar.simulator import CovarPolicy, SyntheticConfig, evaluate_policies, generate
from covar.stats import CONF_CEILING, ProbabilityBatch
from oracles import brute_force_partition, trace_objective


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {label}")
        raise
    print(f"PASS criterion {num}: {label}")


def test_criterion_01_remainder_certification():
    with criterion(1, "remainder certificate on >= 1e5 filtered rows, both policies, < 10 s"):
        rng = np.random.default_rng(101)
        policies = (EpsilonPolicy.adaptive(), EpsilonPolicy.fixed(0.01))
        kept = 0
        t0 = time.perf_counter()
        for k in (3, 5, 10):
            for alpha in (0.6, 1.0, 3.0):
                rows = rng.dirichlet(np.full(k, alpha), size=22_000)
                for s in ProbabilityBatch.from_array(rows):
                    if s.degenerate or s.rho > 0.9:
                        continue
                    kept += 1
                    for pol in policies:
                        d = decompose_sample(s, pol)
                        diff = abs(d.exact_ce - d.approx_ce)
                        # cushion covers only the float evaluation of the
                        # subtraction, never the bound itself
                        assert diff <= d.remainder_bound * (1.0 + 1e-9) + 1e-12
        elapsed = time.perf_counter() - t0
        assert kept >= 100_000, f"only {kept} rows cleared the rho filter"
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_02_worked_example_regression():
    with criterion(2, "worked-example regression p=[0.7, 0.2, 0.1], adaptive eps"):
        batch = ProbabilityBatch.from_array(np.array([[0.7, 0.2, 0.1]]))
        s = batch[0]
        d = decompose_sample(s, EpsilonPolicy.adaptive())
        assert s.rcv == pytest.approx(0.0025, abs=1e-12)
        assert d.g_coeff == pytest.approx(6.66667, abs=1e-5)
        assert d.g_coeff * s.rcv == pytest.approx(0.016667, abs=1e-6)
        assert d.middle_term == pytest.approx(0.46213, abs=1e-4)
        assert d.exact_ce == pytest.approx(0.83647, abs=1e-4)
        assert d.approx_ce == pytest.approx(0.83547, abs=1e-4)
        assert d.remainder_bound == pytest.approx(0.01768, abs=1e-4)
        assert abs(d.remainder_actual) == pytest.approx(0.00100, abs=1e-4)
        assert abs(d.remainder_actual) <= d.remainder_bound


def test_criterion_03_batch_identity():
    with criterion(3, "mean(g v) = g_bar v_bar + cov to 1e-10 rel on 1e3 batches"):
        rng = np.random.default_rng(303)
        pol = EpsilonPolicy.adaptive()
        sizes = [1, 1000] + [
            int(round(math.exp(x)))
            for x in rng.uniform(0.0, math.log(1000.0), size=997)
        ]
        cases = []
        for n in sizes:
            k = int(rng.integers(3, 9))
            alpha = float(rng.uniform(0.5, 4.0))
            cases.append(rng.dirichlet(np.full(k, alpha), size=n))
        # the all-identical batch must land on cov = 0 exactly
        cases.append(np.tile([0.7, 0.2, 0.1], (64, 1)))
        assert len(cases) == 1000
        for rows in cases:
            sts = ProbabilityBatch.from_array(rows)
            k = sts[0].n_classes
            gv = [
                g_coefficient(s.safe_conf, k, pol) * (0.0 if s.degenerate else s.rcv)
                for s in sts
            ]
            mean_gv = math.fsum(gv) / len(gv)
            d = decompose_batch(sts, pol)
            rhs = d.srcv + d.cov_gv
            assert abs(mean_gv - rhs) <= 1e-10 * max(abs(mean_gv), abs(rhs))
        d = decompose_batch(
            ProbabilityBatch.from_array(cases[-1]), pol
        )
        assert d.cov_gv == 0.0


def test_criterion_04_lower_bound_and_middle_nonnegativity():
    with criterion(4, "batch lower bound and middle >= 0 on 1e4 seeded batches"):
        rng = np.random.default_rng(404)
        pol = EpsilonPolicy.adaptive()
        for _ in range(10_000):
            k = int(rng.choice((3, 5)))
            n = int(rng.integers(2, 17))
            alpha = float(rng.uniform(0.5, 4.0))
            rows = rng.dirichlet(np.full(k, alpha), size=n)
            sts = ProbabilityBatch.from_array(rows)
            d = decompose_batch(sts, pol)
            assert d.batch_ce >= d.lower_bound - d.remainder_batch_bound - 1e-12
            for s in sts:
                assert decompose_sample(s, pol).middle_term >= 0.0


def test_criterion_05_ky_fan_bound_and_unit_instance():
    with criterion(5, "every bipartition objective <= lam1+lam2; {e1,e1,e2} optimum 3"):
        rng = np.random.default_rng(505)
        for _ in range(500):
            n = int(rng.integers(2, 13))
            arr = rng.normal(size=(2, n)) * float(rng.uniform(0.2, 5.0))
            # independent enumeration: bit m encodes cluster-1 membership
            m = np.arange(1, 2**n - 1)
            bits = ((m[:, None] >> np.arange(n)) & 1).astype(np.float64)
            s1 = bits @ arr.T
            total = arr.sum(axis=1)
            s0 = total[None, :] - s1
            n1 = bits.sum(axis=1)
            n0 = n - n1
            obj = (s0 * s0).sum(axis=1) / n0 + (s1 * s1).sum(axis=1) / n1
            lam = np.linalg.eigvalsh(arr @ arr.T)
            assert np.all(obj <= lam.sum() + 1e-8)
            for i in rng.integers(0, m.size, size=3):
                sel = bits[i].astype(np.int64)
                got = trace_objective(arr, sel, normalized=True)
                assert got == pytest.approx(obj[i], rel=1e-10)
        e = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        sel = brute_force_partition(e)
        assert sel.tolist() == [0, 0, 1]
        assert trace_objective(e, sel, normalized=True) == pytest.approx(3.0, abs=1e-12)


def test_criterion_06_spectral_matches_dense_reference():
    with criterion(6, "closed-form split == dense gram eigenvector split, 500 instances"):
        rng = np.random.default_rng(606)
        for _ in range(500):
            n = int(rng.integers(2, 51))
            arr = rng.normal(size=(2, n)) * float(rng.uniform(0.1, 10.0))
            got = spectral_assign(arr)
            assert not got.rank_deficient
            _, vecs = np.linalg.eigh(arr.T @ arr)
            ref = (np.abs(vecs[:, -2]) > np.abs(vecs[:, -1])).astype(np.int64)
            assert np.array_equal(got.assignment, ref)


def test_criterion_07_pcos_contract():
    with criterion(7, "pcos invariances, weights in [0,1], preservation, lambda scoring"):
        rng = np.random.default_rng(707)
        arr = rng.normal(size=(2, 24))
        base = spectral_assign(arr).assignment
        for c in (0.25, 4.0, 1024.0):
            assert np.array_equal(spectral_assign(c * arr).assignment, base)
        assert np.array_equal(spectral_assign(-arr).assignment, base)
        perm = rng.permutation(24)
        assert np.array_equal(spectral_assign(arr[:, perm]).assignment, base[perm])

        rows = rng.dirichlet(np.full(5, 0.8), size=64)
        res = pcos(ProbabilityBatch.from_array(rows))
        assert np.all((res.weights >= 0.0) & (res.weights <= 1.0))
        assert res.preserved_mask.any()
        assert np.all(res.weights[res.preserved_mask] == 1.0)
        perm = rng.permutation(64)
        res_p = pcos(ProbabilityBatch.from_array(rows[perm]))
        assert res_p.reliable_cluster == res.reliable_cluster
        np.testing.assert_allclose(
            res_p.weights, res.weights[perm], rtol=1e-10, atol=1e-12
        )

        # beating the reliable mean in both dimensions forces weight 1 even
        # though the Gaussian factor would be < 1
        sts = ProbabilityBatch.from_array(rows)
        em = embed(sts)
        mean = em.phi.mean(axis=1) - 1.0  # every column beats this in dim 0...
        mean[1] = em.phi[1].min() - 1.0  # ...and in dim 1
        w, preserved = gaussian_weights(em, mean, np.array([0.1, 0.1]))
        assert preserved.all() and np.all(w == 1.0)

        stats = ClusterStats(
            mean=np.array([[0.9, -1.0], [0.6, -1.0]]),
            std=np.array([[0.05, 0.1], [0.05, 0.0]]),
            size=np.array([2, 2]),
        )
        scores = stats.mean[:, 0] - 0.25 * stats.std[:, 1]
        assert scores.tolist() == pytest.approx([0.875, 0.6])
        assert select_reliable_cluster(stats, 0.25) == 0


def test_criterion_08_directional_superiority():
    with criterion(8, "covar beats fixed-tau=0.95 in >= 90% of 50 seeds, < 60 s"):
        wins = 0
        t0 = time.perf_counter()
        for seed in range(50):
            config = SyntheticConfig.uniform_priors(
                10_000,
                6,
                base_accuracy=0.75,
                overconfidence_temp=0.25,
                residual_mode="bimodal",
                seed=seed,
            )
            batch, y = generate(config)
            fixed, covar = evaluate_policies(
                batch, y, [ThresholdPolicy(tau=0.95), CovarPolicy()]
            )
            wins += covar.weighted_accuracy > fixed.selected_accuracy
        elapsed = time.perf_counter() - t0
        assert wins >= 45, f"covar won only {wins}/50 seeds"
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_09_baseline_sanity():
    with criterion(9, "threshold monotone, ECE anchors exact, sweep non-increasing"):
        rng = np.random.default_rng(909)
        rows = rng.dirichlet(np.full(4, 0.7), size=400)
        batch = ProbabilityBatch.from_array(rows)
        prev = None
        for tau in np.linspace(0.3, 1.0, 15):
            _, mask = threshold_select(batch, ThresholdPolicy(tau=float(tau)))
            if prev is not None:
                assert np.all(mask <= prev)
            prev = mask

        conf = np.full(1024, 0.75)
        correct = np.zeros(1024, dtype=bool)
        correct[:768] = True
        assert ece(conf, correct).ece == 0.0
        conf = np.ones(64)
        correct = np.zeros(64, dtype=bool)
        correct[:32] = True
        assert ece(conf, correct).ece == 0.5

        conf = batch.values.max(axis=1)
        correct = rng.random(400) < conf
        rate, _ = threshold_sweep(conf, correct, np.linspace(0.0, 1.0, 41))
        assert np.all(np.diff(rate) <= 0.0)


def test_criterion_10_io_and_cli_determinism(tmp_path, capsys):
    with criterion(10, "bitwise matrix round-trips; byte-identical CLI reports"):
        rng = np.random.default_rng(1010)
        rows = rng.dirichlet(np.full(6, 0.9), size=128)
        batch = ProbabilityBatch.from_array(rows)
        for name in ("m.csv", "m.bin"):
            path = tmp_path / name
            save_matrix(batch, path)
            back = load_matrix(path)
            assert np.array_equal(back.values, batch.values)
            assert matrix_digest(back) == matrix_digest(batch)

        args = ["decompose", "--input", str(tmp_path / "m.csv")]
        assert run_cli(args) == 0
        first = capsys.readouterr().out
        assert run_cli(args) == 0
        second = capsys.readouterr().out
        assert first and first == second

        labels = tmp_path / "y.txt"
        save_labels(rng.integers(0, 6, size=128), labels)
        args = ["compare", "--input", str(tmp_path / "m.csv"), "--labels", str(labels)]
        assert run_cli(args) == 0
        first = capsys.readouterr().out
        assert run_cli(args) == 0
        second = capsys.readouterr().out
        assert first and first == second
