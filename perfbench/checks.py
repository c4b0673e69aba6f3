"""Semantic checks on covar CLI reports and library step results.

The checks read values, never layout, so they hold across report writers
that change formatting or ``format_version``.  A failed check raises
:class:`CheckFailed`; the benchmark counts the operation as failed.

Reference values for ``select``, ``compare`` and ``ece`` come from the
public library functions run in this process on the same input.
"""

from __future__ import annotations

import json
import math

import numpy as np

from inputs import matrix_digest

REL_TOL = 1e-12
IDENTITY_TOL = 1e-10


class CheckFailed(Exception):
    pass


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _num(x) -> float:
    """Report number, with null standing for a non-finite value."""
    return math.nan if x is None else float(x)


def _close(got, want, what: str, tol: float = REL_TOL) -> None:
    """Elementwise |got - want| <= tol * max(|got|, |want|); nan matches nan."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    _require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    both_nan = np.isnan(got) & np.isnan(want)
    with np.errstate(invalid="ignore"):
        ok = both_nan | (np.abs(got - want) <= tol * np.maximum(np.abs(got), np.abs(want)))
    if not ok.all():
        i = int(np.argmin(ok.ravel()))
        raise CheckFailed(f"{what}[{i}]: {got.ravel()[i]!r} != {want.ravel()[i]!r}")


def parse(text: str) -> dict:
    _require(text.strip(), "empty report")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None
    _require(isinstance(doc, dict), "report root is not an object")
    return doc


def _column(samples: list, key: str) -> np.ndarray:
    return np.array([_num(s[key]) for s in samples])


def _common(doc: dict, kind: str, n: int, digest: str) -> list:
    _require(doc.get("report") == kind, f"report kind {doc.get('report')!r} != {kind!r}")
    inp = doc["input"]
    _require(inp["n_samples"] == n, f"n_samples {inp['n_samples']} != {n}")
    _require(inp["digest"] == digest, "input digest does not match the input")
    samples = doc.get("samples")
    if samples is not None:
        _require(len(samples) == n, f"{len(samples)} samples for {n} rows")
        _require(all(s["index"] == i for i, s in enumerate(samples)), "sample indices out of order")
    return samples


def check_decompose(doc: dict, n: int, digest: str) -> None:
    samples = _common(doc, "decompose", n, digest)
    for s in samples:
        if s["assumption_ok"]:
            bound = s["remainder_bound"]
            _require(
                bound is not None and abs(s["remainder_actual"]) <= bound,
                f"sample {s['index']}: |remainder| {s['remainder_actual']!r} > bound {bound!r}",
            )
    # mean(g v) = srcv + cov_gv, with v = 0 on clamped degenerate rows.
    gv = math.fsum(s["g_coeff"] * (0.0 if s["degenerate"] else s["rcv"]) for s in samples) / n
    batch = doc["batch"]
    rhs = batch["srcv"] + batch["cov_gv"]
    _require(
        abs(gv - rhs) <= IDENTITY_TOL * max(abs(gv), abs(rhs)),
        f"batch identity: mean(g v) {gv!r} != srcv + cov {rhs!r}",
    )
    _require(batch["n_samples"] == n, "batch n_samples mismatch")


def select_reference(values: np.ndarray) -> dict:
    from covar.pcos import pcos
    from covar.stats import ProbabilityBatch, compute_stats

    batch = ProbabilityBatch.from_array(values)
    sts = compute_stats(batch)
    res = pcos(batch)
    return {
        "max_class": np.array([s.max_class for s in sts]),
        "max_conf": np.array([s.max_conf for s in sts]),
        "rcv": np.array([s.rcv for s in sts]),
        "weight": np.asarray(res.weights),
        "cluster": np.asarray(res.assignment),
        "preserved": np.asarray(res.preserved_mask),
        "reliable_cluster": res.reliable_cluster,
        "rank_deficient": res.rank_deficient,
    }


def check_select(doc: dict, n: int, digest: str, ref: dict) -> None:
    samples = _common(doc, "select", n, digest)
    weight = _column(samples, "weight")
    _require(((weight >= 0.0) & (weight <= 1.0)).all(), "a weight lies outside [0, 1]")
    for key in ("max_class", "max_conf", "rcv", "weight", "cluster", "preserved"):
        _close(_column(samples, key), ref[key], key)
    part = doc["partition"]
    _require(part["reliable_cluster"] == ref["reliable_cluster"], "reliable cluster differs")
    _require(part["rank_deficient"] == ref["rank_deficient"], "rank_deficient differs")


def check_simulate(doc: dict, n: int, values: np.ndarray, labels: np.ndarray) -> None:
    """``values``/``labels`` are what the same command wrote to --out and --labels-out."""
    samples = _common(doc, "simulate", n, matrix_digest(values))
    _require(values.shape[0] == n and labels.shape == (n,), "written matrix or labels have the wrong length")
    _close(_column(samples, "true_label"), labels, "true_label")
    _close(_column(samples, "max_class"), values.argmax(axis=1), "max_class")
    _close(_column(samples, "max_conf"), values.max(axis=1), "max_conf")
    correct = _column(samples, "correct")
    _close(correct, values.argmax(axis=1) == labels, "correct")
    _close(doc["summary"]["accuracy"], correct.mean(), "summary.accuracy")


def compare_reference(values: np.ndarray, labels: np.ndarray, tau: float) -> list:
    from covar.baseline import ThresholdPolicy
    from covar.simulator import CovarPolicy, evaluate_policies
    from covar.stats import ProbabilityBatch

    batch = ProbabilityBatch.from_array(values)
    return evaluate_policies(batch, labels, [ThresholdPolicy(tau=tau), CovarPolicy()])


def check_compare(doc: dict, n: int, digest: str, ref: list) -> None:
    _common(doc, "compare", n, digest)
    got = doc["policies"]
    _require(len(got) == len(ref), f"{len(got)} policies, expected {len(ref)}")
    for g, r in zip(got, ref):
        _require(g["name"] == r.name, f"policy {g['name']!r} != {r.name!r}")
        _require(0.0 <= g["mean_weight"] <= 1.0, f"{r.name}: mean weight outside [0, 1]")
        _require(g["n_selected"] == r.n_selected, f"{r.name}: n_selected differs")
        for key in ("selected_accuracy", "weighted_accuracy", "mean_weight", "ece"):
            _close(_num(g[key]), getattr(r, key), f"{r.name}.{key}")
        want = sorted(r.retention.values(), key=lambda c: c.label)
        _require([c["label"] for c in g["retention"]] == [c.label for c in want], f"{r.name}: retention labels")
        for key in ("count", "retained", "retention", "inv_sqrt_count"):
            _close([_num(c[key]) for c in g["retention"]], [getattr(c, key) for c in want], f"{r.name}.{key}")


def ece_reference(values: np.ndarray, labels: np.ndarray, bins: int):
    from covar.baseline import ece
    from covar.stats import ProbabilityBatch, compute_stats

    sts = compute_stats(ProbabilityBatch.from_array(values))
    conf = np.array([s.max_conf for s in sts])
    correct = np.array([s.max_class for s in sts]) == labels
    return ece(conf, correct, n_bins=bins)


def check_ece(doc: dict, n: int, digest: str, ref) -> None:
    _common(doc, "ece", n, digest)
    cal = doc["calibration"]
    _close(cal["ece"], ref.ece, "ece")
    _require(cal["n_bins"] == ref.n_bins and len(cal["bins"]) == ref.n_bins, "bin count differs")
    _close([b["count"] for b in cal["bins"]], ref.bin_count, "bins.count")
    _close([_num(b["confidence"]) for b in cal["bins"]], ref.bin_confidence, "bins.confidence")
    _close([_num(b["accuracy"]) for b in cal["bins"]], ref.bin_accuracy, "bins.accuracy")
    _close([b["lower"] for b in cal["bins"]], ref.bin_edges[:-1], "bins.lower")


def check_step(values: np.ndarray, weights, decomposition, labels, mask, tau: float) -> None:
    """One minibatch training step: pcos weights, batch decomposition and
    threshold pseudo-labels, checked against their stated contracts."""
    w = np.asarray(weights)
    _require(w.shape == (values.shape[0],), "weight vector has the wrong length")
    _require(((w >= 0.0) & (w <= 1.0)).all(), "a weight lies outside [0, 1]")
    d = decomposition
    _require(d.n_samples == values.shape[0], "decomposition n_samples mismatch")
    _require(
        d.batch_ce >= d.lower_bound - d.remainder_batch_bound - 1e-12,
        "batch CE below its certified lower bound",
    )
    top = values.argmax(axis=1)
    keep = values[np.arange(values.shape[0]), top] >= tau
    _require(np.array_equal(mask, keep), "threshold mask differs from conf >= tau")
    _require(np.array_equal(labels, np.where(keep, top, -1)), "pseudo-labels differ from the argmax")
