"""The minibatch-k100 workload: a pseudo-labelling training loop in process.

Each step takes one 1024 x 100 softmax batch from a pool of distinct
pre-generated arrays and runs what a training loop would ask of covar:
validation, PCOS reliability weights, the certified batch decomposition
and fixed-threshold pseudo-labels.  Every step's output is checked, and a
pool entry seen again must give bit-identical weights.

Run as a script it is the worker process of the timed pass:

    PYTHONPATH=src python3 perfbench/minibatch.py --pool POOL.npy --seconds S --out RESULT.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from importlib import import_module

import numpy as np

from checks import CheckFailed, check_step
from probe import probe_seconds

TAU = 0.95
PROBE_EVERY = 8  # steps between machine-speed probes, about one second
MIN_STEPS = 100  # so the p90 step time has 10 samples beyond it

# Looked up through the modules at call time, so tracing wrappers apply.
_stats = import_module("covar.stats")
_pcos = import_module("covar.pcos")
_decomposition = import_module("covar.decomposition")
_baseline = import_module("covar.baseline")


def step(values: np.ndarray):
    batch = _stats.ProbabilityBatch.from_array(values)
    weights = _pcos.pcos(batch)
    decomposition = _decomposition.decompose_batch(
        _stats.compute_stats(batch), _decomposition.EpsilonPolicy.adaptive()
    )
    labels, mask = _baseline.threshold_select(batch, _baseline.ThresholdPolicy(TAU))
    return weights, decomposition, labels, mask


class Loop:
    """Runs checked steps over the pool and keeps their wall times."""

    def __init__(self, pool: np.ndarray) -> None:
        self.pool = pool
        self.times: list[float] = []
        self.ok: list[bool] = []
        self.messages: list[str] = []
        self._weights: dict[int, str] = {}

    def run_step(self, i: int) -> None:
        slot = i % len(self.pool)
        values = self.pool[slot]
        t0 = time.perf_counter()
        try:
            weights, decomposition, labels, mask = step(values)
        except Exception as exc:  # a covar error fails this step, not the run
            self.times.append(time.perf_counter() - t0)
            self._finish(f"step {i}: {type(exc).__name__}: {exc}")
            return
        self.times.append(time.perf_counter() - t0)
        try:
            check_step(values, weights.weights, decomposition, labels, mask, TAU)
            digest = hashlib.sha256(np.ascontiguousarray(weights.weights).tobytes()).hexdigest()
            if self._weights.setdefault(slot, digest) != digest:
                raise CheckFailed(f"pool entry {slot}: weights changed between visits")
        except CheckFailed as exc:
            self._finish(f"step {i}: {exc}")
            return
        self._finish(None)

    def _finish(self, error: str | None) -> None:
        self.ok.append(error is None)
        if error is not None:
            self.messages.append(error)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    pool = np.load(args.pool)
    step(pool[0])  # warm-up, untimed
    loop = Loop(pool)
    probes = [probe_seconds()]
    while sum(loop.times) < args.seconds or len(loop.times) < MIN_STEPS:
        loop.run_step(len(loop.times))
        if len(loop.times) % PROBE_EVERY == 0:
            probes.append(probe_seconds())
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"times": loop.times, "ok": loop.ok, "messages": loop.messages, "probes": probes}, fh)


if __name__ == "__main__":
    main()
