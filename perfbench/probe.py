"""A fixed reference computation that measures how fast the machine is now.

On a shared VM the CPU alternates between phases up to about 30% apart,
lasting from a second to minutes, so raw wall times of the same work vary
that much between runs.  The benchmark runs this probe next to every
measured operation and divides the operation's time by the probe's: the
ratio cancels the machine's phase.  Measured on a 2-core VM over 60 s,
training-step times varied by 33% while step / probe varied by 7%.

The probe uses only the standard library and numpy, never covar, and
mixes the kinds of work covar's operations do: Python objects and float
formatting, JSON encoding and numpy array passes.  The CLI workloads run
it as a script, ``python3 perfbench/probe.py``, so that it also pays
interpreter and numpy start-up the way a CLI operation does; the
minibatch worker calls :func:`probe_seconds` in process.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np


def _work() -> int:
    rows = []
    for i in range(6000):
        x = math.log1p(i * 1e-5) - 0.5 * i
        rows.append({"i": i, "x": x, "s": format(x, ".17g")})
    a = np.sin(np.arange(40_000, dtype=np.float64))
    a.sort()
    return len(json.dumps(rows)) + int(a[0] < 0.0)


def probe_seconds() -> float:
    """Median wall time of three runs of the reference work (about 25 ms each)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


if __name__ == "__main__":
    probe_seconds()
