"""Seeded benchmark inputs, built with numpy alone.

The generator lives here rather than in ``covar.simulator`` so that the
inputs stay identical when the package under test changes: one seed gives
the same bytes on every commit.  Rows follow the simulator's "bimodal"
construction (a Beta confidence level, a Dirichlet residual shape, power
sharpening, and confidently wrong rows with one spiked competitor), which
is the failure mode the package exists to separate.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

# covar's binary matrix container: magic, version byte, u32 N, u32 K, then
# N*K little-endian float64 values.  Its sha256 is the report "digest".
_HEADER = struct.Struct("<4sBII")
_MAGIC, _VERSION = b"COVR", 1


def bimodal_matrix(
    rng: np.random.Generator,
    n: int,
    k: int,
    accuracy: float = 0.75,
    temp: float = 0.25,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw an (n, k) row-stochastic matrix and its true labels."""
    idx = np.arange(n)
    y = rng.integers(0, k, size=n)
    correct = rng.random(n) < accuracy
    arg = np.where(correct, y, (y + rng.integers(1, k, size=n)) % k)
    conf = rng.beta(5.0, 2.0, size=n)
    shape = rng.dirichlet(np.full(k - 1, 32.0), size=n)
    alpha = np.full(k - 1, 0.35)
    alpha[0] = 8.0
    spiked = rng.dirichlet(alpha, size=n)
    # Move the spike onto the true class's slot among the residual columns.
    pos = (y - (y > arg)) % (k - 1)
    spiked = spiked[idx[:, None], (np.arange(k - 1)[None, :] - pos[:, None]) % (k - 1)]
    shape = np.where(correct[:, None], shape, spiked)

    rows = np.zeros((n, k))
    rows[idx, arg] = conf
    keep = np.ones((n, k), dtype=bool)
    keep[idx, arg] = False
    rows[keep] = ((1.0 - conf)[:, None] * shape).ravel()
    # Keep the intended argmax where a residual entry outgrew it.
    top = rows.argmax(axis=1)
    swap = idx[top != arg]
    rows[swap, top[swap]], rows[swap, arg[swap]] = rows[swap, arg[swap]], rows[swap, top[swap]]

    rows = rows ** (1.0 / temp)
    rows /= rows.sum(axis=1, keepdims=True)

    # Wrong rows move into the 0.955-0.995 confidence band a fixed
    # threshold cannot reject, keeping their spiked residual shape.
    wrong = idx[~correct]
    target = 0.955 + 0.04 * rng.random(wrong.size)
    rows[wrong, arg[wrong]] = 0.0
    rows[wrong] *= ((1.0 - target) / rows[wrong].sum(axis=1))[:, None]
    rows[wrong, arg[wrong]] = target
    return rows, y


def encode_binary(values: np.ndarray) -> bytes:
    n, k = values.shape
    return _HEADER.pack(_MAGIC, _VERSION, n, k) + np.ascontiguousarray(values, dtype="<f8").tobytes()


def matrix_digest(values: np.ndarray) -> str:
    """sha256 of the canonical binary encoding, as covar reports it."""
    return hashlib.sha256(encode_binary(values)).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_binary(path: Path, values: np.ndarray) -> None:
    Path(path).write_bytes(encode_binary(values))


def write_csv(path: Path, values: np.ndarray) -> None:
    """covar's matrix CSV: header c0..c{K-1}, 17 significant digits."""
    header = ",".join(f"c{i}" for i in range(values.shape[1]))
    np.savetxt(path, values, fmt="%.17g", delimiter=",", header=header, comments="")


def write_labels(path: Path, labels: np.ndarray) -> None:
    Path(path).write_text("\n".join(str(int(y)) for y in labels) + "\n", encoding="utf-8")


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_labels(path: Path) -> np.ndarray:
    return np.loadtxt(path, dtype=np.int64, ndmin=1)
