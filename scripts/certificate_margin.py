"""Tabulate how tight the cross-entropy remainder certificate is.

For rows with one spiked residual class we can dial the confidence p and
the relative deviation rho independently, then compare the actual Taylor
remainder against its certified ceiling C * v^{3/2}.  The ratio shows the
certificate is loose by design (a factor ~(1-rho)^{-3}) but never wrong:
the bound column always dominates.
"""
from __future__ import annotations

import argparse

import numpy as np

from covar import EpsilonPolicy, ProbabilityBatch, decompose_sample


def spiked_row(k: int, p: float, a: float) -> np.ndarray:
    """One residual class at mu*(1+a), the rest below mean; rho = a."""
    mu = (1.0 - p) / (k - 1)
    row = np.full(k, mu * (1.0 - a / (k - 2)))
    row[0] = p
    row[1] = mu * (1.0 + a)
    return row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=6)
    ap.add_argument("--fixed-eps", type=float, default=0.01)
    args = ap.parse_args()

    policies = {
        "adaptive": EpsilonPolicy.adaptive(),
        f"fixed={args.fixed_eps:g}": EpsilonPolicy.fixed(args.fixed_eps),
    }
    print(f"# K = {args.k}; remainder |R| vs certified bound C v^1.5")
    header = f"{'p':>5} {'rho':>5} {'rcv':>10}"
    for name in policies:
        header += f" {name + ' |R|':>14} {name + ' bound':>14} {'ratio':>7}"
    print(header)

    for p in (0.5, 0.7, 0.9, 0.99):
        for a in (0.1, 0.3, 0.6, 0.9):
            row = spiked_row(args.k, p, a)
            s = ProbabilityBatch.from_array(row[None, :])[0]
            line = f"{p:5.2f} {s.rho:5.2f} {s.rcv:10.3e}"
            for pol in policies.values():
                d = decompose_sample(s, pol)
                actual = abs(d.remainder_actual)
                ratio = d.remainder_bound / actual if actual else float("inf")
                line += f" {actual:14.3e} {d.remainder_bound:14.3e} {ratio:7.1f}"
            print(line)
    print(
        "\nratio = bound / |R|; it grows like (1-rho)^-3 near the edge of"
        " the certificate's validity band."
    )


if __name__ == "__main__":
    main()
