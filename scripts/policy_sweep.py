"""Compare fixed-threshold and covariance-aware pseudo-label selection.

Runs the miscalibrated bimodal generator over a range of seeds and prints,
per policy, the selected-set accuracy, coverage, and weighted accuracy.
The interesting regime is the default one: errors that are confident but
spiky in their residual mass, where a pure confidence cut cannot separate
them from genuinely reliable predictions.
"""
from __future__ import annotations

import argparse
import time

import numpy as np

from covar import (
    CovarPolicy,
    SyntheticConfig,
    ThresholdPolicy,
    evaluate_policies,
    generate,
)
from covar.errors import CovarError


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20, help="number of seeds")
    ap.add_argument("--n", type=int, default=10_000)
    ap.add_argument("--k", type=int, default=6)
    ap.add_argument("--accuracy", type=float, default=0.75)
    ap.add_argument("--temp", type=float, default=0.25)
    ap.add_argument("--residual", default="bimodal", choices=("uniform", "bimodal"))
    ap.add_argument(
        "--taus", type=float, nargs="+", default=[0.90, 0.95, 0.99],
        help="fixed thresholds to evaluate",
    )
    return ap


def main() -> None:
    ap = build_parser()
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error(f"--seeds must be at least 1, got {args.seeds}")
    if args.n < 2:  # the covar policy splits the batch in two
        ap.error(f"--n must be at least 2, got {args.n}")
    try:  # the library checks the other arguments
        policies = [ThresholdPolicy(tau=t) for t in args.taus] + [CovarPolicy()]
        configs = [
            SyntheticConfig.uniform_priors(
                args.n,
                args.k,
                base_accuracy=args.accuracy,
                overconfidence_temp=args.temp,
                residual_mode=args.residual,
                seed=seed,
            )
            for seed in range(args.seeds)
        ]
    except CovarError as exc:
        ap.error(str(exc))

    # one list per policy, in policy order: the thresholds, then covar
    acc, wacc, cover = ([[] for _ in policies] for _ in range(3))
    t0 = time.perf_counter()
    for config in configs:
        try:  # a temperature can sharpen a row to all zeros
            batch, y = generate(config)
        except CovarError as exc:
            ap.error(str(exc))
        evals = evaluate_policies(batch, y, policies)
        names = [ev.name for ev in evals]
        for i, ev in enumerate(evals):
            acc[i].append(ev.selected_accuracy)
            wacc[i].append(ev.weighted_accuracy)
            cover[i].append(ev.n_selected / args.n)
    elapsed = time.perf_counter() - t0

    print(
        f"# {args.seeds} seeds, N={args.n}, K={args.k}, "
        f"accuracy={args.accuracy}, temp={args.temp}, "
        f"residual={args.residual}  ({elapsed:.1f}s)"
    )
    print(f"{'policy':<16} {'sel-acc':>8} {'w-acc':>8} {'coverage':>9}")
    for i, name in enumerate(names):
        print(
            f"{name:<16} {np.nanmean(acc[i]):8.4f} "
            f"{np.nanmean(wacc[i]):8.4f} {np.mean(cover[i]):9.4f}"
        )

    ref = len(args.taus) // 2
    wins = sum(w > a for w, a in zip(wacc[-1], acc[ref]))
    margin = np.nanmean(wacc[-1]) - np.nanmean(acc[ref])
    print(
        f"\ncovar weighted accuracy beat {names[ref]} selected accuracy in "
        f"{wins}/{args.seeds} seeds (mean margin {margin:+.4f})"
    )


if __name__ == "__main__":
    main()
