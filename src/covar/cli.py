"""Command-line front end.

Subcommands: decompose, select, simulate, compare, ece, grid.  All but
``grid`` print a JSON run report to stdout; ``grid`` prints CSV contour
samples.  Exit status: 0 on success, 2 on any input/validation problem,
1 on internal errors.  Identical invocations on identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .baseline import ThresholdPolicy, ece as compute_ece
from .decomposition import EpsilonPolicy, decompose_batch, g_coefficient
from .decomposition import decompose_sample  # noqa: F401  (perfbench/tracing.py wraps it by name)
from .errors import CovarError
from .io import (
    Columns,
    _csv_chunks,
    load_labels,
    load_matrix,
    matrix_digest,
    save_labels,
    save_matrix,
    write_report,
)
from .io import serialize_report  # noqa: F401  (perfbench/tracing.py wraps it by name)
from .pcos import DEFAULT_LAMBDA, pcos
from .simulator import CovarPolicy, SyntheticConfig, evaluate_policies, generate
from .stats import _CHUNK_ROWS, ProbabilityBatch, compute_stats  # noqa: F401  (perfbench wraps compute_stats)

__all__ = ["run_cli"]

_REPORT_VERSION = 2


def _fin(x: float):
    """Reports cannot hold non-finite floats; map them to null."""
    x = float(x)
    return x if math.isfinite(x) else None


def _input_section(batch: ProbabilityBatch, source: str) -> dict:
    return {
        "source": source,
        "digest": matrix_digest(batch),
        "n_samples": batch.n_samples,
        "n_classes": batch.n_classes,
    }


def _report(kind: str, **sections) -> dict:
    doc = {"report": kind, "format_version": _REPORT_VERSION, "tool": f"covar {__version__}"}
    doc.update(sections)
    return doc


def _record(record, skip: tuple[str, ...] = ()) -> dict:
    """A section mirroring a library record: its dataclass fields but
    ``skip``, in declaration order, each non-finite float as null."""
    section = {f.name: getattr(record, f.name) for f in fields(record) if f.name not in skip}
    return {key: _fin(x) if isinstance(x, float) else x for key, x in section.items()}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_decompose(args) -> dict:
    if args.epsilon == "adaptive":
        policy = EpsilonPolicy.adaptive()
        eps_echo: object = "adaptive"
    else:
        try:  # DomainError, the policy's own check, is a ValueError too
            policy = EpsilonPolicy.fixed(float(args.epsilon))
        except ValueError:
            raise CovarError(
                f"--epsilon must be 'adaptive' or a number in (0, 1), got {args.epsilon!r}"
            ) from None
        eps_echo = policy.value
    batch = load_matrix(args.input)
    agg = decompose_batch(batch, policy, paper_literal=args.paper_literal)
    per = agg.samples
    samples = Columns(
        {
            "index": np.arange(len(per)),
            "max_class": batch.max_class,
            "max_conf": batch.max_conf,
            "rcv": batch.rcv,
            "rho": batch.rho,
            "degenerate": batch.degenerate,
            **_record(per),
        },
        nullable=("remainder_bound",),
    )
    return _report(
        "decompose",
        input=_input_section(batch, str(args.input)),
        config={"epsilon": eps_echo, "paper_literal": args.paper_literal},
        samples=samples,
        batch=_record(agg, skip=("samples",)),
    )


def _partition_section(result, lam: float, kind: str) -> dict:
    clusters = []
    for c in (0, 1):
        if result.cluster_stats.size[c] > 0:
            clusters.append(
                {
                    "cluster": c,
                    "size": int(result.cluster_stats.size[c]),
                    "mean": [_fin(x) for x in result.cluster_stats.mean[c]],
                    "std": [_fin(x) for x in result.cluster_stats.std[c]],
                }
            )
    return {
        "embedding": kind,
        "lambda": lam,
        "reliable_cluster": result.reliable_cluster,
        "rank_deficient": result.rank_deficient,
        "clusters": clusters,
    }


def _cmd_select(args) -> dict:
    batch = load_matrix(args.input)
    result = pcos(batch, args.embedding, args.lam, alg1_exponent=args.alg1_exponent)
    samples = Columns(
        {
            "index": np.arange(len(batch)),
            "max_class": batch.max_class,
            "max_conf": batch.max_conf,
            "rcv": batch.rcv,
            "g_coeff": g_coefficient(batch.safe_conf, batch.n_classes, EpsilonPolicy.adaptive()),
            "weight": result.weights,
            "cluster": result.assignment,
            "preserved": result.preserved_mask,
        }
    )
    return _report(
        "select",
        input=_input_section(batch, str(args.input)),
        config={
            "embedding": args.embedding,
            "lambda": args.lam,
            "alg1_exponent": args.alg1_exponent,
        },
        samples=samples,
        partition=_partition_section(result, args.lam, args.embedding),
    )


def _synthetic_config(args) -> SyntheticConfig:
    knobs = {
        "base_accuracy": args.accuracy,
        "overconfidence_temp": args.temp,
        "residual_mode": args.residual,
        "seed": args.seed,
    }
    if args.priors is None:
        return SyntheticConfig.uniform_priors(args.n, args.k, **knobs)
    try:
        priors = tuple(float(x) for x in args.priors.split(","))
    except ValueError:
        raise CovarError(f"--priors must be comma-separated numbers, got {args.priors!r}") from None
    return SyntheticConfig(args.n, args.k, priors, **knobs)


def _labelled_input(args) -> tuple[ProbabilityBatch, np.ndarray]:
    """The --input matrix and its --labels, one label in [0, K) per sample."""
    batch = load_matrix(args.input)
    labels = load_labels(args.labels, batch.n_classes)
    if labels.shape[0] != batch.n_samples:
        raise CovarError(f"{args.labels}: {labels.shape[0]} labels for {batch.n_samples} samples")
    return batch, labels


def _save_outputs(*writes) -> None:
    """Run each (save, data, path) whose path is set.  Each output is written
    to a new file beside it and renamed over it only once every write has
    succeeded, so a failed run leaves old files as they were and no new one."""
    staged: list[tuple[Path, Path]] = []
    final = None
    try:
        for save, data, path in writes:
            if not path:
                continue
            final = Path(path)
            # the same suffix, since it selects the matrix format
            tmp = final.with_name(f".{final.name}.{os.getpid()}.tmp{final.suffix}")
            staged.append((tmp, final))
            save(data, tmp)
        for tmp, final in staged:
            os.replace(tmp, final)
    except BaseException as exc:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename is not None:
            # name the output, not the file written in its place
            raise OSError(exc.errno, exc.strerror, str(final)) from exc
        raise


def _cmd_simulate(args) -> dict:
    config = _synthetic_config(args)
    if args.out and args.labels_out and Path(args.out).resolve() == Path(args.labels_out).resolve():
        raise CovarError(f"--out {args.out} and --labels-out {args.labels_out} name the same file")
    batch, labels = generate(config)
    _save_outputs((save_matrix, batch, args.out), (save_labels, labels, args.labels_out))
    correct = batch.max_class == labels
    samples = Columns(
        {
            "index": np.arange(len(batch)),
            "true_label": labels,
            "max_class": batch.max_class,
            "correct": correct,
            "max_conf": batch.max_conf,
            "rcv": batch.rcv,
        }
    )
    return _report(
        "simulate",
        input=_input_section(batch, "simulate"),
        config=_record(config),
        samples=samples,
        summary={
            "accuracy": float(np.mean(correct)),
            "mean_max_conf": float(np.mean(batch.max_conf)),
            "mean_rcv": float(np.mean(batch.rcv)),
        },
    )


def _cmd_compare(args) -> dict:
    batch, labels = _labelled_input(args)
    policies = [
        ThresholdPolicy(tau=args.tau),
        CovarPolicy(kind=args.embedding, lam=args.lam),
    ]
    evals = evaluate_policies(batch, labels, policies)
    return _report(
        "compare",
        input=_input_section(batch, str(args.input)),
        config={"tau": args.tau, "embedding": args.embedding, "lambda": args.lam},
        # retention_from_mask keys each policy's retention dict in label order
        policies=[{**_record(e), "retention": [_record(r) for r in e.retention.values()]} for e in evals],
    )


def _cmd_ece(args) -> dict:
    batch, labels = _labelled_input(args)
    report = compute_ece(batch.max_conf, batch.max_class == labels, n_bins=args.bins)
    bins = Columns(
        {
            "lower": report.bin_edges[:-1],
            "upper": report.bin_edges[1:],
            "count": report.bin_count,
            "confidence": report.bin_confidence,
            "accuracy": report.bin_accuracy,
        },
        nullable=("confidence", "accuracy"),
    )
    return _report(
        "ece",
        input=_input_section(batch, str(args.input)),
        config={"bins": args.bins, "labels": str(args.labels)},
        calibration={"n_bins": report.n_bins, "ece": report.ece, "bins": bins},
    )


def _cmd_grid(args) -> Iterator[str]:
    if not -math.inf < args.p_min <= args.p_max < math.inf:
        raise CovarError("need finite p-min <= p-max")
    if not 0.0 <= args.v_min <= args.v_max:
        raise CovarError("need 0 <= v-min <= v-max")
    if min(args.p_steps, args.v_steps) < 0:
        raise CovarError(f"need --p-steps, --v-steps >= 0, got {args.p_steps}, {args.v_steps}")
    if not math.isfinite(args.v_max):
        raise CovarError(f"need a finite --v-max, got {args.v_max}")
    ps = np.linspace(args.p_min, args.p_max, args.p_steps)
    vs = np.linspace(args.v_min, args.v_max, args.v_steps)
    # g_coefficient also bounds p to [1/K, CONF_CEILING]
    gs = g_coefficient(ps, args.k, EpsilonPolicy.adaptive())
    logs = np.array([math.log(p) for p in ps.tolist()])  # np.log may differ in the last bit
    # g > 0 and v >= 0, so each p's ce is largest at the grid's largest v
    with np.errstate(over="ignore"):  # an overflow is named below
        bad = np.flatnonzero(~np.isfinite(-logs + gs * vs.max(initial=0.0)))
    if bad.size:
        raise CovarError(f"--v-max {args.v_max} makes ce overflow at p = {float(ps[bad[0]])}")
    rows = len(ps) * len(vs)
    # the surface one chunk at a time, p-major: row r is (ps[r // len(vs)], vs[r % len(vs)])
    ij = (np.divmod(np.arange(at, min(at + _CHUNK_ROWS, rows)), len(vs)) for at in range(0, rows, _CHUNK_ROWS))
    return _csv_chunks(["p", "v", "ce"], ([ps[i], vs[j], -logs[i] + gs[i] * vs[j]] for i, j in ij))


# ---------------------------------------------------------------------------
# wiring


def _add_matrix_args(sp) -> None:
    sp.add_argument("--input", required=True, help="matrix file (.csv is CSV, else binary)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covar",
        description="Confidence-variance reliability analysis for pseudo-label selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("decompose", help="per-sample and batch CE decomposition")
    _add_matrix_args(sp)
    sp.add_argument("--epsilon", default="adaptive", help="'adaptive' or a fixed value")
    sp.add_argument(
        "--paper-literal",
        action="store_true",
        help="use the sign-flipped middle term, which has no certificate: remainder_bound "
        "and assumption_ok still describe the certified form",
    )
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("select", help="PCOS reliability weights")
    _add_matrix_args(sp)
    sp.add_argument("--embedding", choices=("theory", "raw"), default="theory")
    sp.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    sp.add_argument("--alg1-exponent", action="store_true", help="use the wider exp(-(d/2s)^2) factor")
    sp.set_defaults(func=_cmd_select)

    sp = sub.add_parser("simulate", help="generate a synthetic batch")
    sp.add_argument("--n", type=int, required=True, help="number of samples")
    sp.add_argument("--k", type=int, required=True, help="number of classes")
    sp.add_argument("--priors", default=None, help="comma-separated class priors (default uniform)")
    sp.add_argument("--accuracy", type=float, default=0.75, help="base argmax accuracy")
    sp.add_argument("--temp", type=float, default=1.0, help="overconfidence temperature (<1 sharpens)")
    sp.add_argument("--residual", choices=("uniform", "bimodal"), default="uniform")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, help="also write the matrix here (.csv is CSV, else binary)")
    sp.add_argument("--labels-out", default=None, help="also write true labels here")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("compare", help="fixed threshold vs covar-pcos on labelled data")
    _add_matrix_args(sp)
    sp.add_argument("--labels", required=True, help="true labels, one per matrix row")
    sp.add_argument("--tau", type=float, default=0.95)
    sp.add_argument("--embedding", choices=("theory", "raw"), default="theory")
    sp.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("ece", help="binned expected calibration error")
    _add_matrix_args(sp)
    sp.add_argument("--labels", required=True, help="true labels, one per matrix row")
    sp.add_argument("--bins", type=int, default=15)
    sp.set_defaults(func=_cmd_ece)

    sp = sub.add_parser("grid", help="CE contour samples over (p, v) as CSV")
    sp.add_argument("--k", type=int, default=21)
    sp.add_argument("--p-min", type=float, default=0.5)
    sp.add_argument("--p-max", type=float, default=0.999)
    sp.add_argument("--v-min", type=float, default=0.0)
    sp.add_argument("--v-max", type=float, default=0.01)
    sp.add_argument("--p-steps", type=int, default=50)
    sp.add_argument("--v-steps", type=int, default=50)
    sp.set_defaults(func=_cmd_grid)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    """Parse argv, run one subcommand, write its report; returns exit code."""
    try:
        args = build_parser().parse_args(argv)
        out = args.func(args)
        if isinstance(out, dict):
            write_report(out, sys.stdout)
        else:
            sys.stdout.writelines(out)
    except SystemExit as exc:  # argparse already printed usage or help
        return int(exc.code or 0)
    except (CovarError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_cli())
