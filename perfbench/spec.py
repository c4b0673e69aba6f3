"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``) and the self-tests check that
the two agree.
"""

from __future__ import annotations

import json

RUN_SECONDS = 15

WORKLOADS = [
    (
        "report-1e5",
        "simulate, decompose and select CLI runs on a 1e5 x 6 bimodal binary matrix: "
        "per-sample reports (18-55 MB of JSON) make report writing and per-row objects the work",
    ),
    (
        "summary-csv-1e5",
        "compare and ece CLI runs on a 1e5 x 6 bimodal CSV matrix: kB reports, so CSV parsing, "
        "stats, pcos, baselines and process start-up are the work",
    ),
    (
        "minibatch-k100",
        "in-process training steps on 1024 x 100 batches: no process start-up, file I/O or JSON, "
        "wide rows make per-call and per-residual Python overhead the work",
    ),
]

# (name, unit, better, bound, meaning).  Every workload reports every
# metric.  The rate is counted in probe-times: the raw rate times the
# median time of a fixed reference computation run through the run
# (probe.py), because on a shared VM the CPU speed drifts by up to 30%
# between runs.  Raw rates and per-subcommand latencies are printed beside
# these, not gated (see README.md).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25, "median time to generate and write the workload's inputs"),
    ("rows_per_probe", "rows/probe", "higher", 0.24,
     "input rows processed per probe-time of operation wall time"),
    ("peak_rss_mb", "MB", "lower", 0.10, "highest ru_maxrss of the process doing the work"),
]

# (name, unit, better, meaning).  Times are per cycle of the traced pass.
PER_LAYER = [
    ("cli.startup_s", "s", "lower", "median wall time of a fresh `python -c 'import covar.cli'`"),
    ("cli.run_cli.self_s", "s", "lower", "run_cli minus traced calls: argparse, per-sample dict building"),
    ("io.serialize_report.s", "s", "lower", "report writing"),
    ("io.report_bytes", "bytes", "lower", "report text written"),
    ("io.load_matrix.s", "s", "lower", "matrix reading, validation included"),
    ("io.load_matrix.self_s", "s", "lower", "matrix parsing alone"),
    ("io.load_labels.s", "s", "lower", "label file reading"),
    ("io.save_matrix.s", "s", "lower", "matrix writing"),
    ("io.matrix_digest.s", "s", "lower", "input digests for report headers"),
    ("stats.from_array.s", "s", "lower", "ProbabilityBatch validation"),
    ("stats.compute_stats.s", "s", "lower", "per-row PredictionStats"),
    ("stats.compute_stats.rows_per_input_row", "ratio", "lower",
     "rows passed through compute_stats per input row of the operations that call it"),
    ("decomposition.decompose_batch.s", "s", "lower", "batch decomposition"),
    ("decomposition.decompose_batch.self_s", "s", "lower", "batch decomposition outside decompose_sample"),
    ("decomposition.decompose_sample.s", "s", "lower", "per-row decomposition, summed"),
    ("decomposition.decompose_sample.calls_per_row", "ratio", "lower",
     "decompose_sample calls per input row of the operations that call it"),
    ("pcos.pcos.s", "s", "lower", "the PCOS pipeline"),
    ("pcos.pcos.self_s", "s", "lower", "PCOS outside its traced stages"),
    ("pcos.embed.s", "s", "lower", "2 x N embedding"),
    ("pcos.spectral_assign.s", "s", "lower", "spectral bipartition"),
    ("pcos.cluster_statistics.s", "s", "lower", "per-cluster mean and std"),
    ("pcos.gaussian_weights.s", "s", "lower", "reliability weights"),
    ("pcos.preserved_ratio", "ratio", "higher", "preserved samples per PCOS row; must repeat exactly"),
    ("pcos.rank_deficient", "count", "lower", "rank-deficient PCOS splits; must repeat exactly"),
    ("baseline.ece.s", "s", "lower", "binned calibration error"),
    ("baseline.threshold_select.s", "s", "lower", "fixed-threshold selection"),
    ("simulator.generate.s", "s", "lower", "synthetic batch generation"),
    ("simulator.generate.self_s", "s", "lower", "generation outside validation"),
    ("simulator.evaluate_policies.s", "s", "lower", "policy comparison"),
    ("simulator.evaluate_policies.self_s", "s", "lower", "policy comparison outside pcos and baselines"),
    ("cli.errors", "count", "lower", "non-zero exits of run_cli"),
    ("io.errors", "count", "lower", "exceptions first raised in io"),
    ("stats.errors", "count", "lower", "exceptions first raised in stats"),
    ("decomposition.errors", "count", "lower", "exceptions first raised in decomposition"),
    ("pcos.errors", "count", "lower", "exceptions first raised in pcos"),
    ("baseline.errors", "count", "lower", "exceptions first raised in baseline"),
    ("simulator.errors", "count", "lower", "exceptions first raised in simulator"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced wall time per cycle"),
    ("trace.overhead_ratio", "ratio", "lower", "tracing overhead over untraced wall time"),
]


def benchmark_json() -> str:
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }
    return json.dumps(doc, indent=2) + "\n"
