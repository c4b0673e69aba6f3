#!/usr/bin/env python3
"""covar benchmark: one workload, one seed, one pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workloads are closed loops with one
client: each operation starts when the previous one has finished.

--trace 0 is the timed pass.  CLI operations run as child processes
(``covar.cli.main`` with PYTHONPATH=src), the minibatch loop runs in a
worker process.  It prints the end-to-end metrics.

--trace 1 is the traced pass.  The same operations run in this process,
each once untraced and once with spans around covar's public functions
(see tracing.py).  It prints the per-layer metrics and the tracing
overhead.

Every output is checked (checks.py); an operation that exits non-zero,
raises, prints nothing or fails a check counts as failed.  Human-readable
lines come first; the last line of stdout is the JSON result.  Details,
run metadata and input digests go to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CLI_ENTRY = "from covar.cli import main; main()"
DEADLINE_S = 170.0  # every run must end within 180 s
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
PROBE_PERIOD_S = 1.0  # operation time per machine-speed probe (probe.py)

N_ROWS, N_CLASSES = 100_000, 6
POOL_SIZE, BATCH_ROWS, WIDE_CLASSES = 8, 1024, 100
TAU, BINS = 0.95, 15
# Fixed work of the traced pass, so its per-cycle numbers compare across commits.
TRACE_CYCLES = {"report-1e5": 1, "summary-csv-1e5": 3, "minibatch-k100": 24}


class Op:
    """One CLI invocation and the check its report must pass."""

    def __init__(self, kind: str, argv: list, rows: int, check) -> None:
        self.kind, self.argv, self.rows, self.check = kind, argv, rows, check


class Run:
    """State of one benchmark run: work directory, deadline, records."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload, self.seed, self.work = workload, seed, work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
        self.records: list[dict] = []

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.records)

    def child(self, argv: list, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
        """Run a child to completion; returns (exit code, seconds, ru_maxrss in bytes)."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=stdout, stderr=stderr)
        timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, seconds, usage.ru_maxrss * 1024

    def record(self, kind: str, rows: int, seconds: float, error: str | None, **extra) -> None:
        self.records.append({"kind": kind, "rows": rows, "seconds": seconds, "ok": error is None,
                             "error": error, **extra})


# ---------------------------------------------------------------------------
# inputs


def make_inputs(workload: str, seed: int, work: Path) -> dict:
    """Generate and write the workload's inputs; returns the arrays."""
    import numpy as np

    from inputs import bimodal_matrix, write_binary, write_csv, write_labels

    rng = np.random.default_rng(seed)
    if workload == "minibatch-k100":
        pool = np.stack([bimodal_matrix(rng, BATCH_ROWS, WIDE_CLASSES)[0] for _ in range(POOL_SIZE)])
        np.save(work / "pool.npy", pool)
        return {"pool": pool}
    values, labels = bimodal_matrix(rng, N_ROWS, N_CLASSES)
    if workload == "report-1e5":
        write_binary(work / "m.bin", values)
    else:
        write_csv(work / "m.csv", values)
        write_labels(work / "l.txt", labels)
    return {"values": values, "labels": labels}


def setup(run: Run) -> tuple[list, dict, dict]:
    """Build the inputs SETUP_REPEATS times; the same seed must give the same bytes."""
    from inputs import file_digest

    times, digests = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        data = make_inputs(run.workload, run.seed, run.work)
        times.append(time.perf_counter() - t0)
        now = {p.name: file_digest(p) for p in sorted(run.work.iterdir()) if p.is_file()}
        if digests is not None and now != digests:
            raise RuntimeError("the same seed produced different inputs")
        digests = now
    return times, data, digests


# ---------------------------------------------------------------------------
# CLI workloads


def cli_ops(run: Run, data: dict) -> list:
    import checks
    from inputs import matrix_digest, read_csv, read_labels

    work, values, labels = run.work, data["values"], data["labels"]
    digest = matrix_digest(values)
    if run.workload == "report-1e5":
        matrix = str(work / "m.bin")
        sim_csv, sim_txt = work / "sim.csv", work / "sim.txt"
        ref = checks.select_reference(values)
        return [
            Op("simulate",
               ["simulate", "--n", str(N_ROWS), "--k", str(N_CLASSES), "--accuracy", "0.75",
                "--temp", "0.25", "--residual", "bimodal", "--seed", str(run.seed),
                "--out", str(sim_csv), "--labels-out", str(sim_txt)],
               N_ROWS,
               lambda doc: checks.check_simulate(doc, N_ROWS, read_csv(sim_csv), read_labels(sim_txt))),
            Op("decompose", ["decompose", "--input", matrix], N_ROWS,
               lambda doc: checks.check_decompose(doc, N_ROWS, digest)),
            Op("select", ["select", "--input", matrix], N_ROWS,
               lambda doc: checks.check_select(doc, N_ROWS, digest, ref)),
        ]
    matrix, label_file = str(work / "m.csv"), str(work / "l.txt")
    ref_compare = checks.compare_reference(values, labels, TAU)
    ref_ece = checks.ece_reference(values, labels, BINS)
    return [
        Op("compare", ["compare", "--input", matrix, "--labels", label_file, "--tau", str(TAU)], N_ROWS,
           lambda doc: checks.check_compare(doc, N_ROWS, digest, ref_compare)),
        Op("ece", ["ece", "--input", matrix, "--labels", label_file, "--bins", str(BINS)], N_ROWS,
           lambda doc: checks.check_ece(doc, N_ROWS, digest, ref_ece)),
    ]


def _verify(op: Op, code: int, text: str, stderr: str) -> str | None:
    """Why the operation failed, or None."""
    import checks

    if code != 0:
        return f"exit code {code}: {stderr.strip()[-300:]}"
    try:
        op.check(checks.parse(text))
    except checks.CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None


def _clear_outputs(run: Run) -> None:
    # A failed simulate must not be checked against the previous cycle's files.
    for name in ("sim.csv", "sim.txt"):
        (run.work / name).unlink(missing_ok=True)


def run_cli_child(run: Run, op: Op) -> None:
    _clear_outputs(run)
    out_path, err_path = run.work / "stdout.txt", run.work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        code, seconds, rss = run.child([sys.executable, "-c", CLI_ENTRY, *op.argv], stdout=out, stderr=err)
    text = out_path.read_text(encoding="utf-8", errors="replace")
    error = _verify(op, code, text, err_path.read_text(encoding="utf-8", errors="replace"))
    run.record(op.kind, op.rows, seconds, error, rss=rss)


def run_cli_in_process(run: Run, op: Op, tracer=None) -> None:
    from covar import cli

    _clear_outputs(run)
    buf, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        if tracer is None:
            code = cli.run_cli(op.argv)
        else:
            code = tracer.call("cli.run_cli", cli.run_cli, op.argv)
            if code != 0:
                tracer.errors["cli"] += 1
    seconds = time.perf_counter() - t0
    error = _verify(op, code, buf.getvalue(), err.getvalue())
    run.record(op.kind, op.rows, seconds, error, traced=tracer is not None)


def import_cli(run: Run) -> float:
    """Wall time of a fresh interpreter importing covar.cli."""
    return run.child([sys.executable, "-c", "import covar.cli"])[1]


def probe_child(run: Run) -> float:
    """Wall time of the reference probe run as a fresh process."""
    return run.child([sys.executable, str(HERE / "probe.py")])[1]


def timed_cli(run: Run, ops: list, seconds: float) -> dict:
    import_cli(run)  # warm the bytecode and page caches, untimed
    probe_child(run)  # warm-up, untimed
    probes = [probe_child(run)]
    cycles = []
    while sum(cycles) < seconds and time.monotonic() < run.deadline:
        start = len(run.records)
        for op in ops:
            run_cli_child(run, op)
            # About one probe per PROBE_PERIOD_S of operation time, so the
            # probes sample the run evenly.
            for _ in range(max(1, round(run.records[-1]["seconds"] / PROBE_PERIOD_S))):
                probes.append(probe_child(run))
        cycles.append(sum(r["seconds"] for r in run.records[start:]))
    return {"cycles": cycles, "peak_rss": max(r["rss"] for r in run.records), "probes": probes}


# ---------------------------------------------------------------------------
# minibatch workload


def timed_minibatch(run: Run, seconds: float) -> dict:
    result_path = run.work / "steps.json"
    code, _, rss = run.child(
        [sys.executable, str(HERE / "minibatch.py"), "--pool", str(run.work / "pool.npy"),
         "--seconds", repr(seconds), "--out", str(result_path)],
        stderr=None,
    )
    if code != 0:
        raise RuntimeError(f"minibatch worker exited with {code}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    record_steps(run, result["times"], result["ok"], result["messages"])
    return {"cycles": result["times"], "peak_rss": rss, "probes": result["probes"]}


def record_steps(run: Run, times: list, ok: list, messages: list, **extra) -> None:
    failures = iter(messages)
    for t, good in zip(times, ok):
        run.record("step", BATCH_ROWS, t, None if good else next(failures, "step failed"), **extra)


def criterion1() -> dict:
    """Acceptance criterion 1's work (rng 101, k in {3, 5, 10}, alpha in {0.6, 1, 3},
    both policies), timed from here.  Informational: the 10 s gate lives in the tests."""
    import numpy as np

    from covar.decomposition import EpsilonPolicy, decompose_sample
    from covar.stats import ProbabilityBatch, compute_stats

    rng = np.random.default_rng(101)
    policies = (EpsilonPolicy.adaptive(), EpsilonPolicy.fixed(0.01))
    kept = violations = 0
    t0 = time.perf_counter()
    for k in (3, 5, 10):
        for alpha in (0.6, 1.0, 3.0):
            rows = rng.dirichlet(np.full(k, alpha), size=22_000)
            for s in compute_stats(ProbabilityBatch.from_array(rows)):
                if s.degenerate or s.rho > 0.9:
                    continue
                kept += 1
                for pol in policies:
                    d = decompose_sample(s, pol)
                    violations += not abs(d.exact_ce - d.approx_ce) <= d.remainder_bound * (1.0 + 1e-9) + 1e-12
    return {
        "criterion1_s": (time.perf_counter() - t0, "s"),
        "criterion1_gate_s": (10.0, "s"),
        "criterion1_rows": (kept, "count"),
        "criterion1_violations": (violations, "count"),
    }


# ---------------------------------------------------------------------------
# the two passes


def timed_pass(run: Run, data: dict, seconds: float) -> tuple[dict, dict]:
    if run.workload == "minibatch-k100":
        res = timed_minibatch(run, seconds)
    else:
        res = timed_cli(run, cli_ops(run, data), seconds)
    rows_per_s = sum(r["rows"] for r in run.records) / sum(r["seconds"] for r in run.records)
    probe_s = statistics.median(res["probes"])
    metrics = {
        "rows_per_probe": (rows_per_s * probe_s, "rows/probe"),
        "peak_rss_mb": (res["peak_rss"] / 2**20, "MB"),
    }
    detail = {
        "rows_per_s": (rows_per_s, "rows/s"),
        "probe_s_p50": (probe_s, "s"),
        "probes": (len(res["probes"]), "count"),
        "cycles": (len(res["cycles"]), "count"),
        "cycle_s_p50": (statistics.median(res["cycles"]), "s"),
    }
    for kind in sorted({r["kind"] for r in run.records}):
        times = [r["seconds"] for r in run.records if r["kind"] == kind]
        detail[f"{kind}_n"] = (len(times), "count")
        detail[f"{kind}_s_p50"] = (statistics.median(times), "s")
        if len(times) >= 100:  # p90 needs at least 10 samples beyond it
            detail[f"{kind}_s_p90"] = (statistics.quantiles(times, n=10, method="inclusive")[8], "s")
    return metrics, detail


def _paired(tracer, op_id: int, plain, traced) -> None:
    """Run one operation untraced and traced.  Which goes first alternates,
    so warm-up effects do not all land on one side of the overhead."""
    for with_trace in (False, True) if op_id % 2 == 0 else (True, False):
        gc.collect()
        if not with_trace:
            plain()
            continue
        tracer.op_id = op_id
        tracer.install()
        try:
            traced()
        finally:
            tracer.uninstall()


def traced_pass(run: Run, data: dict) -> tuple[dict, dict, dict]:
    from tracing import Tracer

    cycles = TRACE_CYCLES[run.workload]
    tracer = Tracer()
    rows_by_op: dict = {}
    detail: dict = {}
    startup = 0.0
    if run.workload == "minibatch-k100":
        import minibatch

        detail.update(criterion1())
        pool = data["pool"]
        minibatch.step(pool[0])  # warm-up, untimed
        plain, loop = minibatch.Loop(pool), minibatch.Loop(pool)
        for i in range(cycles):
            _paired(tracer, i, lambda: plain.run_step(i), lambda: loop.run_step(i))
            rows_by_op[i] = BATCH_ROWS
        record_steps(run, plain.times, plain.ok, plain.messages, traced=False)
        record_steps(run, loop.times, loop.ok, loop.messages, traced=True)
    else:
        ops = cli_ops(run, data)
        import_cli(run)  # warm-up, untimed
        startup = statistics.median(import_cli(run) for _ in range(STARTUP_REPEATS))
        for cycle in range(cycles):
            for j, op in enumerate(ops):
                op_id = cycle * len(ops) + j
                _paired(tracer, op_id, lambda: run_cli_in_process(run, op),
                        lambda: run_cli_in_process(run, op, tracer))
                rows_by_op[op_id] = op.rows
    untraced = sum(r["seconds"] for r in run.records if not r["traced"])
    traced = sum(r["seconds"] for r in run.records if r["traced"])
    return layer_metrics(tracer, cycles, rows_by_op, startup, untraced, traced), detail, tracer.dump()


def layer_metrics(tracer, cycles: int, rows_by_op: dict, startup: float, untraced: float, traced: float) -> dict:
    total, own, calls = tracer.layer_times()
    counts = tracer.counts

    def per_row(name: str, amount: float) -> float:
        rows = sum(rows_by_op[op] for op in tracer.ops_calling(name))
        return amount / rows if rows else 0.0

    values = {
        "cli.startup_s": startup,
        "io.report_bytes": counts["io.report_bytes"] / cycles,
        "stats.compute_stats.rows_per_input_row": per_row(
            "stats.compute_stats", counts["stats.compute_stats.rows"]),
        "decomposition.decompose_sample.calls_per_row": per_row(
            "decomposition.decompose_sample", calls.get("decomposition.decompose_sample", 0)),
        "pcos.preserved_ratio": counts["pcos.preserved"] / counts["pcos.rows"] if counts["pcos.rows"] else 0.0,
        "pcos.rank_deficient": counts["pcos.rank_deficient"],
        "trace.overhead_s": (traced - untraced) / cycles,
        "trace.overhead_ratio": (traced - untraced) / untraced,
    }
    metrics = {}
    for name, unit, _better, _meaning in spec.PER_LAYER:
        if name in values:
            value = values[name]
        elif name.endswith(".errors"):
            value = tracer.errors[name[: -len(".errors")]]
        elif name.endswith(".self_s"):
            value = own.get(name[: -len(".self_s")], 0.0) / cycles
        else:
            value = total.get(name[: -len(".s")], 0.0) / cycles
        metrics[name] = (value, unit)
    return metrics


# ---------------------------------------------------------------------------
# reporting


def metadata(run: Run) -> dict:
    import numpy as np

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "thread_env": THREAD_ENV,
        "operations": len(run.records),
    }


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description="covar benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", choices=[w for w, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json(), encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "covar" / "cli.py").is_file():
        print(f"error: no covar sources under {SRC}", file=sys.stderr)
        return 2
    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds
    # Turn SIGTERM into SystemExit so the running child is killed and the
    # work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # numpy reads the thread settings when it is first imported.
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        run = Run(args.workload, args.seed, work)
        setup_times, data, digests = setup(run)
        if args.trace:
            metrics, detail, trace = traced_pass(run, data)
        else:
            metrics, detail = timed_pass(run, data, seconds)
            metrics["setup_s"] = (statistics.median(setup_times), "s")
            trace = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m[0] for m in (spec.PER_LAYER if args.trace else spec.END_TO_END)]
    attempted, failed = len(run.records), run.failed
    detail["fail_ratio"] = (failed / attempted, "ratio")
    meta = metadata(run)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"operations={attempted} failed={failed}")
    for name in names:
        value, unit = metrics[name]
        print(f"  {name:<46} {value:>16.6g} {unit}")
    for name, (value, unit) in detail.items():
        print(f"  {name:<46} {value:>16.6g} {unit}  (not gated)")
    for r in run.records:
        if not r["ok"]:
            print(f"  failed {r['kind']}: {r['error']}")
    print(f"  inputs {json.dumps(digests)}")
    print(f"  meta {json.dumps(meta)}")

    results = OUT / "results"
    results.mkdir(exist_ok=True)
    doc = {"workload": args.workload, "seed": args.seed, "seconds": seconds, "trace": args.trace,
           "meta": meta, "input_sha256": digests, "setup_s": setup_times,
           "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
           "detail": {n: {"value": v, "unit": u} for n, (v, u) in detail.items()}, "operations": run.records, "spans": trace}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
