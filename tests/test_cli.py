"""End-to-end CLI behaviour: reports, exit codes, determinism."""
from __future__ import annotations

import dataclasses
import io
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import covar
from covar import cli
from covar.baseline import ThresholdPolicy, ece as compute_ece
from covar.cli import run_cli
from covar.decomposition import EpsilonPolicy, decompose_sample, g_coefficient
from covar.io import format_float, load_labels, load_matrix, matrix_digest, parse_report, save_matrix
from covar.pcos import DEFAULT_LAMBDA
from covar.simulator import CovarPolicy, SyntheticConfig, evaluate_policies, generate
from covar.stats import ProbabilityBatch
from oracles import report_rows, report_text, report_values


def run_python(*args, timeout=None, stdin=None) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a child that imports the same covar as this process."""
    path = [str(Path(covar.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout, stdin=stdin
    )


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def matrix_csv(tmp_path):
    rows = np.array(
        [
            [0.7, 0.2, 0.1],
            [0.5, 0.35, 0.15],
            [0.05, 0.9, 0.05],
            [0.34, 0.33, 0.33],
        ]
    )
    path = tmp_path / "m.csv"
    save_matrix(ProbabilityBatch.from_array(rows), path)
    return path


@pytest.fixture()
def labels_file(tmp_path):
    path = tmp_path / "y.txt"
    path.write_text("0\n1\n1\n2\n")
    return path


def test_decompose_report(capsys, matrix_csv):
    code, out, err = run(capsys, "decompose", "--input", str(matrix_csv))
    assert code == 0 and err == ""
    doc = parse_report(out)
    assert doc["report"] == "decompose"
    assert doc["config"] == {"epsilon": "adaptive", "paper_literal": False}
    assert doc["input"]["n_samples"] == 4
    assert doc["input"]["digest"] == matrix_digest(load_matrix(matrix_csv))
    assert len(doc["samples"]) == 4
    s0 = doc["samples"][0]
    d0 = decompose_sample(load_matrix(matrix_csv)[0], EpsilonPolicy.adaptive())
    assert s0["exact_ce"] == pytest.approx(d0.exact_ce, rel=1e-15)
    assert s0["g_coeff"] == pytest.approx(d0.g_coeff, rel=1e-15)
    assert s0["assumption_ok"] is True
    batch = doc["batch"]
    assert batch["n_samples"] == 4
    assert batch["srcv"] == pytest.approx(batch["g_bar"] * batch["v_bar"], rel=1e-12)


def test_decompose_fixed_epsilon_and_paper_literal(capsys, matrix_csv):
    code, out, _ = run(
        capsys, "decompose", "--input", str(matrix_csv), "--epsilon", "0.05",
        "--paper-literal",
    )
    assert code == 0
    doc = parse_report(out)
    assert doc["config"] == {"epsilon": 0.05, "paper_literal": True}
    assert all(s["epsilon"] == 0.05 for s in doc["samples"])


def test_decompose_bad_epsilon_is_usage_error(capsys, matrix_csv, tmp_path):
    # --epsilon is checked before the matrix is read, so a missing input
    # still gets the flag's message; 1e-400 parses as 0, so the message
    # quotes the text as typed; no K allows a value of 1 or more
    paths = (matrix_csv, tmp_path / "nope.csv")
    values = ("tiny", "0", "-1", "nan", "1e-400", "inf", "1", "2.5")
    for path, value in itertools.product(paths, values):
        code, out, err = run(capsys, "decompose", "--input", str(path), "--epsilon", value)
        assert (code, out) == (2, "")
        assert "--epsilon" in err and repr(value) in err and "Errno" not in err


def test_decompose_handles_sub_ulp_residuals(capsys, tmp_path):
    # residual probabilities far below one ulp of their mean (the kind of
    # rows temperature sharpening produces) must still decompose finitely
    row = np.array([5.9e-04, 2.1e-28, 4.5e-18, 3.5e-02, 2.6e-14, 0.0])
    row[-1] = 1.0 - row.sum()
    path = tmp_path / "sharp.csv"
    save_matrix(ProbabilityBatch.from_array(row[None, :]), path)
    code, out, err = run(capsys, "decompose", "--input", str(path))
    assert code == 0 and err == ""
    doc = parse_report(out)
    s0 = doc["samples"][0]
    assert math.isfinite(s0["exact_ce"]) and s0["exact_ce"] > 0.0
    assert s0["remainder_bound"] is None  # rho >= 1: certificate withdrawn
    assert s0["assumption_ok"] is False


def test_decompose_zero_residual_is_domain_error(capsys, tmp_path):
    path = tmp_path / "zero.csv"
    save_matrix(ProbabilityBatch.from_array(np.array([[0.9, 0.1, 0.0]])), path)
    code, _, err = run(capsys, "decompose", "--input", str(path))
    assert code == 2
    assert "sample 0" in err


def test_overflowing_row_sum_exits_2_with_one_stderr_line(tmp_path):
    # in a child process, so a numpy RuntimeWarning would reach stderr
    path = tmp_path / "ovf.csv"
    path.write_text("c0,c1\n0.5,0.5\n1e308,1e308\n")
    proc = run_python("-m", "covar", "decompose", "--input", str(path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [f"error: {path}:3: sum inf deviates from 1 by more than 1e-06"]


def test_select_report(capsys, matrix_csv):
    code, out, _ = run(capsys, "select", "--input", str(matrix_csv))
    assert code == 0
    doc = parse_report(out)
    assert doc["report"] == "select"
    part = doc["partition"]
    assert part["reliable_cluster"] in (0, 1)
    assert sum(c["size"] for c in part["clusters"]) == 4
    weights = [s["weight"] for s in doc["samples"]]
    assert all(0.0 <= w <= 1.0 for w in weights)
    clusters = {s["cluster"] for s in doc["samples"]}
    assert clusters <= {0, 1}


def test_select_flag_echo(capsys, matrix_csv):
    code, out, _ = run(
        capsys, "select", "--input", str(matrix_csv),
        "--embedding", "raw", "--lambda", "0.5", "--alg1-exponent",
    )
    assert code == 0
    doc = parse_report(out)
    assert doc["config"] == {"embedding": "raw", "lambda": 0.5, "alg1_exponent": True}
    assert doc["partition"]["embedding"] == "raw"


def test_simulate_writes_artifacts(capsys, tmp_path):
    mpath = tmp_path / "sim.bin"
    ypath = tmp_path / "sim-labels.txt"
    code, out, _ = run(
        capsys, "simulate", "--n", "40", "--k", "5", "--accuracy", "0.8",
        "--seed", "3", "--out", str(mpath), "--labels-out", str(ypath),
    )
    assert code == 0
    doc = parse_report(out)
    assert doc["report"] == "simulate"
    assert doc["config"]["n_samples"] == 40
    batch = load_matrix(mpath)
    labels = load_labels(ypath, 5)
    assert batch.values.shape == (40, 5)
    assert labels.shape == (40,)
    assert doc["input"]["digest"] == matrix_digest(batch)
    acc = float(np.mean(batch.values.argmax(axis=1) == labels))
    assert doc["summary"]["accuracy"] == pytest.approx(acc)


def test_compare_on_files(capsys, matrix_csv, labels_file):
    code, out, _ = run(
        capsys, "compare", "--input", str(matrix_csv), "--labels", str(labels_file),
        "--tau", "0.6",
    )
    assert code == 0
    doc = parse_report(out)
    names = [p["name"] for p in doc["policies"]]
    assert names == ["fixed-tau=0.6", "covar-pcos"]
    fixed = doc["policies"][0]
    # rows 0 and 2 clear tau = 0.6; row 0 correct, row 2 correct
    assert fixed["n_selected"] == 2
    assert fixed["selected_accuracy"] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--n", "999"), ("--k", "7"), ("--priors", "0.5,0.5"), ("--accuracy", "0.5"),
        ("--temp", "0.1"), ("--residual", "bimodal"), ("--seed", "5"),
    ],
)
def test_compare_simulation_flags_exit_2(capsys, matrix_csv, labels_file, flag, value):
    # compare reads its batch only from files; simulate --out/--labels-out writes them
    files = ("--input", str(matrix_csv), "--labels", str(labels_file))
    code, out, err = run(capsys, "compare", *files, flag, value)
    assert (code, out) == (2, "") and f"unrecognized arguments: {flag} {value}" in err


@pytest.mark.parametrize("name", ["m.csv", "m.bin"])
def test_compare_on_simulated_files_matches_library(capsys, tmp_path, name):
    mpath, ypath = tmp_path / name, tmp_path / "y.txt"
    code, _, _ = run(
        capsys, "simulate", "--n", "300", "--k", "6", "--temp", "0.25",
        "--residual", "bimodal", "--seed", "1", "--out", str(mpath), "--labels-out", str(ypath),
    )
    assert code == 0
    code, out, err = run(capsys, "compare", "--input", str(mpath), "--labels", str(ypath))
    assert (code, err) == (0, "")
    doc = parse_report(out)
    assert doc["config"] == {"tau": 0.95, "embedding": "theory", "lambda": DEFAULT_LAMBDA}
    config = SyntheticConfig.uniform_priors(
        300, 6, base_accuracy=0.75, overconfidence_temp=0.25, residual_mode="bimodal", seed=1
    )
    policies = [ThresholdPolicy(tau=0.95), CovarPolicy(kind="theory", lam=DEFAULT_LAMBDA)]
    evals = evaluate_policies(*generate(config), policies)
    assert len(doc["policies"]) == len(evals)
    for got, e in zip(doc["policies"], evals):
        want = {
            "name": e.name,
            "n_selected": e.n_selected,
            "selected_accuracy": e.selected_accuracy,
            "weighted_accuracy": e.weighted_accuracy,
            "mean_weight": e.mean_weight,
            "ece": e.ece,
        }
        assert {key: got[key] for key in want} == want
        assert [(r["label"], r["count"], r["retained"]) for r in got["retention"]] == [
            (r.label, r.count, r.retained) for _, r in sorted(e.retention.items())
        ]


def test_compare_usage_errors(capsys, matrix_csv, labels_file):
    cases = {
        ("--input", str(matrix_csv)): "required: --labels",
        ("--labels", str(labels_file)): "required: --input",
        (): "required: --input, --labels",
        ("--n", "50", "--k", "3"): "required: --input, --labels",
    }
    for argv, message in cases.items():
        code, out, err = run(capsys, "compare", *argv)
        assert (code, out) == (2, "") and message in err


def test_ece_report_matches_library(capsys, matrix_csv, labels_file):
    code, out, _ = run(
        capsys, "ece", "--input", str(matrix_csv), "--labels", str(labels_file),
        "--bins", "4",
    )
    assert code == 0
    doc = parse_report(out)
    batch = load_matrix(matrix_csv)
    labels = load_labels(labels_file, 3)
    conf = batch.values.max(axis=1)
    correct = batch.values.argmax(axis=1) == labels
    want = compute_ece(conf, correct, n_bins=4)
    assert doc["calibration"]["ece"] == pytest.approx(want.ece, rel=1e-15)
    assert len(doc["calibration"]["bins"]) == 4
    assert sum(b["count"] for b in doc["calibration"]["bins"]) == 4
    empty = [b for b in doc["calibration"]["bins"] if b["count"] == 0]
    assert all(b["confidence"] is None for b in empty)


def test_ece_label_count_mismatch(capsys, matrix_csv, tmp_path):
    short = tmp_path / "short.txt"
    short.write_text("0\n1\n")
    for command in ("ece", "compare"):
        code, _, err = run(
            capsys, command, "--input", str(matrix_csv), "--labels", str(short)
        )
        assert code == 2 and "short.txt: 2 labels for 4 samples" in err


def test_grid_stdout_and_frozen_corner(capsys):
    code, out, _ = run(capsys, "grid", "--p-steps", "3", "--v-steps", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,v,ce"
    assert len(lines) == 1 + 3 * 2
    # first sample: p = 0.5, v = 0, K = 21 -> ce = -log(0.5)
    p, v, ce = (float(x) for x in lines[1].split(","))
    assert (p, v) == (0.5, 0.0)
    assert ce == pytest.approx(math.log(2.0), rel=1e-15)
    # dispersion raises the surface at fixed p
    p2, v2, ce2 = (float(x) for x in lines[2].split(","))
    assert p2 == 0.5 and v2 > 0 and ce2 > ce


def test_python_dash_m_entry_point_matches_run_cli(capsys):
    argv = ["grid", "--p-steps", "2", "--v-steps", "2"]
    proc = run_python("-m", "covar", *argv)
    code, out, _ = run(capsys, *argv)
    assert (proc.returncode, proc.stderr) == (0, "") and code == 0
    assert proc.stdout == out


@pytest.mark.parametrize(
    "argv",
    [("decompose", "--format", "csv"), ("simulate", "--format", "binary"), ("grid", "--emit", "x")],
)
def test_removed_flags_exit_2(capsys, matrix_csv, argv):
    # the file name alone decides the matrix format, and grid writes to stdout
    extra = {"decompose": ("--input", str(matrix_csv)), "simulate": ("--n", "5", "--k", "3")}
    code, out, err = run(capsys, *argv, *extra.get(argv[0], ()))
    assert (code, out) == (2, "") and f"unrecognized arguments: {' '.join(argv[1:])}" in err


def test_grid_bad_ranges(capsys):
    code, _, err = run(capsys, "grid", "--p-min", "0.9", "--p-max", "0.5")
    assert code == 2 and "p-min" in err
    # p must stay inside [1/K, CONF_CEILING], where g is defined
    for bounds in (("--p-min", "0.01"), ("--p-max", "0.9999999")):
        code, _, err = run(capsys, "grid", "--k", "21", *bounds)
        assert code == 2 and "outside" in err
    for flag in ("--p-steps", "--v-steps"):
        code, _, err = run(capsys, "grid", flag, "-1")
        assert code == 2 and flag in err and "-1" in err
    for bounds in (("--v-min", "0.02", "--v-max", "0.01"), ("--v-min", "-1")):
        code, out, err = run(capsys, "grid", *bounds)
        assert (code, out, err) == (2, "", "error: need 0 <= v-min <= v-max\n")
    code, out, err = run(capsys, "grid", "--k", "1")
    assert (code, out, err) == (2, "", "error: need at least 2 classes, got 1\n")
    # every p, v and ce written must be finite
    for v_max in ("inf", "1e308"):
        code, out, err = run(capsys, "grid", "--v-max", v_max, "--p-steps", "2", "--v-steps", "2")
        assert (code, out) == (2, "") and "--v-max" in err and "Warning" not in err
    # every (p, v) is checked before the first row is written, and the first p that overflows is named
    code, out, err = run(capsys, "grid", "--v-max", "1e305", "--p-steps", "3", "--v-steps", "3")
    assert (code, out, err) == (2, "", "error: --v-max 1e+305 makes ce overflow at p = 0.999\n")


def grid_reference(k=21, p_min=0.5, p_max=0.999, v_min=0.0, v_max=0.01, p_steps=50, v_steps=50):
    """grid's CSV text from one math.log, one product and sum and three
    format_float calls per (p, v): the per-value loop it replaced."""
    ps = np.linspace(p_min, p_max, p_steps)
    vs = np.linspace(v_min, v_max, v_steps).tolist()
    gs = g_coefficient(ps, k, EpsilonPolicy.adaptive())
    lines = ["p,v,ce"]
    for p, g in zip(ps.tolist(), gs.tolist()):
        for v in vs:
            lines.append(",".join(map(format_float, (p, v, -math.log(p) + g * v))))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "options",
    [
        {},
        {"p_steps": 90, "v_steps": 100},  # 9,000 rows: three chunks
        {"k": 3, "p_min": 0.34, "p_max": 0.999999, "p_steps": 300, "v_steps": 40, "v_max": 1e5},
        {"p_steps": 0},
        {"v_steps": 0},
        {"v_max": 1e308, "p_steps": 2, "v_steps": 1},  # the grid's only v is --v-min, so ce is finite
        {"p_steps": 3, "v_steps": 10000},  # one p's row is longer than a chunk
    ],
)
def test_grid_matches_the_per_value_reference(capsys, options):
    argv = [f"--{name.replace('_', '-')}={value}" for name, value in options.items()]
    code, out, err = run(capsys, "grid", *argv)
    assert (code, err) == (0, "")
    assert out == grid_reference(**options)
    assert out.count("\n") - 1 == options.get("p_steps", 50) * options.get("v_steps", 50)


def test_grid_holds_one_chunk_of_the_surface_at_a_time(monkeypatch):
    class Null(io.TextIOBase):
        def write(self, text):
            return len(text)

    monkeypatch.setattr(sys, "stdout", Null())
    argv = ["grid", "--p-steps", "300", "--v-steps", "1000"]
    assert run_cli(argv) == 0  # the first run loads modules and the text kernel's tables
    tracemalloc.start()
    try:
        assert run_cli(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6  # bytes; the 300,000-row surface's three float64 columns alone are 7.2 MB


def test_near_uniform_row_decomposes_and_selects(capsys, tmp_path):
    # sums to 1 - 5e-10, inside the window rows are kept untouched in, so
    # its max entry sits below 1/K by more than roundoff
    rows = np.array([[0.2 * (1.0 - 5e-10)] * 5, [0.6, 0.1, 0.1, 0.1, 0.1]])
    path = tmp_path / "flat.csv"
    save_matrix(ProbabilityBatch.from_array(rows), path)
    assert load_matrix(path).values[0, 0] < 0.2 * (1.0 - 1e-12)
    for command in ("decompose", "select"):
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 0 and err == ""
        assert parse_report(out)["samples"][0]["max_conf"] == rows[0, 0]


def test_missing_and_malformed_inputs(capsys, tmp_path):
    code, _, _ = run(capsys, "decompose", "--input", str(tmp_path / "nope.csv"))
    assert code == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("c0,c1\n0.9,oops\n")
    code, _, _ = run(capsys, "select", "--input", str(bad))
    assert code == 2
    notprob = tmp_path / "notprob.csv"
    notprob.write_text("c0,c1\n0.9,0.9\n")
    code, _, _ = run(capsys, "decompose", "--input", str(notprob))
    assert code == 2
    # an output path in a missing directory
    code, out, err = run(
        capsys, "simulate", "--n", "5", "--k", "3", "--out", str(tmp_path / "missing" / "m.bin")
    )
    assert (code, out) == (2, "") and err.startswith("error: ") and "missing" in err


def test_failed_simulate_leaves_no_file_it_created(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ("simulate", "--n", "5", "--k", "3", "--out", "m.bin", "--labels-out", "missing/y.txt")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and "error: [Errno 2] No such file or directory: 'missing/y.txt'" in err
    assert not (tmp_path / "m.bin").exists()
    # a file that was there before the run keeps its bytes, and no new file is left
    (tmp_path / "m.bin").write_bytes(b"kept")
    assert run(capsys, *argv)[0] == 2 and (tmp_path / "m.bin").read_bytes() == b"kept"
    assert sorted(os.listdir(tmp_path)) == ["m.bin"]
    # a run that succeeds replaces it
    assert run(capsys, *argv[:-1], "y.txt")[0] == 0
    assert sorted(os.listdir(tmp_path)) == ["m.bin", "y.txt"]
    assert load_matrix(tmp_path / "m.bin").values.shape == (5, 3)
    # an internal error in a later write exits 1 and leaves no staged file either
    (tmp_path / "internal").mkdir()
    monkeypatch.chdir(tmp_path / "internal")

    def broken(*_):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "save_labels", broken)
    code, out, err = run(capsys, *argv[:-1], "y.txt")
    assert (code, out, err) == (1, "", "internal error: RuntimeError: boom\n")
    assert os.listdir(tmp_path / "internal") == []


CHUNK = covar.io._CHUNK_ROWS
STREAM_SIZES = (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)


@pytest.fixture(scope="module")
def sized_matrices(tmp_path_factory):
    """A bimodal matrix file per size; its last row has an infinite
    remainder bound (rho >= 1)."""
    sharp = np.array([5.9e-04, 2.1e-28, 4.5e-18, 3.5e-02, 2.6e-14, 0.0])
    sharp[-1] = 1.0 - sharp.sum()
    root = tmp_path_factory.mktemp("sized")
    config = SyntheticConfig.uniform_priors(
        2 * CHUNK + 1, 6, base_accuracy=0.75, overconfidence_temp=0.25, residual_mode="bimodal", seed=8
    )
    values = generate(config)[0].values
    paths = {}
    for n in STREAM_SIZES:
        paths[n] = root / f"m{n}.bin"
        save_matrix(ProbabilityBatch.from_array(np.vstack([values[: n - 1], sharp])), paths[n])
    return paths


@pytest.mark.parametrize("n", STREAM_SIZES)
@pytest.mark.parametrize(
    "argv",
    [
        ("decompose",),
        ("decompose", "--epsilon", "0.01"),
        ("decompose", "--paper-literal"),
        ("select",),
        ("simulate", "--k", "6", "--temp", "0.25", "--residual", "bimodal", "--seed", "4"),
        ("ece",),
    ],
)
def test_streamed_report_equals_per_row_dict_report(
    capsys, monkeypatch, sized_matrices, matrix_csv, labels_file, argv, n
):
    # per-sample sections cross chunk boundaries at these sizes; ece's
    # section is its bins
    extra = {
        "simulate": ("--n", str(n)),
        "ece": ("--input", str(matrix_csv), "--labels", str(labels_file), "--bins", str(n)),
    }
    argv = (*argv, *extra.get(argv[0], ("--input", str(sized_matrices[n]))))
    code, out, err = run(capsys, *argv)
    docs = []
    real = cli.write_report

    def recording(doc, stream):
        docs.append(doc)
        real(doc, stream)

    monkeypatch.setattr(cli, "Columns", report_rows)
    monkeypatch.setattr(cli, "write_report", recording)
    rows = run(capsys, *argv)
    assert (rows[0], rows[2]) == (code, err) and code == (2 if argv[0] == "select" and n == 1 else 0)
    # the per-row dicts' values, bit for bit, in the per-row text; not asserted
    # inline: a diff of MBs of text is slow
    same = out == rows[1] == "" if code else (
        report_values(out) == report_values(rows[1]) and out == report_text(docs[0])
    )
    assert same


def test_report_reaches_stdout_a_chunk_at_a_time(monkeypatch, sized_matrices):
    sizes = []

    class Stdout(io.StringIO):
        def write(self, text):
            sizes.append(len(text))
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", Stdout())
    assert run_cli(["decompose", "--input", str(sized_matrices[2 * CHUNK + 1])]) == 0
    assert max(sizes) < sum(sizes) / 2  # the samples went out in three chunks


def test_a_failing_chunk_exits_1_after_the_chunks_before_it(capsys, monkeypatch, sized_matrices):
    argv = ("decompose", "--input", str(sized_matrices[2 * CHUNK + 1]))
    whole = run(capsys, *argv)[1]
    real = covar._floattext.int_fields

    def failing(values):
        if len(values) and values[0] == 2 * CHUNK:  # the index column of the last chunk
            raise RuntimeError("chunk failed")
        return real(values)

    monkeypatch.setattr(covar._floattext, "int_fields", failing)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "internal error: RuntimeError: chunk failed\n")
    # stdout holds the report up to the failing chunk's first row
    assert out == whole[: whole.index(f',{{"index":{2 * CHUNK},')]
    # write_report raises what the chunk raised
    doc = {"samples": covar.io.Columns({"x": np.arange(2 * CHUNK + 1)})}
    with pytest.raises(RuntimeError, match="chunk failed"):
        covar.io.write_report(doc, io.StringIO())


def test_a_closed_stdout_exits_2(monkeypatch, sized_matrices):
    class Closed(io.StringIO):
        def write(self, text):
            if len(text) > 30_000:  # the first chunk of samples
                raise BrokenPipeError(32, "Broken pipe")
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", Closed())
    assert run_cli(["decompose", "--input", str(sized_matrices[2 * CHUNK + 1])]) == 2
    doc = {"samples": covar.io.Columns({"x": np.zeros(2 * CHUNK + 1)})}
    with pytest.raises(BrokenPipeError):
        covar.io.write_report(doc, Closed())


def test_a_piped_report_matches_the_in_process_bytes(capsys, sized_matrices):
    # the report goes to a pipe, as from a shell; stdout gets the
    # in-process run's bytes, each once
    argv = ["decompose", "--input", str(sized_matrices[2 * CHUNK + 1])]
    proc = run_python("-m", "covar", *argv)
    code, out, _ = run(capsys, *argv)
    same = proc.stdout == out
    assert same and (proc.returncode, proc.stderr) == (0, "") and code == 0


def test_no_command_starts_a_pool_or_a_thread(tmp_path, matrix_csv, labels_file, sized_matrices):
    # every command formats its text in the calling thread, so none loads
    # a pool or starts a thread
    script = (
        "import os, sys, threading\n"
        "from covar.cli import run_cli\n"
        "matrix, labels, big, out = sys.argv[1:]\n"
        "for cmd in ('ece', 'compare'):\n"
        "    assert run_cli([cmd, '--input', matrix, '--labels', labels]) == 0\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        "for cmd in ('decompose', 'select'):\n"
        "    assert run_cli([cmd, '--input', big]) == 0\n"
        f"assert run_cli(['simulate', '--n', '{2 * CHUNK + 1}', '--k', '6', '--out', out]) == 0\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "assert threading.active_count() == 1\n"
    )
    big = sized_matrices[2 * CHUNK + 1]
    proc = run_python("-c", script, str(matrix_csv), str(labels_file), str(big), str(tmp_path / "m.csv"))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("flag", ["--input", "--labels"])
def test_a_text_input_from_a_named_pipe_exits_2(tmp_path, matrix_csv, labels_file, flag):
    # a CSV matrix or labels file is opened more than once, which a pipe
    # cannot serve; nothing writes to this one, so a reader that opened it
    # would wait until the timeout
    fifo = tmp_path / ("fifo.csv" if flag == "--input" else "fifo.txt")
    os.mkfifo(fifo)
    files = {"--input": str(matrix_csv), "--labels": str(labels_file), flag: str(fifo)}
    proc = run_python("-m", "covar", "ece", *itertools.chain(*files.items()), timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {fifo}: not a regular file; text inputs are read more than once\n"


@pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="needs /dev/stdin")
def test_stdin_serves_a_piped_binary_matrix_and_a_redirected_labels_file(
    capsys, tmp_path, matrix_csv, labels_file
):
    matrix = tmp_path / "m.bin"
    save_matrix(load_matrix(matrix_csv), matrix)
    read, write = os.pipe()
    os.write(write, matrix.read_bytes())  # far less than a pipe holds
    os.close(write)
    with os.fdopen(read, "rb") as stdin:  # one read_bytes reads a binary matrix
        piped = run_python("-m", "covar", "select", "--input", "/dev/stdin", stdin=stdin, timeout=60)
    with open(labels_file, "rb") as stdin:  # a regular file, whichever way it is opened
        redirected = run_python(
            "-m", "covar", "ece", "--input", str(matrix), "--labels", "/dev/stdin", stdin=stdin, timeout=60
        )
    for proc, (path, *argv) in [
        (piped, (matrix, "select", "--input", str(matrix))),
        (redirected, (labels_file, "ece", "--input", str(matrix), "--labels", str(labels_file))),
    ]:
        code, out, _ = run(capsys, *argv)
        assert (proc.returncode, proc.stderr, code) == (0, "", 0)
        assert proc.stdout == out.replace(json.dumps(str(path)), '"/dev/stdin"')


def test_only_commands_that_write_sections_load_the_text_kernel(matrix_csv, labels_file):
    # importing covar._floattext builds its tables, a few ms of start-up
    script = (
        "import sys\n"
        "from covar.cli import run_cli\n"
        "loaded = lambda: 'covar._floattext' in sys.modules\n"
        "assert not loaded()\n"
        "assert run_cli(['compare', '--input', sys.argv[1], '--labels', sys.argv[2]]) == 0\n"
        "assert not loaded()\n"
        "assert run_cli(['ece', '--input', sys.argv[1], '--labels', sys.argv[2]]) == 0\n"
        "assert loaded()  # its bins are a section\n"
    )
    proc = run_python("-c", script, str(matrix_csv), str(labels_file))
    assert proc.returncode == 0, proc.stderr


def test_compare_never_imports_numpy_ma(matrix_csv, labels_file):
    # np.unique imports numpy.ma on first use, about 20 ms of a compare run
    script = (
        "import sys\n"
        "from covar.cli import run_cli\n"
        "assert run_cli(['compare', '--input', sys.argv[1], '--labels', sys.argv[2]]) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    proc = run_python("-c", script, str(matrix_csv), str(labels_file))
    assert proc.returncode == 0, proc.stderr


def test_non_finite_value_in_a_finite_column_exits_2_with_empty_stdout(
    capsys, monkeypatch, matrix_csv
):
    real = cli.decompose_batch

    def with_nan(*args, **kwargs):
        agg = real(*args, **kwargs)
        exact_ce = agg.samples.exact_ce.copy()
        exact_ce[3] = np.nan
        return dataclasses.replace(agg, samples=dataclasses.replace(agg.samples, exact_ce=exact_ce))

    monkeypatch.setattr(cli, "decompose_batch", with_nan)
    code, out, err = run(capsys, "decompose", "--input", str(matrix_csv))
    assert (code, out) == (2, "") and "report column 'exact_ce' holds nan at row 3" in err


@pytest.mark.parametrize("out, labels_out", [("same.csv", "same.csv"), ("d/../x.bin", "x.bin")])
def test_simulate_outputs_naming_one_file_exit_2(capsys, tmp_path, monkeypatch, out, labels_out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    argv = ("simulate", "--n", "5", "--k", "3", "--out", out, "--labels-out", labels_out)
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "") and "--out" in err and "--labels-out" in err
    assert [p.name for p in tmp_path.iterdir()] == ["d"] and not any((tmp_path / "d").iterdir())


def test_argparse_level_exits(capsys):
    assert run(capsys, )[0] == 2  # no subcommand
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "decompose", "--help")[0] == 0


def test_reports_are_deterministic(capsys, matrix_csv, labels_file):
    args = ("compare", "--input", str(matrix_csv), "--labels", str(labels_file))
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args = ("simulate", "--n", "25", "--k", "4", "--seed", "9")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_binary_pipeline(capsys, tmp_path):
    mpath = tmp_path / "m.bin"
    ypath = tmp_path / "y.txt"
    assert run(
        capsys, "simulate", "--n", "30", "--k", "4", "--seed", "2",
        "--out", str(mpath), "--labels-out", str(ypath),
    )[0] == 0
    code, out, _ = run(capsys, "decompose", "--input", str(mpath))
    assert code == 0
    assert parse_report(out)["input"]["n_samples"] == 30


@pytest.mark.parametrize("command", ["simulate"])
def test_fewer_than_two_classes_exit_2(capsys, command):
    code, out, err = run(capsys, command, "--n", "10", "--k", "0")
    assert (code, out) == (2, "") and "at least 2 classes" in err


@pytest.mark.parametrize("k", ["65537", "100000000"])
def test_class_cap_exits_2_before_allocating(capsys, k):
    start = time.perf_counter()
    code, out, err = run(capsys, "simulate", "--n", "2", "--k", k)
    assert (code, out) == (2, "") and f"at most 65536 classes, got {k}" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ("grid", "--p-steps", str(10**17)),
        ("ece", "--bins", str(10**17)),
        ("simulate", "--n", str(10**17), "--k", "2"),
    ],
)
def test_out_of_memory_requests_exit_2(capsys, matrix_csv, labels_file, argv):
    # 1e17 float64s exceed any 57-bit address space, so the allocation
    # fails at once whatever the overcommit policy
    if argv[0] == "ece":
        argv = (*argv, "--input", str(matrix_csv), "--labels", str(labels_file))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: Unable to allocate")


@pytest.mark.parametrize(
    "argv, named",
    [
        (("select", "--lambda", "nan"), "lambda must be finite, got nan"),
        (("compare", "--lambda", "inf"), "lambda must be finite, got inf"),
        (("simulate", "--n", "5", "--k", "3", "--temp", "inf"), "overconfidence_temp must be finite, got inf"),
        (("simulate", "--n", "5", "--k", "3", "--priors", "nan,0.5,0.5"), "(nan, 0.5, 0.5)"),
        (("simulate", "--n", "5", "--k", "3", "--seed", "-1"), "seed must be a non-negative integer, got -1"),
        (("simulate", "--n", "5", "--k", "3", "--priors", "0.5,x"), "comma-separated numbers, got '0.5,x'"),
    ],
)
def test_non_finite_config_values_are_named(capsys, matrix_csv, labels_file, argv, named):
    files = ("--input", str(matrix_csv), "--labels", str(labels_file))
    extra = {"select": files[:2], "compare": files}
    code, out, err = run(capsys, *argv, *extra.get(argv[0], ()))
    assert code == 2 and out == ""
    assert named in err


def test_bad_label_and_text_files_exit_2(capsys, matrix_csv, labels_file, tmp_path):
    cases = {  # labels file whose line 3 is bad (K = 3) -> words in the error
        b"0\n1\n3\n2\n": "outside",
        b"0\n1\n99999999999999999999\n2\n": "outside",
        b"0\n1\n\xe9\n2\n": "not UTF-8",
    }
    for (content, message), command in itertools.product(cases.items(), ("ece", "compare")):
        labels = tmp_path / "y-bad.txt"
        labels.write_bytes(content)
        code, _, err = run(capsys, command, "--input", str(matrix_csv), "--labels", str(labels))
        assert code == 2 and "y-bad.txt:3: " in err and message in err
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"c0,c1,c2\n0.7,0.2,0.1\n0.5,0.3\xe9,0.2\n")
    code, _, err = run(capsys, "ece", "--input", str(latin), "--labels", str(labels_file))
    assert code == 2 and "latin.csv:3: not UTF-8" in err
    # a binary container named .csv is read as CSV
    save_matrix(load_matrix(matrix_csv), tmp_path / "m.bin")
    misnamed = tmp_path / "binary.csv"
    misnamed.write_bytes((tmp_path / "m.bin").read_bytes())
    code, _, err = run(capsys, "decompose", "--input", str(misnamed))
    assert code == 2 and "binary.csv:1: not UTF-8" in err
    # matrices that parse but fail the batch checks: the file is named too,
    # with the file line of a bad CSV row and the row index of a binary one
    header = struct.Struct("<4sBII")
    invalid = {
        "sum.csv": (b"c0,c1\n0.9,0.9\n", ":2: sum 1.8 deviates"),
        "nan.csv": (b"c0,c1\nnan,0.5\n", ":2: non-finite entry"),
        "blank.csv": (b"c0,c1\n0.5,0.5\n\n0.9,0.9\n", ":4: sum 1.8 deviates"),
        "sum.bin": (
            header.pack(b"COVR", 1, 1, 2) + struct.pack("<2d", 0.9, 0.9),
            ": row 0: sum 1.8 deviates",
        ),
        "n0.bin": (header.pack(b"COVR", 1, 0, 3), ": batch must contain at least one sample"),
        "k1.bin": (
            header.pack(b"COVR", 1, 2, 1) + struct.pack("<2d", 1.0, 1.0),
            ": need at least 2 classes, got 1",
        ),
    }
    for name, (content, message) in invalid.items():
        path = tmp_path / name
        path.write_bytes(content)
        code, out, err = run(capsys, "decompose", "--input", str(path))
        assert (code, out) == (2, "") and f"{path}{message}" in err


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [
        ("certificate_margin.py", ("--k", "2")),
        ("certificate_margin.py", ("--k", "1")),
        ("certificate_margin.py", ("--fixed-eps", "0.6", "--k", "3")),
        ("policy_sweep.py", ("--seeds", "0")),
        ("policy_sweep.py", ("--n", "1")),
    ],
)
def test_experiment_scripts_reject_arguments_they_cannot_serve(script, args):
    # a usage error, exit 2, also where every warning is an error, as in CI
    proc = run_python("-W", "error", str(SCRIPTS / script), *args, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "usage:" in proc.stderr and "Traceback" not in proc.stderr
