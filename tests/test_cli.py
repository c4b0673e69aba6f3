"""End-to-end CLI behaviour: reports, exit codes, determinism."""
from __future__ import annotations

import itertools
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covar
from covar.baseline import ece as compute_ece
from covar.cli import run_cli
from covar.decomposition import EpsilonPolicy, decompose_sample
from covar.io import load_labels, load_matrix, matrix_digest, parse_report, save_matrix
from covar.stats import ProbabilityBatch, compute_stats


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
    d0 = decompose_sample(
        compute_stats(load_matrix(matrix_csv))[0], EpsilonPolicy.adaptive()
    )
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


def test_decompose_bad_epsilon_is_usage_error(capsys, matrix_csv):
    code, _, err = run(
        capsys, "decompose", "--input", str(matrix_csv), "--epsilon", "tiny"
    )
    assert code == 2
    assert "epsilon" in err


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


def test_compare_simulate_path(capsys):
    code, out, _ = run(
        capsys, "compare", "--n", "300", "--k", "6", "--accuracy", "0.75",
        "--temp", "0.25", "--residual", "bimodal", "--seed", "1",
    )
    assert code == 0
    doc = parse_report(out)
    assert doc["input"]["source"] == "simulate"
    assert doc["config"]["tau"] == 0.95
    assert len(doc["policies"]) == 2


def test_compare_without_a_source_is_a_covar_error(capsys):
    for argv in (("compare",), ("compare", "--n", "10"), ("compare", "--k", "3")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--input" in err and "--n" in err


def test_compare_usage_errors(capsys, matrix_csv):
    code, _, err = run(capsys, "compare", "--input", str(matrix_csv))
    assert code == 2 and "labels" in err
    code, _, err = run(capsys, "compare")
    assert code == 2
    code, _, err = run(capsys, "compare", "--n", "10")  # missing --k
    assert code == 2


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
    # the child imports the same covar as this process
    path = [str(Path(covar.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "covar", *argv], capture_output=True, text=True, env=env
    )
    code, out, _ = run(capsys, *argv)
    assert (proc.returncode, proc.stderr) == (0, "") and code == 0
    assert proc.stdout == out


def test_grid_emit_file(capsys, tmp_path):
    target = tmp_path / "grid.csv"
    code, out, _ = run(
        capsys, "grid", "--emit", str(target), "--p-steps", "2", "--v-steps", "2"
    )
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("p,v,ce\n") and len(text.strip().split("\n")) == 5


def test_grid_emit_into_missing_directory(capsys, tmp_path):
    code, out, err = run(capsys, "grid", "--emit", str(tmp_path / "missing" / "grid.csv"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "missing" in err


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
    # every p, v and ce written must be finite
    for v_max in ("inf", "1e308"):
        code, out, err = run(capsys, "grid", "--v-max", v_max, "--p-steps", "2", "--v-steps", "2")
        assert (code, out) == (2, "") and "--v-max" in err and "Warning" not in err


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


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_fewer_than_two_classes_exit_2(capsys, command):
    code, out, err = run(capsys, command, "--n", "10", "--k", "0")
    assert (code, out) == (2, "") and "at least 2 classes" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (("select", "--lambda", "nan"), "lambda must be finite, got nan"),
        (("compare", "--lambda", "inf", "--n", "50", "--k", "3"), "lambda must be finite, got inf"),
        (("simulate", "--n", "5", "--k", "3", "--temp", "inf"), "overconfidence_temp must be finite, got inf"),
        (("simulate", "--n", "5", "--k", "3", "--priors", "nan,0.5,0.5"), "(nan, 0.5, 0.5)"),
        (("simulate", "--n", "5", "--k", "3", "--seed", "-1"), "seed must be a non-negative integer, got -1"),
        (("compare", "--n", "50", "--k", "3", "--seed", "-7"), "seed must be a non-negative integer, got -7"),
    ],
)
def test_non_finite_config_values_are_named(capsys, matrix_csv, argv, named):
    if argv[0] == "select":
        argv = (*argv, "--input", str(matrix_csv))
    code, out, err = run(capsys, *argv)
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
    binary = tmp_path / "m.bin"
    save_matrix(load_matrix(matrix_csv), binary)
    code, _, err = run(capsys, "decompose", "--input", str(binary), "--format", "csv")
    assert code == 2 and "m.bin:1: not UTF-8" in err
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
