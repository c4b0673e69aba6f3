"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Kept out of pytest's default file pattern so the package's own test suite
is unchanged by the benchmark.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import sys
import tempfile
import unittest
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spec  # noqa: E402
from covar.cli import run_cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _report(argv: list) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run_cli(argv) == 0
    return buf.getvalue()


class SpecTest(unittest.TestCase):
    def test_metric_and_workload_names(self):
        names = [m[0] for m in spec.END_TO_END] + [m[0] for m in spec.PER_LAYER]
        names += [w[0] for w in spec.WORKLOADS]
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))
        for _n, unit, better, *_ in spec.END_TO_END + spec.PER_LAYER:
            self.assertTrue(UNIT.fullmatch(unit), unit)
            self.assertIn(better, ("lower", "higher"))
        for _n, _u, _b, bound, _m in spec.END_TO_END:
            self.assertTrue(0.0 < bound <= 0.25)
        bounds = {m[0]: m[3] for m in spec.END_TO_END}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        for _n, why in spec.WORKLOADS:
            self.assertLessEqual(len(why), 200)
            self.assertNotIn("\n", why)
        self.assertEqual(set(run.TRACE_CYCLES), {w[0] for w in spec.WORKLOADS})

    def test_benchmark_json_is_generated_from_spec(self):
        committed = (run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
        self.assertEqual(committed, spec.benchmark_json())
        self.assertLess(len(committed.encode()), 64 * 1024)


class ChecksTest(unittest.TestCase):
    """Reports from the real CLI pass; corrupted copies are counted as failed."""

    @classmethod
    def setUpClass(cls):
        run.OUT.mkdir(exist_ok=True)
        cls._tmp = tempfile.TemporaryDirectory(dir=run.OUT)
        cls.work = Path(cls._tmp.name)
        cls.values, cls.labels = inputs.bimodal_matrix(np.random.default_rng(7), 400, 6)
        cls.n, cls.digest = 400, inputs.matrix_digest(cls.values)
        inputs.write_binary(cls.work / "m.bin", cls.values)
        inputs.write_csv(cls.work / "m.csv", cls.values)
        inputs.write_labels(cls.work / "l.txt", cls.labels)
        cls.decompose = _report(["decompose", "--input", str(cls.work / "m.bin")])
        cls.select = _report(["select", "--input", str(cls.work / "m.csv")])
        cls.select_ref = checks.select_reference(cls.values)

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def _failed_count(self, check, text: str, code: int = 0) -> int:
        r = run.Run("report-1e5", 0, self.work)
        op = run.Op("op", [], self.n, check)
        r.record(op.kind, op.rows, 1.0, run._verify(op, code, text, "error: boom"))
        return r.failed

    def _decompose(self, doc):
        checks.check_decompose(doc, self.n, self.digest)

    def _select(self, doc):
        checks.check_select(doc, self.n, self.digest, self.select_ref)

    def test_genuine_reports_pass(self):
        self.assertEqual(self._failed_count(self._decompose, self.decompose), 0)
        self.assertEqual(self._failed_count(self._select, self.select), 0)

    def test_weight_outside_unit_interval_fails(self):
        doc = json.loads(self.select)
        doc["samples"][3]["weight"] = 1.5
        self.assertEqual(self._failed_count(self._select, json.dumps(doc)), 1)

    def test_remainder_above_bound_fails(self):
        doc = json.loads(self.decompose)
        row = next(s for s in doc["samples"] if s["assumption_ok"] and s["remainder_bound"] > 0)
        row["remainder_actual"] = 2.0 * row["remainder_bound"]
        self.assertEqual(self._failed_count(self._decompose, json.dumps(doc)), 1)

    def test_broken_batch_identity_fails(self):
        doc = json.loads(self.decompose)
        doc["batch"]["cov_gv"] += 1e-6 * abs(doc["batch"]["srcv"])
        self.assertEqual(self._failed_count(self._decompose, json.dumps(doc)), 1)

    def test_value_off_library_fails(self):
        doc = json.loads(self.select)
        doc["samples"][0]["rcv"] *= 1.0 + 1e-9
        self.assertEqual(self._failed_count(self._select, json.dumps(doc)), 1)

    def test_wrong_digest_or_size_fails(self):
        doc = json.loads(self.decompose)
        other = copy.deepcopy(doc)
        other["input"]["digest"] = "0" * 64
        self.assertEqual(self._failed_count(self._decompose, json.dumps(other)), 1)
        doc["samples"].pop()
        self.assertEqual(self._failed_count(self._decompose, json.dumps(doc)), 1)

    def test_empty_output_or_error_exit_fails(self):
        self.assertEqual(self._failed_count(self._decompose, ""), 1)
        self.assertEqual(self._failed_count(self._decompose, "{not json"), 1)
        self.assertEqual(self._failed_count(self._decompose, self.decompose, code=2), 1)


class InputsTest(unittest.TestCase):
    def _digests(self, workload: str, seed: int) -> dict:
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            run.make_inputs(workload, seed, Path(tmp))
            return {p.name: inputs.file_digest(p) for p in Path(tmp).iterdir()}

    def test_same_seed_same_digests(self):
        run.OUT.mkdir(exist_ok=True)
        for workload in spec.WORKLOADS:
            first = self._digests(workload[0], 5)
            self.assertEqual(first, self._digests(workload[0], 5))
            self.assertNotEqual(first, self._digests(workload[0], 6))

    def test_csv_round_trips_bitwise(self):
        run.OUT.mkdir(exist_ok=True)
        values, _ = inputs.bimodal_matrix(np.random.default_rng(3), 50, 6)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            inputs.write_csv(Path(tmp) / "m.csv", values)
            self.assertTrue(np.array_equal(inputs.read_csv(Path(tmp) / "m.csv"), values))


if __name__ == "__main__":
    unittest.main()
