"""Spans around covar's public functions, recorded from outside the package.

:class:`Tracer` replaces module attributes with timing wrappers: the names
that ``covar.cli``, ``covar.pcos``, ``covar.simulator`` and
``covar.decomposition`` look up at call time, the home-module names the
minibatch step calls, and ``ProbabilityBatch.from_array``.  Each call
becomes a span (layer name, start, end, parent span, operation id) kept in
memory.  ``decompose_sample`` runs once per row, so its calls are summed
into one (count, seconds) aggregate under the enclosing span instead.
Counts are taken at the same boundaries from the returned values.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, layer name).  A layer name is "<covar module>.<function>".
WRAPPED = [
    ("covar.cli", "load_matrix", "io.load_matrix"),
    ("covar.cli", "load_labels", "io.load_labels"),
    ("covar.cli", "save_matrix", "io.save_matrix"),
    ("covar.cli", "serialize_report", "io.serialize_report"),
    ("covar.cli", "matrix_digest", "io.matrix_digest"),
    ("covar.cli", "compute_stats", "stats.compute_stats"),
    ("covar.cli", "decompose_sample", "decomposition.decompose_sample"),
    ("covar.cli", "decompose_batch", "decomposition.decompose_batch"),
    ("covar.cli", "pcos", "pcos.pcos"),
    ("covar.cli", "generate", "simulator.generate"),
    ("covar.cli", "evaluate_policies", "simulator.evaluate_policies"),
    ("covar.cli", "compute_ece", "baseline.ece"),
    ("covar.simulator", "ece", "baseline.ece"),
    ("covar.simulator", "threshold_select", "baseline.threshold_select"),
    ("covar.simulator", "pcos", "pcos.pcos"),
    ("covar.pcos", "compute_stats", "stats.compute_stats"),
    ("covar.pcos", "embed", "pcos.embed"),
    ("covar.pcos", "spectral_assign", "pcos.spectral_assign"),
    ("covar.pcos", "cluster_statistics", "pcos.cluster_statistics"),
    ("covar.pcos", "gaussian_weights", "pcos.gaussian_weights"),
    ("covar.pcos", "pcos", "pcos.pcos"),
    ("covar.decomposition", "decompose_sample", "decomposition.decompose_sample"),
    ("covar.decomposition", "decompose_batch", "decomposition.decompose_batch"),
    ("covar.stats", "compute_stats", "stats.compute_stats"),
    ("covar.baseline", "threshold_select", "baseline.threshold_select"),
]
PER_ROW = {"decomposition.decompose_sample"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.per_row: dict[tuple, list] = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [calls, s]
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # covar module -> exceptions first seen there
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _error(self, name: str, exc: BaseException) -> None:
        if not getattr(exc, "_perfbench_seen", False):
            self.errors[name.split(".")[0]] += 1
            try:
                exc._perfbench_seen = True
            except AttributeError:
                pass

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a span named ``name``."""
        index = self._enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._error(name, exc)
            raise
        finally:
            self._exit(index)
        self._count(name, result)
        return result

    def _call_per_row(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            self._error(name, exc)
            raise
        finally:
            agg = self.per_row[(self._stack[-1] if self._stack else None, name)]
            agg[0] += 1
            agg[1] += time.perf_counter() - t0

    def _count(self, name: str, result) -> None:
        if name == "stats.compute_stats":
            self.counts["stats.compute_stats.rows"] += len(result)
        elif name == "io.serialize_report":
            self.counts["io.report_bytes"] += len(result)
        elif name == "pcos.pcos":
            self.counts["pcos.rows"] += len(result.weights)
            self.counts["pcos.preserved"] += int(result.preserved_mask.sum())
            self.counts["pcos.rank_deficient"] += int(result.rank_deficient)

    # -- installation ------------------------------------------------------

    def _wrapper(self, name: str, fn):
        call = self._call_per_row if name in PER_ROW else self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original))
        cls = importlib.import_module("covar.stats").ProbabilityBatch
        original = cls.__dict__["from_array"]
        self._restore.append((cls, "from_array", original))
        cls.from_array = classmethod(self._wrapper("stats.from_array", original.__func__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def layer_times(self) -> tuple[dict, dict, dict]:
        """(total seconds, self seconds, calls) per layer name."""
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        # Spans nest strictly (one thread), so a parent's self time is its
        # duration minus the sum of its direct children's durations.
        for name, start, end, parent, _op in self.spans:
            total[name] += end - start
            own[name] += end - start
            calls[name] += 1
            if parent is not None:
                own[self.spans[parent][0]] -= end - start
        for (parent, name), (n, seconds) in self.per_row.items():
            total[name] += seconds
            own[name] += seconds
            calls[name] += n
            if parent is not None:
                own[self.spans[parent][0]] -= seconds
        return dict(total), dict(own), dict(calls)

    def ops_calling(self, name: str) -> set:
        """Operation ids in which ``name`` ran at least once."""
        ops = {op for span_name, _s, _e, _p, op in self.spans if span_name == name}
        ops |= {self.spans[parent][4] for (parent, n) in self.per_row if n == name and parent is not None}
        return ops

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans
            ],
            "per_row": [
                {"parent": p, "name": n, "calls": c, "seconds": s}
                for (p, n), (c, s) in self.per_row.items()
            ],
            "counts": dict(self.counts),
            "errors": dict(self.errors),
        }
