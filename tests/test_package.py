"""The package namespace is the union of its modules' public APIs."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import covar

MODULES = ("errors", "stats", "decomposition", "pcos", "baseline", "simulator", "io", "cli")


def test_public_names_are_unique_and_resolve():
    modules = [importlib.import_module(f"covar.{name}") for name in MODULES]
    assert len(covar.__all__) == len(set(covar.__all__))
    assert set(covar.__all__) == {"__version__"}.union(*(m.__all__ for m in modules))
    for module in modules:
        for name in module.__all__:
            assert getattr(covar, name) is getattr(module, name), f"{module.__name__}.{name}"


# Reference code the tests check against lives in tests/oracles.py.
MOVED_TO_ORACLES = (
    "IdealDistribution",
    "exact_ce",
    "taylor_log_expand",
    "AssumptionViolation",
    "trace_objective",
    "enumerate_bipartitions",
    "brute_force_partition",
    "_BRUTE_FORCE_LIMIT",
)


def test_oracles_are_not_in_the_package():
    modules = [covar] + [importlib.import_module(f"covar.{name}") for name in MODULES]
    for name in MOVED_TO_ORACLES:
        assert name not in covar.__all__
        for module in modules:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_one_batch_object():
    # ProbabilityBatch carries the per-row statistics; there is no second
    # columnar statistics type.
    stats = importlib.import_module("covar.stats")
    assert "BatchStats" not in covar.__all__
    assert not hasattr(stats, "BatchStats")
    # 56 names, plus io's streaming report writer and its Columns section
    assert len(covar.__all__) == 58


def test_the_attribute_covar_pcos_is_the_function():
    # `from .pcos import *` rebinds the package attribute to the function of
    # that name; the module is reached through importlib.  Renaming either
    # changes the public API.
    module = importlib.import_module("covar.pcos")
    assert covar.pcos is module.pcos and callable(covar.pcos)
    assert module.__name__ == "covar.pcos" and module is not covar.pcos


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_names():
    """(module, name) for each covar name the benchmark harness reaches:
    its tracing wrappers, its ``from covar... import`` names and the
    attributes it reads off ``import_module("covar...")`` modules.  Read
    from the source, so nothing of perfbench is imported."""
    tracing = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    (wrapped,) = [
        node.value for node in tracing.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]
    ]
    names = [(module, name) for module, name, _ in ast.literal_eval(wrapped)]
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # a name bound to import_module("covar...")
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "covar":
                names += [(node.module, alias.name) for alias in node.names]
            elif (
                isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "import_module"
                and str(getattr(node.value.args[0], "value", "")).startswith("covar")
            ):
                modules.update((t.id, node.value.args[0].value) for t in node.targets)
        names += [
            (modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules
        ]
    return names


def test_names_the_benchmark_harness_reaches_resolve():
    names = _perfbench_names()
    assert ("covar.pcos", "compute_stats") in names and ("covar.stats", "compute_stats") in names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    # the tracer rewraps the classmethod found in the class's own namespace
    batch = importlib.import_module("covar.stats").ProbabilityBatch
    assert isinstance(batch.__dict__["from_array"], classmethod)
