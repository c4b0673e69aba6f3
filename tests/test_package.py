"""The package namespace is the union of its modules' public APIs."""
from __future__ import annotations

import importlib

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
    assert len(covar.__all__) == 56
