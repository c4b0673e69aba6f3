"""Confidence-variance reliability analysis for pseudo-label selection.

The package decomposes per-sample cross-entropy into a max-confidence
term and a residual-class-variance penalty with a certified remainder
bound, and selects reliable pseudo-labels without a confidence threshold
by spectrally partitioning samples in a 2-d (confidence, variance)
embedding.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    AssumptionViolation,
    CovarError,
    DomainError,
    InfiniteCrossEntropyError,
    ParseError,
    ValidationError,
)
from .stats import (
    BatchStats,
    IdealDistribution,
    PredictionStats,
    ProbabilityBatch,
    compute_stats,
    exact_ce,
)
from .decomposition import (
    BatchDecomposition,
    CEDecomposition,
    DecompositionColumns,
    EpsilonPolicy,
    decompose_batch,
    decompose_sample,
    g_coefficient,
    taylor_log_expand,
)
from .pcos import (
    DEFAULT_LAMBDA,
    ClusterStats,
    EmbeddingMatrix,
    ReliabilityWeights,
    SelectionMatrix,
    brute_force_partition,
    cluster_statistics,
    embed,
    gaussian_weights,
    pcos,
    select_reliable_cluster,
    spectral_assign,
    trace_objective,
)
from .baseline import (
    IGNORE_LABEL,
    CalibrationReport,
    ClassRetention,
    ThresholdPolicy,
    class_retention,
    ece,
    retention_from_mask,
    threshold_select,
    threshold_sweep,
)
from .simulator import (
    CovarPolicy,
    PolicyEvaluation,
    SyntheticConfig,
    evaluate_policies,
    generate,
)
from .io import (
    load_labels,
    load_matrix,
    matrix_digest,
    parse_report,
    save_matrix,
    serialize_report,
)
from .cli import run_cli

__all__ = [
    "__version__",
    # errors
    "CovarError",
    "ValidationError",
    "ParseError",
    "DomainError",
    "AssumptionViolation",
    "InfiniteCrossEntropyError",
    # stats
    "ProbabilityBatch",
    "PredictionStats",
    "BatchStats",
    "IdealDistribution",
    "compute_stats",
    "exact_ce",
    # decomposition
    "EpsilonPolicy",
    "CEDecomposition",
    "DecompositionColumns",
    "BatchDecomposition",
    "taylor_log_expand",
    "g_coefficient",
    "decompose_sample",
    "decompose_batch",
    # pcos
    "DEFAULT_LAMBDA",
    "EmbeddingMatrix",
    "SelectionMatrix",
    "ClusterStats",
    "ReliabilityWeights",
    "embed",
    "trace_objective",
    "brute_force_partition",
    "spectral_assign",
    "cluster_statistics",
    "select_reliable_cluster",
    "gaussian_weights",
    "pcos",
    # baseline
    "IGNORE_LABEL",
    "ThresholdPolicy",
    "CalibrationReport",
    "ClassRetention",
    "threshold_select",
    "ece",
    "retention_from_mask",
    "class_retention",
    "threshold_sweep",
    # simulator
    "SyntheticConfig",
    "CovarPolicy",
    "PolicyEvaluation",
    "generate",
    "evaluate_policies",
    # io / cli
    "load_matrix",
    "save_matrix",
    "load_labels",
    "matrix_digest",
    "serialize_report",
    "parse_report",
    "run_cli",
]
