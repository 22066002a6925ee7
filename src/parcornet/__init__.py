"""Sparse partial-correlation network estimation for heavy-tailed data.

The estimator runs per-node elastic-net regressions to pick a sparsity
pattern, then maximizes the constrained Gaussian likelihood on that
pattern; a scale-mixture EM loop makes the whole procedure robust to
heavy tails. Companion modules generate synthetic networks, sample from
them, score recovery, analyze the estimated graphs, and run the
empirical price-to-network pipeline.
"""
from .analytics import NetworkMeasures, ShockResult, measures, node_centralities, shock
from .elastic_net import ElasticNetFit, PenaltyConfig
from .em import EMConfig, EMState, estimate
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    DomainError,
    EstimationError,
    FitError,
    ParcornetError,
    SelectionError,
    ShapeError,
)
from .matrices import (
    Dataset,
    EdgeSet,
    PartialCorrelationMatrix,
    PrecisionMatrix,
    is_positive_definite,
    precision_to_partial_correlation,
)
from .metrics import ConfusionCounts, confusion, f1_score, false_discovery_rate, frobenius_distance
from .netgen import TopologySpec, generate_pattern, generate_precision, pattern_to_precision
from .samplers import DistributionSpec, sample, spawned_rng
from .selection import LambdaGrid, SelectionReport, bic, build_grid, select

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConfusionCounts", "DataError", "Dataset", "DistributionSpec",
    "DivergenceError", "DomainError", "EMConfig", "EMState", "EdgeSet",
    "ElasticNetFit", "EstimationError", "FitError", "LambdaGrid",
    "NetworkMeasures", "ParcornetError", "PartialCorrelationMatrix",
    "PenaltyConfig", "PrecisionMatrix", "SelectionError", "SelectionReport",
    "ShapeError", "ShockResult", "TopologySpec", "bic", "build_grid", "confusion",
    "estimate", "f1_score", "false_discovery_rate", "frobenius_distance",
    "generate_pattern", "generate_precision", "is_positive_definite", "measures",
    "node_centralities", "pattern_to_precision", "precision_to_partial_correlation",
    "sample", "select", "shock", "spawned_rng",
]
