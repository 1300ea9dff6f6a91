"""Robust coresets for clustering-style machine-learning costs.

Build small weighted summaries of large weighted datasets whose cost, for
any model of a Lipschitz-bounded learning problem, provably stays within a
relative error band of the full dataset's cost.  Includes single-machine
constructions with certified error bounds, multi-node protocols with
communication accounting, sampling baselines, solvers for four downstream
problems, and an evaluation harness.
"""

from .errors import KcoresetError, ThresholdNotReachedError, ValidationError
from .data import (
    LabelEncoding,
    ShardSpec,
    WeightedPointSet,
    compute_delta,
    encode_labels,
    load_dataset,
    normalize_features,
    partition_dataset,
    save_pointset,
    split_train_test,
    synthetic_blobs,
    synthetic_uniform,
    with_svm_labels,
)
from .clustering import (
    ClusteringResult,
    DoubledRun,
    add_costliest_point,
    assign_to_centers,
    brute_force_optimal,
    clustering_cost,
    k_clustering,
    k_clustering_doubled,
    one_mean,
    one_median,
    weighted_geometric_median,
)
from .coreset import (
    Coreset,
    EpsCertificate,
    certify_eps,
    coreset_from_run,
    load_coreset,
    rcc,
    rcc_fixed_size,
)
from .baselines import farthest_point, sensitivity_sample, uniform_sample
from .distributed import (
    LocalCoreset,
    LocalLadder,
    NodeReport,
    ProtocolTrace,
    ServerConfig,
    cdcc,
    drcc,
    node_local_centers,
    node_sample,
    server_allocate,
)
from .problems import (
    MLProblem,
    lipschitz_rho,
    make_problem,
    meb_solve,
    pca_solve,
    problem_cost,
    solve_problem,
    svm_accuracy,
    svm_train,
)
from .harness import evaluate_coreset, quantile_grid, run_benchmark

__version__ = "0.1.0"

__all__ = [
    "KcoresetError",
    "ThresholdNotReachedError",
    "ValidationError",
    "LabelEncoding",
    "ShardSpec",
    "WeightedPointSet",
    "compute_delta",
    "encode_labels",
    "load_dataset",
    "normalize_features",
    "partition_dataset",
    "save_pointset",
    "split_train_test",
    "synthetic_blobs",
    "synthetic_uniform",
    "with_svm_labels",
    "ClusteringResult",
    "DoubledRun",
    "add_costliest_point",
    "assign_to_centers",
    "brute_force_optimal",
    "clustering_cost",
    "k_clustering",
    "k_clustering_doubled",
    "one_mean",
    "one_median",
    "weighted_geometric_median",
    "Coreset",
    "EpsCertificate",
    "certify_eps",
    "coreset_from_run",
    "load_coreset",
    "rcc",
    "rcc_fixed_size",
    "farthest_point",
    "sensitivity_sample",
    "uniform_sample",
    "LocalCoreset",
    "LocalLadder",
    "NodeReport",
    "ProtocolTrace",
    "ServerConfig",
    "cdcc",
    "drcc",
    "node_local_centers",
    "node_sample",
    "server_allocate",
    "MLProblem",
    "lipschitz_rho",
    "make_problem",
    "meb_solve",
    "pca_solve",
    "problem_cost",
    "solve_problem",
    "svm_accuracy",
    "svm_train",
    "evaluate_coreset",
    "quantile_grid",
    "run_benchmark",
]
