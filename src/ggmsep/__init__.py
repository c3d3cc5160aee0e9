"""KL separation toolkit for Gaussian graphical models.

Exact zero-mean Gaussian KL divergences, conditional mutual information
straight from precision entries, KL-optimal edge/star deletions, the
edgewise separation constant with its lower bounds, a likelihood-based
graph selector, and seeded experiment drivers that verify all of it
numerically.
"""

from .core import (
    CovarianceMatrix,
    EdgeSet,
    PrecisionMatrix,
    SpdFactorization,
    edge_set_of,
    factorize,
    invert,
)
from .divergence import (
    BoundReport,
    block_conditional_mutual_info,
    c_theta_star,
    conditional_mutual_info,
    kl_gaussian,
    omega_inf_lower_bound,
    one_edge_lower_bound,
    verify_separation,
)
from .errors import (
    DimensionMismatch,
    EmptySet,
    GgmError,
    IndexOutOfRange,
    IndexOverlap,
    InfeasibleStart,
    InvalidDiagonal,
    InvalidParameters,
    NoEdges,
    NoMissingEdge,
    NotPositiveDefinite,
    SameVertex,
)
from .projection import (
    FitOptions,
    FitResult,
    fit_graph_mle,
    nll,
    nll_gradient,
    project_remove_edge,
    project_remove_star,
)
from .selection import (
    CandidateCollection,
    SelectionResult,
    sample_size_bound,
    score,
    select_graph,
)
from .simulation import (
    ExperimentConfig,
    ExperimentReport,
    SampleMatrix,
    chain_precision,
    corrected_covariance,
    counterexample_precision,
    empirical_covariance,
    random_omega_inf_member,
    random_sparse_precision,
    run_counterexample_experiment,
    run_lower_bound_experiment,
    run_selection_experiment,
    sample,
    trial_seed,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CandidateCollection",
    "CovarianceMatrix",
    "DimensionMismatch",
    "EdgeSet",
    "EmptySet",
    "ExperimentConfig",
    "ExperimentReport",
    "FitOptions",
    "FitResult",
    "GgmError",
    "IndexOutOfRange",
    "IndexOverlap",
    "InfeasibleStart",
    "InvalidDiagonal",
    "InvalidParameters",
    "NoEdges",
    "NoMissingEdge",
    "NotPositiveDefinite",
    "PrecisionMatrix",
    "SameVertex",
    "SampleMatrix",
    "SelectionResult",
    "SpdFactorization",
    "block_conditional_mutual_info",
    "c_theta_star",
    "chain_precision",
    "conditional_mutual_info",
    "corrected_covariance",
    "counterexample_precision",
    "edge_set_of",
    "empirical_covariance",
    "factorize",
    "fit_graph_mle",
    "invert",
    "kl_gaussian",
    "nll",
    "nll_gradient",
    "omega_inf_lower_bound",
    "one_edge_lower_bound",
    "project_remove_edge",
    "project_remove_star",
    "random_omega_inf_member",
    "random_sparse_precision",
    "run_counterexample_experiment",
    "run_lower_bound_experiment",
    "run_selection_experiment",
    "sample",
    "sample_size_bound",
    "score",
    "select_graph",
    "trial_seed",
    "verify_separation",
]
