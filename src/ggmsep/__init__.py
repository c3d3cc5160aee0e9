"""KL separation toolkit for Gaussian graphical models.

Exact zero-mean Gaussian KL divergences, conditional mutual information
straight from precision entries, KL-optimal edge/star deletions, the
edgewise separation constant with its lower bounds, a likelihood-based
graph selector, and seeded experiment drivers that verify all of it
numerically.

The public names below live in submodules that this package imports on
first access (PEP 562), so ``import ggmsep`` loads none of them and a
caller pays only for the modules it uses. A fetched name is not stored
here: ``ggmsep.X`` is always the defining submodule's current object, also
while that object is swapped out (tracing, monkeypatching) and after it is
put back.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_EXPORTS = {
    "core": (
        "CovarianceMatrix",
        "EdgeSet",
        "PrecisionMatrix",
        "SpdFactorization",
        "edge_set_of",
        "factorize",
        "invert",
    ),
    "divergence": (
        "BoundReport",
        "block_conditional_mutual_info",
        "c_theta_star",
        "conditional_mutual_info",
        "kl_gaussian",
        "omega_inf_lower_bound",
        "one_edge_lower_bound",
        "verify_separation",
    ),
    "errors": (
        "DimensionMismatch",
        "EmptySet",
        "GgmError",
        "IndexOutOfRange",
        "IndexOverlap",
        "InfeasibleStart",
        "InvalidDiagonal",
        "InvalidParameters",
        "NoEdges",
        "NoMissingEdge",
        "NotPositiveDefinite",
        "SameVertex",
    ),
    "projection": (
        "FitOptions",
        "FitResult",
        "fit_graph_mle",
        "nll",
        "nll_gradient",
        "project_remove_edge",
        "project_remove_star",
    ),
    "selection": (
        "CandidateCollection",
        "SelectionResult",
        "sample_size_bound",
        "select_graph",
    ),
    "simulation": (
        "ExperimentConfig",
        "ExperimentReport",
        "SampleMatrix",
        "chain_precision",
        "corrected_covariance",
        "counterexample_precision",
        "empirical_covariance",
        "random_omega_inf_member",
        "random_sparse_precision",
        "run_counterexample_experiment",
        "run_lower_bound_experiment",
        "run_selection_experiment",
        "sample",
        "sample_covariance",
        "trial_seed",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str) -> object:
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
