"""Likelihood scores over candidate edge sets and the minimum-score selector."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import CovarianceMatrix, EdgeSet
from .errors import AllFitsFailed, DimensionMismatch, GgmError, InvalidParameters
from .projection import FitOptions, FitResult, _fit_graphs, fit_graph_mle

__all__ = [
    "CandidateCollection",
    "SelectionResult",
    "score",
    "select_graph",
    "sample_size_bound",
]


class CandidateCollection:
    """Ordered candidate graphs sharing a vertex count, with sparsity bound s.

    s counts edges only (the always-present diagonal is added internally
    wherever a formula needs p + s).
    """

    __slots__ = ("graphs", "s")

    def __init__(self, graphs: Iterable[EdgeSet], s: Optional[int] = None) -> None:
        graphs = tuple(graphs)
        if not graphs:
            raise ValueError("candidate collection must contain at least one graph")
        p = graphs[0].p
        for g in graphs[1:]:
            if g.p != p:
                raise DimensionMismatch(f"candidates mix vertex counts {p} and {g.p}")
        max_edges = max(len(g) for g in graphs)
        if s is None:
            s = max_edges
        elif s < max_edges:
            raise InvalidParameters(f"s={s} is below the largest candidate edge count {max_edges}")
        self.graphs = graphs
        self.s = int(s)

    @property
    def p(self) -> int:
        return self.graphs[0].p

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)

    def __repr__(self) -> str:
        return f"CandidateCollection(p={self.p}, graphs={len(self.graphs)}, s={self.s})"


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Scores for every candidate and the index of the minimum.

    Ties break toward the lowest index. A candidate whose fit raised gets
    score +inf and a None fit result. unconverged lists, in index order,
    the candidates whose fit returned converged=False: they are still
    ranked by their last objective, which only bounds their score from
    above.
    """

    selected_index: int
    scores: tuple[float, ...]
    fit_results: tuple[Optional[FitResult], ...]
    unconverged: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "selected_index": self.selected_index,
            "scores": list(self.scores),
            "fit_results": [r.to_dict() if r is not None else None for r in self.fit_results],
            "unconverged": list(self.unconverged),
        }


def score(
    graph: EdgeSet,
    sigma_hat: CovarianceMatrix,
    gamma: float,
    opts: FitOptions = FitOptions(),
) -> float:
    """Minimum nll over precisions supported on `graph` inside the gamma ball."""
    return fit_graph_mle(sigma_hat, graph, gamma, opts).objective


def select_graph(
    collection: CandidateCollection,
    sigma_hat: CovarianceMatrix,
    gamma: float,
    opts: FitOptions = FitOptions(),
) -> SelectionResult:
    """Fit every candidate and return the minimum-score graph.

    The closed forms of all chordal candidates are computed in one batched
    pass over sigma_hat, and checked in one stacked pass, from a plan built
    once per tuple of candidate graphs, candidate g in slot g, and cached
    (16 entries; a collection holding a graph with more than 128
    coordinates p + |E| is planned afresh on every call); the other
    candidates, and those whose closed form fails its check, take the
    Newton path one by one on their slot of the same plan. Each
    candidate's fit is bit for bit fit_graph_mle's, and its fitted
    precision keeps the Cholesky factor its fit computed.
    Results are in index order, so repeated calls with identical inputs
    produce identical results. A sigma_hat whose order differs from the
    candidates' raises DimensionMismatch before anything is fitted.
    """
    if sigma_hat.p != collection.p:
        raise DimensionMismatch(f"orders differ: candidates p={collection.p}, sigma p={sigma_hat.p}")
    try:
        outcomes = _fit_graphs(sigma_hat, collection.graphs, gamma, opts)
    except GgmError as exc:
        # an input that no candidate's fit accepts (gamma, sigma_hat's diagonal)
        raise AllFitsFailed(f"all {len(collection)} candidate fits failed: {exc}") from exc
    fits = tuple(None if isinstance(fit, GgmError) else fit for fit in outcomes)
    scores = tuple(math.inf if fit is None else fit.objective for fit in fits)
    if all(math.isinf(s) for s in scores):
        raise AllFitsFailed(f"all {len(scores)} candidate fits failed")
    best = 0
    for idx, value in enumerate(scores):
        if value < scores[best]:
            best = idx
    unconverged = tuple(idx for idx, fit in enumerate(fits) if fit is not None and not fit.converged)
    return SelectionResult(selected_index=best, scores=scores, fit_results=fits, unconverged=unconverged)


def sample_size_bound(
    C: float,
    gamma: float,
    c_star: float,
    lambda_max: float,
    p: int,
    s: int,
    *,
    known_diagonals: bool = False,
) -> float:
    """Sample size sufficient for consistent selection:
    (4 C^2 gamma^2 / c_star^2) * lambda_max^2 * (p + s) * log p.

    With known_diagonals=True (variances known exactly, diagonal-corrected
    estimate in use) the factor p + s sharpens to s. The separation value
    c_star is caller-supplied, so either the raw separation constant or
    half its log can be probed. Callers round up to an integer n.
    """
    if not (C > 0 and gamma > 0 and c_star > 0 and lambda_max > 0):
        raise InvalidParameters("C, gamma, c_star, and lambda_max must all be positive")
    if p < 2:
        raise InvalidParameters(f"p must be >= 2, got {p}")
    if s <= 0:
        raise InvalidParameters(f"s must be positive, got {s}")
    factor = s if known_diagonals else p + s
    return (4.0 * C**2 * gamma**2 / c_star**2) * lambda_max**2 * factor * math.log(p)
