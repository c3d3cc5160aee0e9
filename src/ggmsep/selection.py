"""Likelihood scores over candidate edge sets and the minimum-score selector.

A CandidateCollection takes only its graphs: its sparsity bound s, the
selection report's s column, is the largest candidate's edge count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from . import _EXPORTS
from .core import CovarianceMatrix, EdgeSet, _checked_size, _is_real
from .errors import DimensionMismatch, InvalidParameters
from .projection import FitResult, _fit_graphs

__all__ = list(_EXPORTS["selection"])


class CandidateCollection:
    """Ordered candidate graphs sharing a vertex count, with sparsity bound s:
    the largest candidate's edge count (the always-present diagonal is
    added wherever a formula needs p + s)."""

    __slots__ = ("graphs", "s")

    def __init__(self, graphs: Iterable[EdgeSet]) -> None:
        graphs = tuple(graphs)
        if not graphs:
            raise ValueError("candidate collection must contain at least one graph")
        p = graphs[0].p
        for g in graphs[1:]:
            if g.p != p:
                raise DimensionMismatch(f"candidates mix vertex counts {p} and {g.p}")
        self.graphs = graphs
        self.s = max(len(g) for g in graphs)

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

    Ties break toward the lowest index. Every candidate has a fit result
    and a score: select_graph raises for the whole collection or for no
    candidate. unconverged lists, in index order, the candidates whose fit
    returned converged=False: they are still ranked by their last
    objective, which only bounds their score from above.
    """

    selected_index: int
    scores: tuple[float, ...]
    fit_results: tuple[FitResult, ...]
    unconverged: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "selected_index": self.selected_index,
            "scores": list(self.scores),
            "fit_results": [r.to_dict() for r in self.fit_results],
            "unconverged": list(self.unconverged),
        }


def select_graph(
    collection: CandidateCollection,
    sigma_hat: CovarianceMatrix,
    gamma: float,
) -> SelectionResult:
    """Fit every candidate and return the minimum-score graph.

    The closed forms of all chordal candidates are computed in one batched
    pass over sigma_hat, and checked in one stacked pass, from a plan built
    once per tuple of candidate graphs, candidate g in slot g (the plan
    of the last tuple fitted is kept); the other candidates, and those
    whose closed form fails its check, take the Newton path one by one on
    their slot of the same plan. Each candidate's fit is bit for bit
    fit_graph_mle's, and its fitted precision keeps the Cholesky factor
    its fit computed. A fit takes no setting: it stops on its duality gap,
    as fit_graph_mle's does, and unconverged lists each candidate whose
    gap was not certified.
    Results are in index order, so repeated calls with identical inputs
    produce identical results.

    The inputs are checked once, before anything is fitted, and the call
    raises for the whole collection or for no candidate: DimensionMismatch
    for a sigma_hat whose order differs from the candidates',
    InvalidParameters for a gamma that is not positive, and InfeasibleStart
    when the Newton start diag(1 / sigma_hat diagonal), the same for every
    candidate, is not finite, or not positive or too small to invert once
    scaled into the ball. Nothing else raises, also on a singular
    sigma_hat: a candidate whose closed form fails takes Newton alone.
    """
    fits = tuple(_fit_graphs(sigma_hat, collection.graphs, gamma))
    scores = tuple(fit.objective for fit in fits)
    best = min(range(len(scores)), key=scores.__getitem__)
    unconverged = tuple(idx for idx, fit in enumerate(fits) if not fit.converged)
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
    if not all(_is_real(x) and 0 < x < math.inf for x in (C, gamma, c_star, lambda_max)):
        raise InvalidParameters("C, gamma, c_star, and lambda_max must all be positive finite reals")
    p, s = _checked_size("p", p, 2), _checked_size("s", s, 1)
    factor = s if known_diagonals else p + s
    return (4.0 * C**2 * gamma**2 / c_star**2) * lambda_max**2 * factor * math.log(p)
