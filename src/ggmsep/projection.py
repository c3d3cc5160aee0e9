"""KL-optimal edge deletions and the support-constrained Gaussian MLE.

The two ``project_remove_*`` functions perform covariance surgery: the
covariance entries being severed are replaced by the values implied by
zero partial covariance given the remaining coordinates. That leaves every
other conditional of the distribution untouched, so the divergence paid is
exactly the corresponding conditional mutual information, the smallest
possible for any distribution missing those edges.

``fit_graph_mle`` minimizes the Gaussian negative log likelihood over
precision matrices supported on a given graph (diagonal always free)
inside a Frobenius ball, the inner optimization behind graph scores. On a
chordal graph whose unconstrained optimum lies inside the ball it returns
that optimum in closed form; otherwise it runs projected gradient descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from scipy.linalg import cho_solve

from .core import (
    CovarianceMatrix,
    EdgeSet,
    PrecisionMatrix,
    _cholesky_lower,
    factorize,
    invert,
)
from .errors import (
    DimensionMismatch,
    EmptySet,
    IndexOutOfRange,
    IndexOverlap,
    InfeasibleStart,
    InvalidParameters,
    SameVertex,
)
from .serialization import matrix_doc

__all__ = [
    "FitOptions",
    "FitResult",
    "project_remove_edge",
    "project_remove_star",
    "nll",
    "nll_gradient",
    "fit_graph_mle",
]


def _validate_vertex(p: int, v: int) -> int:
    v = int(v)
    if not 0 <= v < p:
        raise IndexOutOfRange(f"vertex {v} out of range for p={p}")
    return v


def project_remove_edge(theta1: PrecisionMatrix, edge: Iterable[int]) -> PrecisionMatrix:
    """Precision of the KL-closest distribution whose graph drops one edge.

    Sigma[i, j] is replaced by Sigma[i, rest] @ inv(Sigma[rest, rest]) @
    Sigma[rest, j] (zero when p == 2 and nothing remains), which zeroes the
    partial covariance of (X_i, X_j) given the rest while preserving both
    one-dimensional conditionals and the marginal of the rest. The KL
    divergence from theta1's Gaussian to the result equals
    conditional_mutual_info(theta1, i, j).
    """
    i, j = (int(v) for v in edge)
    if i == j:
        raise SameVertex(f"edge endpoints coincide: ({i}, {j})")
    i, j = _validate_vertex(theta1.p, i), _validate_vertex(theta1.p, j)
    sigma = np.array(invert(theta1).matrix)
    rest = [v for v in range(theta1.p) if v != i and v != j]
    if rest:
        lower = _cholesky_lower(sigma[np.ix_(rest, rest)])
        target = float(sigma[i, rest] @ cho_solve((lower, True), sigma[rest, j]))
    else:
        target = 0.0
    sigma[i, j] = sigma[j, i] = target
    theta2 = np.array(invert(CovarianceMatrix(sigma)).matrix)
    theta2[i, j] = theta2[j, i] = 0.0
    return PrecisionMatrix(theta2)


def project_remove_star(theta1: PrecisionMatrix, vertex: int, neighbors: Iterable[int]) -> PrecisionMatrix:
    """Drop every edge between `vertex` and `neighbors` at the least KL cost.

    The cross covariances Cov(X_vertex, X_u) for u in neighbors are
    replaced by their values implied by conditional independence given the
    remaining coordinates (plain independence when nothing remains); all
    other covariance entries are preserved. The divergence paid equals
    block_conditional_mutual_info(theta1, vertex, neighbors).
    """
    p = theta1.p
    v = _validate_vertex(p, int(vertex))
    ns = sorted({int(u) for u in neighbors})
    if not ns:
        raise EmptySet("neighbors is empty")
    if ns[0] < 0 or ns[-1] >= p:
        raise IndexOutOfRange(f"neighbor indices must lie in [0, {p})")
    if v in ns:
        raise IndexOverlap(f"vertex {v} appears among its neighbors")
    sigma = np.array(invert(theta1).matrix)
    rest = [u for u in range(p) if u != v and u not in set(ns)]
    if rest:
        lower = _cholesky_lower(sigma[np.ix_(rest, rest)])
        cross = sigma[v, rest] @ cho_solve((lower, True), sigma[np.ix_(rest, ns)])
    else:
        cross = np.zeros(len(ns))
    sigma[v, ns] = cross
    sigma[ns, v] = cross
    theta2 = np.array(invert(CovarianceMatrix(sigma)).matrix)
    theta2[v, ns] = 0.0
    theta2[ns, v] = 0.0
    return PrecisionMatrix(theta2)


def nll(theta: PrecisionMatrix, sigma_hat: CovarianceMatrix) -> float:
    """Gaussian negative log likelihood up to constants:
    -log det(theta) + tr(sigma_hat @ theta).

    sigma_hat may be merely PSD (small-sample estimates); only theta must
    be positive definite.
    """
    if theta.p != sigma_hat.p:
        raise DimensionMismatch(f"orders differ: {theta.p} vs {sigma_hat.p}")
    fact = factorize(theta)
    return -fact.log_determinant + float(np.sum(sigma_hat.matrix * theta.matrix))


def nll_gradient(theta: PrecisionMatrix, sigma_hat: CovarianceMatrix) -> np.ndarray:
    """Gradient of nll in theta: sigma_hat - inv(theta).

    Symmetric, and exactly zero at theta = inv(sigma_hat).
    """
    if theta.p != sigma_hat.p:
        raise DimensionMismatch(f"orders differ: {theta.p} vs {sigma_hat.p}")
    return sigma_hat.matrix - invert(theta).matrix


@dataclass(frozen=True)
class FitOptions:
    """Knobs for the projected-gradient fit."""

    max_iterations: int = 5000
    gradient_tolerance: float = 1e-8
    initial_step: float = 1.0
    backtracking_ratio: float = 0.5
    armijo_constant: float = 1e-4

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise InvalidParameters("max_iterations must be >= 1")
        if not self.gradient_tolerance > 0:
            raise InvalidParameters("gradient_tolerance must be positive")
        if not self.initial_step > 0:
            raise InvalidParameters("initial_step must be positive")
        if not 0.0 < self.backtracking_ratio < 1.0:
            raise InvalidParameters("backtracking_ratio must be in (0, 1)")
        if not self.armijo_constant > 0:
            raise InvalidParameters("armijo_constant must be positive")

    def to_dict(self) -> dict:
        return {
            "max_iterations": self.max_iterations,
            "gradient_tolerance": self.gradient_tolerance,
            "initial_step": self.initial_step,
            "backtracking_ratio": self.backtracking_ratio,
            "armijo_constant": self.armijo_constant,
        }


@dataclass(frozen=True, eq=False)
class FitResult:
    """Constrained-MLE output: fitted precision plus convergence diagnostics.

    termination says why the fit stopped: "closed_form" (the chordal
    closed form passed its optimality check; iterations is 0),
    "tolerance" (the gradient mapping reached gradient_tolerance),
    "max_iterations" (the iteration cap was hit first) or "stalled" (the
    line search found no acceptable step, or an accepted move could no
    longer change the iterate).

    objective_trace holds the accepted objective values, non-increasing up
    to the objective's rounding error: an accepted value exceeds its
    predecessor by at most 16 * eps * (|log det theta| + |tr(sigma_hat
    theta)|) at the accepted theta (eps = 2.2e-16): 2-4e-14 for the p <= 8
    fits of the test suite, 7e-13 for an unconstrained p = 100 fit, where
    the trace term alone is p. It is diagnostic only and not part of the
    JSON document.
    """

    theta_hat: PrecisionMatrix
    objective: float
    iterations: int
    converged: bool
    projected_gradient_norm: float
    termination: str
    objective_trace: tuple[float, ...] = ()

    def to_dict(self) -> dict:
        return {
            "theta_hat": matrix_doc(self.theta_hat),
            "objective": self.objective,
            "iterations": self.iterations,
            "converged": self.converged,
            "termination": self.termination,
            "projected_gradient_norm": self.projected_gradient_norm,
        }


_EPS = float(np.finfo(float).eps)
# Rounding-error bound of the objective, as a multiple of
# |log det theta| + |tr(sigma_hat theta)|.
_NOISE_FACTOR = 16.0 * _EPS


def _support_mask(graph: EdgeSet) -> np.ndarray:
    mask = np.eye(graph.p, dtype=bool)
    for i, j in graph.edges:
        mask[i, j] = mask[j, i] = True
    return mask


def _project_feasible(arr: np.ndarray, mask: np.ndarray, gamma: float) -> np.ndarray:
    # Zeroing off-support entries is the orthogonal projection onto the
    # support subspace; since that subspace passes through the ball's
    # center, following it with a rescale into the ball projects exactly
    # onto the intersection.
    out = np.where(mask, arr, 0.0)
    if math.isfinite(gamma):
        norm = float(np.linalg.norm(out))
        if norm > gamma:
            out = out * (gamma / norm)
    return out


def _barrier_objective(arr: np.ndarray, sig: np.ndarray) -> tuple[float, Optional[np.ndarray], float]:
    # -log det is +inf outside the PD cone, which is how the line search
    # rejects steps that leave it. The third value bounds the rounding
    # error of the objective; it scales with both terms, not with their
    # difference, which can be far smaller than either.
    try:
        lower = np.linalg.cholesky(arr)
    except np.linalg.LinAlgError:
        return math.inf, None, math.inf
    log_det = 2.0 * float(np.sum(np.log(np.diag(lower))))
    fit_term = float(np.sum(sig * arr))
    return -log_det + fit_term, lower, _NOISE_FACTOR * (abs(log_det) + abs(fit_term))


def _gradient(lower: np.ndarray, sig: np.ndarray, eye: np.ndarray) -> np.ndarray:
    inverse = cho_solve((lower, True), eye)
    return sig - 0.5 * (inverse + inverse.T)


def _gradient_map_norm(x: np.ndarray, grad: np.ndarray, mask: np.ndarray, gamma: float) -> float:
    return float(np.linalg.norm(x - _project_feasible(x - grad, mask, gamma)))


def _slope_direction(move: np.ndarray, cand: np.ndarray, gamma: float) -> np.ndarray:
    # When the ball binds, the gradient has an O(1) component along the
    # sphere's normal (the multiplier), while the rescale onto the sphere
    # leaves eps-sized rounding in every entry of the move. Near the optimum
    # that rounding outweighs the tangential decrease in <grad, move>, and
    # the line search fails at random. The move's normal part is second
    # order in the step, so the slopes are taken along its tangential part.
    if not math.isfinite(gamma) or float(np.linalg.norm(cand)) < gamma * (1.0 - 1e-12):
        return move
    return move - (float(np.sum(move * cand)) / float(np.sum(cand * cand))) * cand


def _bb_step(dx: np.ndarray, dgrad: np.ndarray, fallback: float) -> float:
    num = float(np.sum(dx * dx))
    den = float(np.sum(dx * dgrad))
    if num == 0.0 or den <= 0.0 or not math.isfinite(den):
        return fallback
    return min(max(num / den, 1e-12), 1e10)


def _perfect_families(graph: EdgeSet) -> Optional[list[tuple[int, list[int]]]]:
    # Maximum-cardinality search, ties broken by lowest index. The graph is
    # chordal iff every vertex's earlier-numbered neighbours form a clique
    # (Tarjan & Yannakakis, 1984). Returns, in search order, each vertex
    # with those neighbours, or None at the first vertex that fails.
    p = graph.p
    adjacency: list[set[int]] = [set() for _ in range(p)]
    for i, j in graph.edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    weight = [0] * p
    unnumbered = set(range(p))
    families = []
    for _ in range(p):
        v = max(unnumbered, key=lambda u: (weight[u], -u))
        unnumbered.remove(v)
        parents = adjacency[v] - unnumbered
        if any(not parents <= adjacency[a] | {a} for a in parents):
            return None
        families.append((v, sorted(parents)))
        for u in adjacency[v] & unnumbered:
            weight[u] += 1
    return families


def _chordal_mle(sig: np.ndarray, families: list[tuple[int, list[int]]]) -> Optional[np.ndarray]:
    # The chordal MLE factors along the perfect ordering as (I-B)^T D^-1
    # (I-B): each vertex's regression on its earlier neighbours contributes
    # w w^T / r with w = e_v - B_v and r its residual variance. Every term
    # lives on a clique, so off-support entries stay exactly zero. None when
    # a conditioning block or residual variance is not positive.
    theta = np.zeros_like(sig)
    for v, parents in families:
        if parents:
            try:
                lower = np.linalg.cholesky(sig[np.ix_(parents, parents)])
            except np.linalg.LinAlgError:
                return None
            coef = cho_solve((lower, True), sig[parents, v])
            resid = float(sig[v, v] - sig[v, parents] @ coef)
            w = np.concatenate(([1.0], -coef))
        else:
            resid = float(sig[v, v])
            w = np.ones(1)
        if not resid > 0:
            return None
        family = [v, *parents]
        theta[np.ix_(family, family)] += np.outer(w, w) / resid
    return theta


def fit_graph_mle(
    sigma_hat: CovarianceMatrix,
    graph: EdgeSet,
    gamma: float,
    opts: FitOptions = FitOptions(),
    *,
    initial: Optional[PrecisionMatrix] = None,
) -> FitResult:
    """Minimize nll over PD matrices supported on `graph` (plus diagonal)
    with Frobenius norm at most gamma. gamma=inf disables the ball.

    Two paths, chosen from the graph itself:

    - Closed form. When `graph` is chordal (maximum-cardinality search
      finds a perfect ordering), the unconstrained MLE is built directly
      from sigma_hat as (I-B)^T D^-1 (I-B), where row v of B regresses v on
      its earlier-numbered neighbours and D holds the residual variances
      (Dempster 1972; Lauritzen 1996, ch. 5). It is returned, with
      iterations=0, termination="closed_form" and a one-entry
      objective_trace, only if it lies in the ball, is positive definite
      and its gradient mapping is at most gradient_tolerance. The problem
      is convex, so an unconstrained optimum inside the ball is the
      constrained optimum.
    - Projected gradient descent otherwise: the graph is not chordal, a
      conditioning block of sigma_hat is singular, the ball binds, or the
      check fails. Trial steps use a Barzilai-Borwein scale from the
      previous accepted move; candidates outside the PD cone cost +inf and
      are rejected by the line search, so every iterate is feasible and
      strictly PD. A candidate is accepted when it passes the Armijo test
      ``f(cand) <= f(x) + armijo_constant * <grad(x), move>`` without
      raising f. Near the optimum that decrease falls below the rounding
      error of f, which is bounded by 16 * eps * (|log det cand| +
      |tr(sigma_hat cand)|); when |f(cand) - f(x)| is within that bound,
      the candidate is accepted instead if ``<grad(cand), move> <= (1 - 2
      * armijo_constant) * |<grad(x), move>|`` (the approximate Armijo
      condition of Hager & Zhang, 2005). The bound scales with both terms
      of f, not with f, because they can cancel to an f far smaller than
      either. When the candidate lies on the ball's sphere, both inner
      products take the move's tangential part in place of the move.

    Convergence is declared when the unit-step gradient mapping
    ``x - project(x - grad)`` has Frobenius norm at most
    gradient_tolerance (termination="tolerance"). The iterative run also
    stops, with converged=False, at max_iterations
    (termination="max_iterations"), or with termination="stalled" when the
    line search finds no acceptable step or when an accepted move leaves f
    bit-identical and is no larger than eps times the iterate's norm (a
    null move: the iterate can no longer change).

    The iterative run starts from `initial`, or else from diag(1 /
    sigma_hat diagonal), rescaled into the ball if needed; `initial` does
    not affect the closed form. A non-converged run returns its best
    (last) iterate with converged=False rather than raising.
    """
    if graph.p != sigma_hat.p:
        raise DimensionMismatch(f"orders differ: graph p={graph.p}, sigma p={sigma_hat.p}")
    if not gamma > 0:
        raise InvalidParameters(f"gamma must be positive (inf allowed), got {gamma}")
    sig = sigma_hat.matrix
    diag = np.diag(sig)
    if np.any(diag <= 0):
        raise InfeasibleStart("sigma_hat has a nonpositive diagonal entry; no diagonal start exists")
    mask = _support_mask(graph)
    eye = np.eye(graph.p)

    families = _perfect_families(graph)
    closed = None if families is None else _chordal_mle(sig, families)
    if closed is not None and not float(np.linalg.norm(closed)) > gamma:
        f, lower, _ = _barrier_objective(closed, sig)
        if lower is not None:
            gnorm = _gradient_map_norm(closed, _gradient(lower, sig, eye), mask, gamma)
            if gnorm <= opts.gradient_tolerance:
                return FitResult(
                    theta_hat=PrecisionMatrix(closed),
                    objective=f,
                    iterations=0,
                    converged=True,
                    projected_gradient_norm=gnorm,
                    termination="closed_form",
                    objective_trace=(f,),
                )

    x = np.diag(1.0 / diag) if initial is None else np.array(initial.matrix)
    x = _project_feasible(x, mask, gamma)
    f, lower, _ = _barrier_objective(x, sig)
    if not math.isfinite(f):
        raise InvalidParameters("initial point is not positive definite after projection")

    grad = _gradient(lower, sig, eye)
    gnorm = _gradient_map_norm(x, grad, mask, gamma)
    trace = [f]
    step = opts.initial_step
    iterations = 0

    while gnorm > opts.gradient_tolerance and iterations < opts.max_iterations:
        t = step
        new_grad = None
        while t > 1e-20:
            cand = _project_feasible(x - t * grad, mask, gamma)
            move = cand - x
            if not np.any(move):
                t *= opts.backtracking_ratio
                continue
            f_cand, lower_cand, noise = _barrier_objective(cand, sig)
            direction = _slope_direction(move, cand, gamma)
            decrease = float(np.sum(grad * direction))
            if f_cand <= f + opts.armijo_constant * decrease and f_cand <= f:
                new_grad = _gradient(lower_cand, sig, eye)
                break
            if math.isfinite(f_cand) and abs(f_cand - f) <= noise:
                # The objective cannot resolve this decrease; judge the step
                # by the slope at the candidate instead (Hager & Zhang's
                # approximate Armijo condition).
                cand_grad = _gradient(lower_cand, sig, eye)
                if float(np.sum(cand_grad * direction)) <= (1.0 - 2.0 * opts.armijo_constant) * abs(decrease):
                    new_grad = cand_grad
                    break
            t *= opts.backtracking_ratio
        if new_grad is None:
            break
        if f_cand == f and np.linalg.norm(move) <= _EPS * np.linalg.norm(x):
            # a null move: the iterate can no longer change
            break
        step = _bb_step(move, new_grad - grad, fallback=opts.initial_step)
        x, f, grad = cand, f_cand, new_grad
        trace.append(f)
        iterations += 1
        gnorm = _gradient_map_norm(x, grad, mask, gamma)

    converged = gnorm <= opts.gradient_tolerance
    if converged:
        termination = "tolerance"
    elif iterations >= opts.max_iterations:
        termination = "max_iterations"
    else:
        termination = "stalled"
    return FitResult(
        theta_hat=PrecisionMatrix(x),
        objective=f,
        iterations=iterations,
        converged=converged,
        projected_gradient_norm=gnorm,
        termination=termination,
        objective_trace=tuple(trace),
    )
