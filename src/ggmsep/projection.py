"""KL-optimal edge deletions and the support-constrained Gaussian MLE.

The two ``project_remove_*`` functions perform covariance surgery: the
covariance entries being severed are replaced by the values implied by
zero partial covariance given the remaining coordinates. That leaves every
other conditional of the distribution untouched, so the divergence paid is
exactly the corresponding conditional mutual information, the smallest
possible for any distribution missing those edges. They compute it on the
precision side (Lauritzen 1996, ch. 5): the marginal of the remaining
coordinates R and the regression of the severed block A on them are kept,
and Cov(X_A | X_R) is replaced by its block-diagonal part. That is a
rank-2 update of the precision after one |A| x |A| Cholesky factor and one
LAPACK solve against it (dpotrs, called directly like every solve of a
fit), so the covariance is never formed. The result is built, checked and
symmetrized in one buffer, which it keeps with the factor that checked it;
it is checked once. The surgery runs on a stack of precisions, each with
its own edges to sever; a projection is a stack of one, and the
lower-bound driver severs all the trials of one p at once.

``fit_graph_mle`` minimizes the Gaussian negative log likelihood over
precision matrices supported on a given graph (diagonal always free)
inside a Frobenius ball, the inner optimization behind graph scores. On a
chordal graph whose unconstrained optimum lies inside the ball it returns
that optimum in closed form; otherwise it runs damped Newton steps in the
p + |E| coordinates of the support, each minimizing the quadratic model of
the objective over the ball. What a fit needs of its graph alone is
planned once per tuple of graphs fitted together on one sigma_hat (one
graph for fit_graph_mle, a whole collection for model selection), in one
layout with graph g in slot g: every graph's support basis as flat indices
into a (graphs, p, p) stack, and every chordal graph's perfect-elimination
families grouped by parent count. The plan is kept in a 16-entry cache
keyed on the tuple, so refitting the same candidates repeats only the
arithmetic on the data; a tuple holding a graph with more than 128
coordinates p + |E| is planned afresh. The closed form is one batched pass
per parent count over every chordal graph of the tuple: one gather of the
conditioning blocks, one batched Cholesky check and solve, and one scatter
of every family's term into the stack, which is then checked as a whole:
only potrf, potrs, two norms and the result are per graph. A Newton fit
reads its graph's run of the same support indices. Every factorization,
solve and inverse of a fit calls LAPACK directly through
scipy.linalg.lapack, without the checking wrappers of scipy.linalg. A
fitted precision keeps the Cholesky factor that its fit's own check
computed, so it is factored once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Iterable, NamedTuple, Optional, Union

import numpy as np
from scipy.linalg import lapack

from .core import (
    CovarianceMatrix,
    EdgeSet,
    PrecisionMatrix,
    _check_adoptable,
    _cholesky_lower,
    _factorizable,
    _is_int,
    _symmetrize_in_place,
    _upper_pairs,
    _vertex_pair,
    _vertex_star,
    factorize,
    invert,
)
from .errors import (
    DimensionMismatch,
    GgmError,
    InfeasibleStart,
    InvalidParameters,
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


def _sever(arr: np.ndarray, v: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Surgery on a (k, p, p) stack of validated precisions: matrix t loses
    its edges between vertex v[t] and the m vertices s[t] (shape (k, m)).
    Returns the results, symmetrized and frozen, and their read-only lower
    Cholesky factors, both (k, p, p)."""
    # Precision-side surgery over A = s + [v] (v last) against the rest R.
    # Theta2 = Theta + N^T (K - Theta_AA) N with N = inv(Theta_AA) Theta[A, :],
    # whose A columns are the identity. K - Theta_AA = -[[b b^T / t_vv, b],
    # [b^T, beta]] for b = Theta_Sv and beta = b^T inv(Theta_SS) b, so the
    # update is U H U^T with U = N^T [b~, e_v] and a 2x2 H. The last row of
    # Theta_AA's Cholesky factor is [inv(L_SS) b, sqrt(t_vv - beta)]. Every
    # stacked step has the bits of the same step on one matrix; the
    # regression on the rest is one dpotrs call per matrix, each written
    # into a Fortran-ordered slice as dpotrs returns it.
    count, p = arr.shape[0], arr.shape[-1]
    t = np.arange(count)[:, None]
    a = np.concatenate([s, v[:, None]], axis=1)
    outside = np.ones((count, p), dtype=bool)
    outside[t, a] = False
    rest = np.nonzero(outside)[1].reshape(count, -1)
    lower = _cholesky_lower(arr[t[:, :, None], a[:, :, None], a[:, None, :]])
    coupling = arr[t, s, v[:, None]]
    beta = np.matmul(lower[:, -1:, :-1], lower[:, -1, :-1, None])[:, 0, 0]
    basis = np.zeros((count, p, 2))
    basis[t, s, 0] = coupling
    basis[t[:, 0], v, 1] = 1.0
    if rest.shape[1]:
        block = arr[t[:, :, None], a[:, :, None], rest[:, None, :]]
        regression = np.empty((count, rest.shape[1], a.shape[1])).transpose(0, 2, 1)
        for k in range(count):
            regression[k], info = lapack.dpotrs(lower[k], block[k], lower=1)
            if info:
                raise np.linalg.LinAlgError(f"dpotrs failed (info={info})")
        basis[t, rest, 0] = np.matmul(coupling[:, None, :], regression[:, :-1])[:, 0]
        basis[t, rest, 1] = regression[:, -1]
    gap = np.ones((count, 2, 2))
    gap[:, 0, 0] = 1.0 / arr[t[:, 0], v, v]
    gap[:, 1, 1] = beta
    np.negative(gap, out=gap)
    theta2 = basis @ gap @ basis.swapaxes(-1, -2)
    theta2 += arr
    theta2[t, v[:, None], s] = theta2[t, s, v[:, None]] = 0.0
    _symmetrize_in_place(theta2, "precision matrix")
    return theta2, _cholesky_lower(theta2)


def _severed(theta1: PrecisionMatrix, v: int, s: list[int]) -> PrecisionMatrix:
    arr, lower = _sever(theta1.matrix[None], np.array([v]), np.array([s]))
    return PrecisionMatrix._validated(arr[0], lower[0])


def project_remove_edge(theta1: PrecisionMatrix, edge: Iterable[int]) -> PrecisionMatrix:
    """Precision of the KL-closest distribution whose graph drops one edge.

    In covariance terms, Sigma[i, j] is replaced by Sigma[i, rest] @
    inv(Sigma[rest, rest]) @ Sigma[rest, j] (zero when p == 2 and nothing
    remains), which zeroes the partial covariance of (X_i, X_j) given the
    rest while preserving both one-dimensional conditionals and the
    marginal of the rest. The KL divergence from theta1's Gaussian to the
    result equals conditional_mutual_info(theta1, i, j).

    Computed on the precision side without forming Sigma: with A = {i, j},
    R the rest and C = inv(theta1[A, A]) = Cov(X_A | X_R), the result has
    Theta2_AA = K = diag(1/C_ii, 1/C_jj), Theta2_AR = K C Theta_AR and
    Theta2_RR = Theta_RR + Theta_RA (C K C - C) Theta_AR, a rank-2 update.
    One 2x2 Cholesky factor, O(p^2) in all, plus the validation of the
    result, whose p x p Cholesky factor the result keeps for factorize.
    """
    i, j = _vertex_pair(theta1.p, *edge)
    return _severed(theta1, i, [j])


def project_remove_star(theta1: PrecisionMatrix, vertex: int, neighbors: Iterable[int]) -> PrecisionMatrix:
    """Drop every edge between `vertex` and `neighbors` at the least KL cost.

    In covariance terms, the cross covariances Cov(X_vertex, X_u) for u in
    neighbors are replaced by their values implied by conditional
    independence given the remaining coordinates (plain independence when
    nothing remains); all other covariance entries are preserved. The
    divergence paid equals block_conditional_mutual_info(theta1, vertex,
    neighbors).

    Computed on the precision side as for project_remove_edge, with A =
    {vertex} + neighbors: Cov(X_A | X_R) = C = inv(theta1[A, A]) is
    replaced by its block-diagonal part, so K = blockdiag(1/C_vv,
    inv(C_SS)), Theta2_AA = K, Theta2_AR = K C Theta_AR and Theta2_RR =
    Theta_RR + Theta_RA (C K C - C) Theta_AR with C K C - C of rank at most
    2. When nothing remains, the result is K. One Cholesky factor of order
    |A|, O(|A|^2 p + p^2) in all, plus the validation of the result, whose
    p x p Cholesky factor the result keeps for factorize.
    """
    return _severed(theta1, *_vertex_star(theta1.p, vertex, neighbors))


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
    """Stopping rule of the constrained fit: an integer iteration cap and
    the finite gradient-mapping tolerance at which a fit is converged."""

    max_iterations: int = 5000
    gradient_tolerance: float = 1e-8

    def __post_init__(self) -> None:
        if not _is_int(self.max_iterations) or self.max_iterations < 1:
            raise InvalidParameters(f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")
        if not 0 < self.gradient_tolerance < math.inf:
            raise InvalidParameters(f"gradient_tolerance must be finite and positive, got {self.gradient_tolerance!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Constrained-MLE output: fitted precision plus convergence diagnostics.

    termination says why the fit stopped: "closed_form" (the chordal
    closed form passed its optimality check; iterations is 0),
    "tolerance" (the gradient mapping reached gradient_tolerance),
    "max_iterations" (the iteration cap was hit first) or "stalled" (a
    Newton step with decrement below 1/4 did not reduce the gradient
    mapping, so rounding error dominates it).

    objective_trace holds the objective at the start and after every
    Newton step, non-increasing up to rounding. It is diagnostic only and
    not part of the JSON document.
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


_HESSIAN_BLOCK = 64
# Relative accuracy of ||coords + d|| = gamma when the ball binds, and a cap
# on the Newton steps (Cholesky factorizations) spent reaching it.
_SECULAR_TOLERANCE = 1e-15
_SECULAR_STEPS = 50
# Largest p + |E| of a graph whose fit plans are kept in the cache.
_CACHED_PLAN_COORDINATES = 128


def _hessian(rows: np.ndarray, cols: np.ndarray, scale: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Hessian of nll in the support coordinates at rows, cols with basis
    scales scale, given cov = inv(theta).

    Entry (a, b) is tr(cov E_a cov E_b) = w_a w_b (cov_ik cov_jl +
    cov_il cov_jk) for basis elements E_a at (i, j) and E_b at (k, l),
    with w = 1/sqrt(2) on the diagonal and 1 on edges. It is filled a
    block of rows at a time, so no temporary is larger than a block.
    """
    m = rows.size
    weight = scale / math.sqrt(2.0)
    hess = np.empty((m, m))
    for start in range(0, m, _HESSIAN_BLOCK):
        block = slice(start, start + _HESSIAN_BLOCK)
        at_rows, at_cols = cov[rows[block]], cov[cols[block]]
        out = hess[block]
        np.multiply(at_rows[:, rows], at_cols[:, cols], out=out)
        out += at_rows[:, cols] * at_cols[:, rows]
        out *= np.outer(weight[block], weight)
    return hess


def _barrier_objective(arr: np.ndarray, sig: np.ndarray) -> tuple[float, Optional[np.ndarray]]:
    # -log det is +inf outside the PD cone, where no Cholesky factor exists.
    # The factor's upper triangle is zeroed (dpotrf's clean=1).
    lower, info = lapack.dpotrf(arr, lower=1)
    if info:
        return math.inf, None
    log_det = 2.0 * float(np.sum(np.log(np.diag(lower))))
    return -log_det + float(np.sum(sig * arr)), lower


def _covariance(lower: np.ndarray) -> np.ndarray:
    """inv(theta) from theta's lower Cholesky factor, whose upper triangle
    is zero, exactly symmetric."""
    # dpotrs against the identity, unlike dpotri, gives the same bits at
    # every BLAS thread count; the lower triangle is mirrored onto the upper
    inverse, info = lapack.dpotrs(lower, np.eye(lower.shape[0]), lower=1)
    if info:
        raise np.linalg.LinAlgError(f"dpotrs failed (info={info})")
    rows, cols = _upper_pairs(lower.shape[0])
    inverse[rows, cols] = inverse[cols, rows]
    return inverse


def _into_ball(coords: np.ndarray, gamma: float) -> np.ndarray:
    norm = float(np.linalg.norm(coords))
    return coords * (gamma / norm) if norm > gamma else coords


def _gradient_map_norm(coords: np.ndarray, grad: np.ndarray, gamma: float) -> float:
    return float(np.linalg.norm(coords - _into_ball(coords - grad, gamma)))


class _Iterate(NamedTuple):
    """A feasible point with what the Newton run needs of it, and its
    precision matrix with the lower Cholesky factor that checked it."""

    coords: np.ndarray
    theta: np.ndarray
    lower: np.ndarray
    objective: float
    cov: np.ndarray
    grad: np.ndarray
    gnorm: float


def _iterate_at(
    rows: np.ndarray, cols: np.ndarray, scale: np.ndarray, sig: np.ndarray, gamma: float, coords: np.ndarray
) -> Optional[_Iterate]:
    # None outside the PD cone. theta is the matrix with coordinates coords;
    # grad is the gradient sig - cov projected onto the support, in coordinates.
    theta = np.zeros(sig.shape)
    theta[rows, cols] = theta[cols, rows] = coords / scale
    f, lower = _barrier_objective(theta, sig)
    if lower is None:
        return None
    cov = _covariance(lower)
    grad = scale * (sig - cov)[rows, cols]
    return _Iterate(coords, theta, lower, f, cov, grad, _gradient_map_norm(coords, grad, gamma))


def _newton_step(
    hess: np.ndarray, grad: np.ndarray, coords: np.ndarray, gamma: float, nu: float
) -> tuple[np.ndarray, float, float]:
    """Step d minimizing <grad, d> + d^T hess d / 2 over ||coords + d|| <=
    gamma, its Newton decrement sqrt(d^T hess d), and the ball's multiplier
    nu: (hess + nu I) d = -(grad + nu coords), with nu = 0 or ||coords +
    d|| = gamma. 1 / ||coords + d(nu)|| is concave and increasing, so
    Newton's method on it (More & Sorensen, 1983), started from the
    previous step's nu, lands below the root at most once and then rises
    to it monotonically. Raises LinAlgError when hess + nu I is not
    positive definite."""
    # Fortran order lets dpotrf factor the buffer in place, without a copy;
    # dpotrs and dtrtrs read only its lower triangle
    shifted = np.empty_like(hess, order="F")
    diagonal = np.arange(hess.shape[0])
    for _ in range(_SECULAR_STEPS):
        np.copyto(shifted, hess)
        shifted[diagonal, diagonal] += nu
        lower, info = lapack.dpotrf(shifted, lower=1, clean=0, overwrite_a=1)
        if info:
            raise np.linalg.LinAlgError(f"dpotrf: shifted Hessian not positive definite (info={info})")
        step = -lapack.dpotrs(lower, grad + nu * coords, lower=1)[0]
        target = coords + step
        norm = float(np.linalg.norm(target))
        if (nu == 0.0 and norm <= gamma) or abs(norm - gamma) <= _SECULAR_TOLERANCE * gamma:
            break
        slope = lapack.dtrtrs(lower, target, lower=1)[0]
        nu = max(nu + (norm / float(np.linalg.norm(slope))) ** 2 * (norm - gamma) / gamma, 0.0)
    if norm > gamma:
        step = target * (gamma / norm) - coords
    return step, math.sqrt(max(float(step @ (hess @ step)), 0.0)), nu


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


class _BatchPlan(NamedTuple):
    """What the fits of a tuple of graphs on one sigma_hat need of the
    graphs alone, graph g in slot g. Every array is read-only, and nothing
    here grows like p^2 on sparse graphs.

    Slot g's support basis is support[offsets[g]:offsets[g + 1]], its
    coordinates as flat indices g * p^2 + i * p + j: the diagonal (i, i) of
    every vertex, then every edge (i, j), i < j, in sorted order. scale
    holds each basis element's scale, 1 on the diagonal and sqrt(2) on an
    edge: the element is (e_i e_j^T + e_j e_i^T) / scale, so the basis is
    orthonormal in the Frobenius inner product, the Euclidean norm of
    coordinates is the Frobenius norm, and the ball is a Euclidean ball.

    chordal lists the slots of the chordal graphs. Their perfect-elimination
    families are grouped by parent count k in increasing order: group k
    holds the vertices, shape (n_k,), their earlier-numbered neighbours,
    shape (n_k, k), and the slot of each family's graph, shape (n_k,).
    scatter holds, group after group, the flat index slot * p^2 + u * p + w
    of every entry (u, w) of every family's (k+1) x (k+1) block, family =
    [vertex, *parents]."""

    support: np.ndarray
    scale: np.ndarray
    offsets: np.ndarray
    chordal: tuple[int, ...]
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    scatter: np.ndarray


@functools.lru_cache(maxsize=16)
def _batch_plan(graphs: tuple[EdgeSet, ...]) -> _BatchPlan:
    # Slots rise in graph order within each parent count, and each graph's
    # families keep their search order, so every graph's terms reach
    # bincount in the same order whatever else shares its batch, and its
    # sums come out bit for bit the same.
    p = graphs[0].p if graphs else 0
    pairs: list[tuple[int, int]] = []
    chordal: list[int] = []
    by_count: dict[int, list[list[int]]] = {}
    for slot, graph in enumerate(graphs):
        pairs += [*((v, v) for v in range(p)), *sorted(graph.edges)]
        families = _perfect_families(graph)
        if families is not None:
            for v, parents in families:
                by_count.setdefault(len(parents), []).append([slot, v, *parents])
            chordal.append(slot)
    groups, scatter = [], [np.empty(0, dtype=np.intp)]
    for _, members in sorted(by_count.items()):
        block = np.array(members, dtype=np.intp)
        slots, family = block[:, 0], block[:, 1:]
        groups.append((family[:, 0], family[:, 1:], slots))
        scatter.append((slots[:, None, None] * (p * p) + family[:, :, None] * p + family[:, None, :]).ravel())
    sizes = [p + len(graph) for graph in graphs]
    owner = np.repeat(np.arange(len(graphs)), sizes)
    rows, cols = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    plan = _BatchPlan(owner * (p * p) + rows * p + cols, np.where(rows == cols, 1.0, math.sqrt(2.0)),
                      np.cumsum([0, *sizes]), tuple(chordal), tuple(groups), np.concatenate(scatter))
    for array in (plan.support, plan.scale, plan.offsets, plan.scatter, *(a for group in groups for a in group)):
        array.flags.writeable = False
    return plan


def _chordal_mles(sig: np.ndarray, plan: _BatchPlan) -> tuple[np.ndarray, np.ndarray]:
    """The closed form of every slot's graph, stacked (slots, p, p), and
    which slots have one: False, with the slot's entries all zero, where
    the graph is not chordal; False, with meaningless entries, where a
    conditioning block has no Cholesky factor with finite pivots
    (core._factorizable, stricter than positive definiteness alone) or a
    residual variance is not positive.

    The chordal MLE factors along the perfect ordering as (I-B)^T D^-1
    (I-B): each vertex's regression on its earlier neighbours contributes
    w w^T / r with w = e_v - B_v and r its residual variance. Families with
    k parents, of every slot, are solved together, and one bincount adds
    every term into place. Every term lives on a clique, so off-support
    entries stay exactly zero."""
    slots = plan.offsets.size - 1
    valid = np.zeros(slots, dtype=bool)
    valid[list(plan.chordal)] = True
    terms = []
    for vertices, parents, owner in plan.groups:
        count, k = parents.shape
        resid = sig[vertices, vertices]
        w = np.ones((count, k + 1))
        if k:
            blocks = sig[parents[:, :, None], parents[:, None, :]]
            factorizable = _factorizable(blocks)
            if not factorizable.all():
                # solve the identity in place of the failing blocks
                valid[owner[~factorizable]] = False
                blocks[~factorizable] = np.eye(k)
            cross = sig[parents, vertices[:, None]]
            coef = np.linalg.solve(blocks, cross[:, :, None])[:, :, 0]
            resid = resid - (cross * coef).sum(axis=1)
            w[:, 1:] = -coef
        if not (resid > 0).all():
            failed = ~(resid > 0)
            valid[owner[failed]] = False
            resid[failed] = 1.0
        terms.append((w[:, :, None] * w[:, None, :] / resid[:, None, None]).ravel())
    p = sig.shape[0]
    stack = np.bincount(plan.scatter, np.concatenate(terms), minlength=slots * p * p)
    return stack.reshape(slots, p, p), valid


def _closed_form_fits(
    sig: np.ndarray, plan: _BatchPlan, stack: np.ndarray, valid: np.ndarray, gamma: float, opts: FitOptions
) -> list[Optional[FitResult]]:
    """Each slot's closed form as its fit, or None unless it is valid, lies
    in the ball, is positive definite and passes the gradient check (the
    problem is convex). Only potrf, potrs, the gradient mapping's two norms
    and the FitResult are per slot. A norm is a dot product, as
    np.linalg.norm takes it, so each slot has the bits of its fit alone."""
    slots, p = stack.shape[:2]
    flat = stack.reshape(slots, 1, p * p)
    candidate = valid & ~(np.sqrt(np.matmul(flat, flat.transpose(0, 2, 1))[:, 0, 0]) > gamma)
    # slot s is factored and inverted in the Fortran-ordered lower[s].T and
    # cov[s].T, so cov[s, i, j], i <= j, is the inverse's lower entry (j, i)
    lower = stack.transpose(0, 2, 1).copy()
    cov = np.zeros_like(stack)
    cov.reshape(slots, p * p)[:, :: p + 1] = 1.0
    for slot in np.flatnonzero(candidate).tolist():
        factor, info = lapack.dpotrf(lower[slot].T, lower=1, overwrite_a=1)
        candidate[slot] = not info
        if not info and lapack.dpotrs(factor, cov[slot].T, lower=1, overwrite_b=1)[1]:
            raise np.linalg.LinAlgError("dpotrs failed")
    coords = plan.scale * stack.reshape(-1)[plan.support]
    moved = coords - plan.scale * (sig - cov).reshape(-1)[plan.support]
    offsets = plan.offsets.tolist()
    gnorm = np.full(slots, math.inf)
    for slot in np.flatnonzero(candidate).tolist():
        run = slice(offsets[slot], offsets[slot + 1])
        norm = math.sqrt(np.dot(moved[run], moved[run]))
        if norm > gamma:
            moved[run] *= gamma / norm
        gap = coords[run] - moved[run]
        gnorm[slot] = math.sqrt(np.dot(gap, gap))
    accepted = candidate & (gnorm <= opts.gradient_tolerance)
    kept = stack[accepted]
    _check_adoptable(kept)
    log_det = 2.0 * np.log(np.diagonal(lower, axis1=1, axis2=2)[accepted]).sum(axis=1)
    objective = -log_det + (sig * kept).reshape(-1, p * p).sum(axis=1)
    stack.flags.writeable = lower.flags.writeable = False
    fits: list[Optional[FitResult]] = [None] * slots
    for slot, f, g in zip(np.flatnonzero(accepted).tolist(), objective.tolist(), gnorm[accepted].tolist()):
        theta = PrecisionMatrix._validated(stack[slot], lower[slot].T)
        fits[slot] = FitResult(theta, objective=f, iterations=0, converged=True, projected_gradient_norm=g,
                               termination="closed_form", objective_trace=(f,))
    return fits


def _newton_fit(sig: np.ndarray, support: np.ndarray, scale: np.ndarray, gamma: float, opts: FitOptions) -> FitResult:
    # support and scale are one slot's run of a _BatchPlan
    p = sig.shape[0]
    rows, cols = np.divmod(support % (p * p), p)
    at = functools.partial(_iterate_at, rows, cols, scale, sig, gamma)
    hessian = functools.partial(_hessian, rows, cols, scale)
    point = at(_into_ball(scale * np.diag(1.0 / np.diag(sig))[rows, cols], gamma))
    if point is None:
        raise InvalidParameters("initial point is not positive definite after projection")

    trace = [point.objective]
    iterations = 0
    nu = 0.0
    while point.gnorm > opts.gradient_tolerance and iterations < opts.max_iterations:
        try:
            step, decrement, nu = _newton_step(hessian(point.cov), point.grad, point.coords, gamma, nu)
        except np.linalg.LinAlgError:
            break
        cand = at(point.coords + step / (1.0 + decrement))
        if cand is None:
            break
        previous, point = point, cand
        trace.append(point.objective)
        iterations += 1
        if decrement < 0.25 and previous.gnorm <= point.gnorm:
            break

    converged = point.gnorm <= opts.gradient_tolerance
    if converged and nu > 0.0 and iterations < opts.max_iterations:
        try:
            step = _newton_step(hessian(point.cov), point.grad, point.coords, gamma, nu)[0]
        except np.linalg.LinAlgError:
            step = None
        cand = None if step is None else at(point.coords + step)
        if cand is not None and cand.objective < point.objective and cand.gnorm <= opts.gradient_tolerance:
            point = cand
            trace.append(point.objective)
            iterations += 1
    if converged:
        termination = "tolerance"
    elif iterations >= opts.max_iterations:
        termination = "max_iterations"
    else:
        termination = "stalled"
    _check_adoptable(point.theta)
    return FitResult(
        theta_hat=PrecisionMatrix._validated(point.theta, point.lower),
        objective=point.objective,
        iterations=iterations,
        converged=converged,
        projected_gradient_norm=point.gnorm,
        termination=termination,
        objective_trace=tuple(trace),
    )


def _fit_graphs(
    sigma_hat: CovarianceMatrix,
    graphs: tuple[EdgeSet, ...],
    gamma: float,
    opts: FitOptions = FitOptions(),
) -> list[Union[FitResult, GgmError]]:
    """fit_graph_mle of every graph on one sigma_hat: one batched closed
    form and one stacked check for all the chordal graphs, then a Newton
    run for each graph that the closed form did not settle.

    Raises what no graph's fit could escape: an order that differs from
    sigma_hat's, a gamma that is not positive, or a nonpositive diagonal
    entry of sigma_hat. Otherwise returns, in order, each graph's FitResult
    or the GgmError its own fit raised. The tuple of graphs is planned
    once (_batch_plan, graph g in slot g of every plan array) and the plan
    is cached when every graph has at most _CACHED_PLAN_COORDINATES
    coordinates.
    """
    for graph in graphs:
        if graph.p != sigma_hat.p:
            raise DimensionMismatch(f"orders differ: graph p={graph.p}, sigma p={sigma_hat.p}")
    if not gamma > 0:
        raise InvalidParameters(f"gamma must be positive (inf allowed), got {gamma}")
    sig = sigma_hat.matrix
    if not (np.diagonal(sig) > 0).all():
        raise InfeasibleStart("sigma_hat has a nonpositive diagonal entry; no diagonal start exists")
    graphs = tuple(graphs)
    # A tuple holding a graph with more coordinates is planned afresh on
    # every fit: that graph's O(m^3) Newton steps dwarf the build, while a
    # cached plan, and the graphs keying it, would hold memory for the life
    # of the process.
    if all(graph.p + len(graph) <= _CACHED_PLAN_COORDINATES for graph in graphs):
        plan = _batch_plan(graphs)
    else:
        plan = _batch_plan.__wrapped__(graphs)
    outcomes: list[Union[None, FitResult, GgmError]] = [None] * len(graphs)
    if plan.chordal:
        outcomes[:] = _closed_form_fits(sig, plan, *_chordal_mles(sig, plan), gamma, opts)
    offsets = plan.offsets.tolist()
    for slot, outcome in enumerate(outcomes):
        if outcome is None:
            run = slice(offsets[slot], offsets[slot + 1])
            try:
                outcomes[slot] = _newton_fit(sig, plan.support[run], plan.scale[run], gamma, opts)
            except GgmError as exc:
                outcomes[slot] = exc
    return outcomes


def fit_graph_mle(
    sigma_hat: CovarianceMatrix,
    graph: EdgeSet,
    gamma: float,
    opts: FitOptions = FitOptions(),
) -> FitResult:
    """Minimize nll over PD matrices supported on `graph` (plus diagonal)
    with Frobenius norm at most gamma. gamma=inf disables the ball.

    What depends on the graph alone (the support basis and, for a chordal
    graph, the perfect-elimination families grouped by parent count) is
    planned once per tuple of graphs, each graph in its own slot of one
    layout, and kept in a 16-entry cache, so refitting a graph repeats only
    the arithmetic on sigma_hat; a graph with more than 128 coordinates
    p + |E| is planned afresh on every fit. This function fits the 1-tuple
    (graph,). select_graph fits a whole collection through the same code,
    with the closed forms of all its chordal candidates computed and
    checked in one batch, and its other candidates fitted by Newton one at
    a time; each candidate's result is bit for bit what this function
    returns for it. Two paths, chosen from the graph itself:

    - Closed form. When `graph` is chordal (maximum-cardinality search
      finds a perfect ordering), the unconstrained MLE is built directly
      from sigma_hat as (I-B)^T D^-1 (I-B), where row v of B regresses v on
      its earlier-numbered neighbours and D holds the residual variances
      (Dempster 1972; Lauritzen 1996, ch. 5). Vertices with the same
      number of such neighbours are regressed together in one batched
      Cholesky check and solve, and every family's term is added into
      place by one scatter. The result is returned, with iterations=0,
      termination="closed_form" and a one-entry objective_trace, only if
      it lies in the ball, is positive definite and its gradient mapping
      is at most gradient_tolerance, all checked in one stacked pass over
      a tuple's closed forms. The problem is convex, so an unconstrained
      optimum inside the ball is the constrained optimum.
    - Damped Newton otherwise: the graph is not chordal, a conditioning
      block of sigma_hat is singular, the ball binds, or the check fails.
      It works in the p + |E| coordinates of an orthonormal basis of the
      support, with a dense Hessian, so a step costs O((p + |E|)^3). Step
      d minimizes the quadratic model of nll over the ball and the
      iterate moves to theta + d / (1 + lam), lam = sqrt(d^T H d) the
      Newton decrement. nll is self-concordant, so that move stays
      positive definite and lowers nll by at least lam - log(1 + lam)
      without a line search (Nesterov & Nemirovski 1994; Tran-Dinh,
      Kyrillidis & Cevher 2015 for the constrained step), and as a convex
      combination of two points in the ball it stays in the ball.

    Outside the batched regressions, every factorization, solve and
    inverse calls LAPACK (potrf, potrs, trtrs) directly, without
    the checking wrappers of scipy.linalg. The fitted precision keeps the
    lower Cholesky factor that the fit's own check computed for that exact
    array (potrf of the closed form, or of the last Newton iterate), so it
    is not factored again; its entries are still checked to be finite and
    exactly symmetric. Convergence is declared when the
    unit-step gradient mapping ``x - project(x - grad)`` has Frobenius
    norm at most gradient_tolerance (termination="tolerance"). When the
    ball binds there (multiplier nu > 0), the damped steps have approached
    the sphere from inside, and the mapping does not weigh the radial gap
    they leave by nu, as the objective does. So one undamped step onto the
    sphere follows; it is kept, and counted as an iteration, only if it
    lowers nll and still meets the tolerance. The Newton run also stops,
    with converged=False, at max_iterations
    (termination="max_iterations"), or with termination="stalled" when a
    step taken with lam < 1/4, where Newton converges quadratically, fails
    to reduce the gradient mapping: only rounding error can do that.

    The Newton run starts from diag(1 / sigma_hat diagonal), rescaled into
    the ball if needed. A non-converged run returns its last iterate with
    converged=False rather than raising.
    """
    (outcome,) = _fit_graphs(sigma_hat, (graph,), gamma, opts)
    if isinstance(outcome, GgmError):
        raise outcome
    return outcome
