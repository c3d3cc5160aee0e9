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
LAPACK solve against it (dpotrs, through core's boundary like every solve
of a fit), so the covariance is never formed. The update is q q^T - r r^T
for two vectors that vanish outside A and its neighbours, so the result
is a copy of the precision with that block changed elementwise: exactly
symmetric by construction, never symmetrized, and checked once, by the
one order-p dpotrf whose factor it keeps. The surgery runs on a stack of
precisions, each with its own edges to sever; a projection is a stack of
one, and the lower-bound driver severs all the trials of one p at once.

``fit_graph_mle`` minimizes the Gaussian negative log likelihood over
precision matrices supported on a graph (diagonal always free) inside a
Frobenius ball, the inner optimization behind graph scores, and stops
when its duality gap is within rounding. What a fit needs of its graphs
alone is planned once per tuple of graphs fitted on one sigma_hat (one
for fit_graph_mle, a collection for selection), graph g in slot g, and
the plan of the last tuple is kept. The chordal closed forms of a tuple
are one batched pass per parent count: one gather of the conditioning
blocks, one stacked solve (core._solve_each), one scatter of every
family's term into a stack, checked as a whole; only potrf and the result
are per graph, and no inverse is computed. Every factorization, solve and
inverse of a fit calls LAPACK through core's boundary, and a fitted
precision keeps the Cholesky factor its fit's own check computed, so it is
factored once (and a Newton fit the covariance its last iterate computed).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np

from . import _EXPORTS
from .core import (
    CovarianceMatrix,
    EdgeSet,
    PrecisionMatrix,
    _check_adoptable,
    _cholesky_lower,
    _log_det,
    _potrf,
    _potrs,
    _solve_each,
    _spd_inverse,
    _trtrs,
    _vertex_pair,
    _vertex_star,
    factorize,
)
from .errors import DimensionMismatch, InfeasibleStart, InvalidParameters
from .serialization import matrix_doc

__all__ = list(_EXPORTS["projection"])


def _sever(arr: np.ndarray, v: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Surgery on a (k, p, p) stack of validated precisions: matrix t loses
    its edges between vertex v[t] and the m vertices s[t] (shape (k, m)).
    Returns the results, exactly symmetric and frozen, and their read-only
    lower Cholesky factors, both (k, p, p)."""
    # Precision-side surgery over A = s + [v] (v last) against the rest R.
    # Theta2 = Theta + N^T (K - Theta_AA) N with N = inv(Theta_AA) Theta[A, :],
    # whose A columns are the identity. K - Theta_AA = -[[b b^T / t_vv, b],
    # [b^T, beta]] for b = Theta_Sv and beta = b^T inv(Theta_SS) b, so with
    # [u0, u1] = N^T [b~, e_v] the update is q q^T - r r^T for q = sqrt(t_vv
    # - beta) u1 (the last pivot of Theta_AA's factor) and r = (u0 + t_vv u1)
    # / sqrt(t_vv). The regression on the rest is one _potrs call per matrix,
    # each written into a Fortran-ordered slice as dpotrs returns it; its
    # column of a vertex outside A's neighbourhood is exactly zero, and so
    # are u0 and u1 there. So q_i q_j - r_i r_j, exactly symmetric, is added
    # on the rows and columns where some u0 or u1 of the stack is nonzero,
    # and every other entry keeps Theta's bits. Every stacked step has the
    # bits of the same step on one matrix.
    count, p = arr.shape[0], arr.shape[-1]
    t = np.arange(count)[:, None]
    a = np.concatenate([s, v[:, None]], axis=1)
    outside = np.ones((count, p), dtype=bool)
    outside[t, a] = False
    rest = np.nonzero(outside)[1].reshape(count, -1)
    lower = _cholesky_lower(arr[t[:, :, None], a[:, :, None], a[:, None, :]])
    coupling = arr[t, s, v[:, None]]
    basis = np.zeros((count, 2, p))
    basis[t, 0, s] = coupling
    basis[t[:, 0], 1, v] = 1.0
    if rest.shape[1]:
        block = arr[t[:, :, None], a[:, :, None], rest[:, None, :]]
        regression = np.empty((count, rest.shape[1], a.shape[1])).transpose(0, 2, 1)
        for k in range(count):
            regression[k] = _potrs(lower[k], block[k])
        basis[t, 0, rest] = np.matmul(coupling[:, None, :], regression[:, :-1])[:, 0]
        basis[t, 1, rest] = regression[:, -1]
    touched = np.flatnonzero(basis.any(axis=(0, 1)))
    u0, u1 = basis[:, 0, touched], basis[:, 1, touched]
    t_vv = arr[t[:, 0], v, v][:, None]
    q = lower[:, -1, -1, None] * u1
    r = (u0 + t_vv * u1) / np.sqrt(t_vv)
    theta2 = arr.copy()
    theta2[:, touched[:, None], touched] += q[:, :, None] * q[:, None, :] - r[:, :, None] * r[:, None, :]
    theta2[t, v[:, None], s] = theta2[t, s, v[:, None]] = 0.0
    theta2.flags.writeable = False
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
    Theta2_RR = Theta_RR + Theta_RA (C K C - C) Theta_AR, a rank-2 update
    that changes only the rows and columns of i, j and their neighbours.
    One 2x2 Cholesky factor and O(p^2) copying, with no symmetrization,
    plus one order-p dpotrf of the result, whose factor the result keeps
    for factorize.
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
    2, which changes only the rows and columns of A and its neighbours.
    When nothing remains, the result is K. One Cholesky factor of order
    |A|, O(|A|^2 p + p^2) in all, with no symmetrization, plus one order-p
    dpotrf of the result, whose factor the result keeps for factorize.
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
    """Gradient of nll in theta: sigma_hat - inv(theta), with the
    covariance theta keeps (computed on first use, as for kl_gaussian).

    Symmetric, and zero up to roundoff at theta = inv(sigma_hat).
    """
    if theta.p != sigma_hat.p:
        raise DimensionMismatch(f"orders differ: {theta.p} vs {sigma_hat.p}")
    return sigma_hat.matrix - theta._sigma


@dataclass(frozen=True, eq=False)
class FitResult:
    """Constrained-MLE output: fitted precision plus convergence diagnostics.

    duality_gap is the fit's certificate in nats: its objective minus a
    lower bound on every feasible objective (fit_graph_mle), +inf when no
    bound was found. termination says why the fit stopped: its gap was
    certified, in "closed_form" (iterations is 0) or after Newton steps in
    "tolerance"; "max_iterations", a fixed cap of 5000 Newton steps, came
    first; or "stalled" (a Newton step with decrement below 1/4 did not
    reduce the gap).

    objective_trace holds the objective at the start and after every
    Newton step, non-increasing up to rounding. It is diagnostic only and
    not part of the JSON document.
    """

    theta_hat: PrecisionMatrix
    objective: float
    iterations: int
    converged: bool
    duality_gap: float
    termination: str
    objective_trace: tuple[float, ...] = ()

    def to_dict(self) -> dict:
        return {
            "theta_hat": matrix_doc(self.theta_hat),
            "objective": self.objective,
            "iterations": self.iterations,
            "converged": self.converged,
            "termination": self.termination,
            "duality_gap": self.duality_gap,
        }


_HESSIAN_BLOCK = 64
_EPSILON = float(np.finfo(float).eps)
# Relative accuracy of ||coords + d|| = gamma when the ball binds, and a cap
# on the Newton steps (Cholesky factorizations) spent reaching it.
_SECULAR_TOLERANCE = 1e-15
_SECULAR_STEPS = 50
# A Newton run stops here with termination "max_iterations"; no fit comes
# near it (a run that cannot certify its gap stalls within tens of steps).
_MAX_ITERATIONS = 5000


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


def _rounding(p: int, size):
    # (ceil(log2 N) + 1) eps size for N = (p + 1)^2 terms (fit_graph_mle)
    return ((p * (p + 2)).bit_length() + 1) * _EPSILON * size


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a vector: np.linalg.norm's bits (the square root
    of one dot product) without its per-call overhead."""
    return math.sqrt(np.dot(x, x))


class _Iterate(NamedTuple):
    """A feasible point with what the Newton run needs of it, and its
    precision matrix with the lower Cholesky factor that checked it."""

    coords: np.ndarray
    theta: np.ndarray
    lower: np.ndarray
    objective: float
    cov: np.ndarray
    grad: np.ndarray
    gap: float
    certified: bool


def _iterate_at(
    rows: np.ndarray, cols: np.ndarray, scale: np.ndarray, sig: np.ndarray, gamma: float, coords: np.ndarray
) -> Optional[_Iterate]:
    # None outside the PD cone, where -log det is +inf; grad is the gradient
    # sig - inv(theta) projected onto the support, in coordinates. The gap
    # is the smaller of the two in fit_graph_mle, each +inf where it fails.
    p = sig.shape[0]
    theta = np.zeros(sig.shape)
    theta[rows, cols] = theta[cols, rows] = coords / scale
    lower = _potrf(theta)
    if lower is None:
        return None
    products = sig * theta
    objective = -float(_log_det(lower)) + float(np.sum(products))
    cov = _spd_inverse(lower)
    on_support, cov_on_support = sig[rows, cols], cov[rows, cols]
    grad = scale * (on_support - cov_on_support)
    size = p + float(np.sum(np.abs(products))) + float(_log_det(lower, magnitude=True))
    gap, nu, ball = math.inf, 0.0, 0.0
    if gamma < math.inf:
        inner, norm = float(grad @ coords), _norm(coords)
        gap = inner + gamma * _norm(grad)
        magnitude = scale * (np.abs(on_support) + np.abs(cov_on_support))
        size += float(magnitude @ np.abs(coords)) + gamma * _norm(magnitude)
        nu = max(-inner, 0.0) / norm / norm
        ball = gamma * nu * norm
    dual = cov.copy()
    dual[rows, cols] = dual[cols, rows] = on_support + nu * theta[rows, cols]
    # dual is symmetric, so its transpose is a Fortran-ordered copy to factor in place
    dual_lower = _potrf(dual.T, overwrite_a=True)
    if dual_lower is not None:
        gap = min(gap, objective - float(_log_det(dual_lower)) - p + ball)
        size += float(_log_det(dual_lower, magnitude=True)) + ball
    return _Iterate(coords, theta, lower, objective, cov, grad, gap, gap <= _rounding(p, size))


def _newton_step(
    hess: np.ndarray, grad: np.ndarray, coords: np.ndarray, gamma: float, nu: float
) -> Optional[tuple[np.ndarray, float, float]]:
    """Step d minimizing <grad, d> + d^T hess d / 2 over ||coords + d|| <=
    gamma, its Newton decrement sqrt(d^T hess d), and the ball's multiplier
    nu: (hess + nu I) d = -(grad + nu coords), with nu = 0 or ||coords +
    d|| = gamma. 1 / ||coords + d(nu)|| is concave and increasing, so
    Newton's method on it (More & Sorensen, 1983), started from the
    previous step's nu, lands below the root at most once and then rises
    to it monotonically. None when hess + nu I is not positive definite."""
    # Fortran order lets dpotrf factor the buffer in place, without a copy
    shifted = np.empty_like(hess, order="F")
    diagonal = np.arange(hess.shape[0])
    for _ in range(_SECULAR_STEPS):
        np.copyto(shifted, hess)
        shifted[diagonal, diagonal] += nu
        lower = _potrf(shifted, overwrite_a=True)
        if lower is None:
            return None
        step = -_potrs(lower, grad + nu * coords)
        target = coords + step
        norm = _norm(target)
        if (nu == 0.0 and norm <= gamma) or abs(norm - gamma) <= _SECULAR_TOLERANCE * gamma:
            break
        slope = _norm(_trtrs(lower, target, lower=True))
        if slope == 0.0:  # its square underflows, in a ball of radius about 1e-150
            return None
        nu = max(nu + (norm / slope) ** 2 * (norm - gamma) / gamma, 0.0)
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


@functools.lru_cache(maxsize=1)
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


def _chordal_mles(sig: np.ndarray, plan: _BatchPlan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closed form of every slot's graph, stacked (slots, p, p), which
    slots have one (not where the graph is not chordal, a conditioning
    block is exactly singular, or a residual variance is not positive
    beyond its rounding), and each slot's sum of log residual variances
    and of their magnitudes, shape (2, slots).

    The chordal MLE factors along the perfect ordering as (I-B)^T D^-1
    (I-B): each vertex's regression on its earlier neighbours contributes
    w w^T / r with w = e_v - B_v and r its residual variance. Families with
    k parents, of every slot, are solved together, and one bincount adds
    every term into place, another every log r into its slot. Every term
    lives on a clique, so off-support entries stay exactly zero."""
    slots = plan.offsets.size - 1
    valid = np.zeros(slots, dtype=bool)
    valid[list(plan.chordal)] = True
    terms, logs = [], []
    for vertices, parents, owner in plan.groups:
        count, k = parents.shape
        resid = size = sig[vertices, vertices]
        w = np.ones((count, k + 1))
        if k:
            cross, block = sig[parents, vertices[:, None]], sig[parents[:, :, None], parents[:, None, :]]
            coef, solved = _solve_each(block, cross)
            valid[owner[~solved]] = False
            explained, solve = cross * coef, np.einsum("ti,tij,tj->t", np.abs(coef), np.abs(block), np.abs(coef))
            resid, size = resid - explained.sum(axis=1), size + np.abs(explained).sum(axis=1) + solve
            w[:, 1:] = -coef
        # positive only beyond (k + 1) eps times the size of its terms and of
        # coef^T block coef, which carries the solve's backward error
        failed = ~(resid > (k + 1) * _EPSILON * size)
        if failed.any():
            valid[owner[failed]] = False
            resid[failed] = 1.0
        terms.append((w[:, :, None] * w[:, None, :] / resid[:, None, None]).ravel())
        logs.append(np.log(resid))
    p = sig.shape[0]
    stack = np.bincount(plan.scatter, np.concatenate(terms), minlength=slots * p * p)
    owners = np.concatenate([group[2] for group in plan.groups])
    logs = np.concatenate(logs)
    log_dets = np.bincount(np.concatenate([owners, owners + slots]), np.concatenate([logs, np.abs(logs)]),
                           minlength=2 * slots)
    return stack.reshape(slots, p, p), valid, log_dets.reshape(2, slots)


def _closed_form_fits(
    sig: np.ndarray, stack: np.ndarray, valid: np.ndarray, log_dets: np.ndarray, gamma: float
) -> list[Optional[FitResult]]:
    """Each slot's closed form as its fit, or None unless it is valid, lies
    in the ball, is positive definite and its gap (no inverse needed) is
    certified. Only potrf and the FitResult are per slot; every sum is
    along one slot's row, so each slot has the bits of its fit alone."""
    slots, p = stack.shape[:2]
    flat = stack.reshape(slots, 1, p * p)
    candidate = valid & ~(np.sqrt(np.matmul(flat, flat.transpose(0, 2, 1))[:, 0, 0]) > gamma)
    # slot s is factored in the Fortran-ordered lower[s].T
    lower = stack.transpose(0, 2, 1).copy()
    for slot in np.flatnonzero(candidate).tolist():
        candidate[slot] = _potrf(lower[slot].T, overwrite_a=True) is not None
    factors, products = lower[candidate], (sig * stack[candidate]).reshape(-1, p * p)
    objective = -_log_det(factors) + products.sum(axis=1)
    gap = objective - log_dets[0, candidate] - p
    size = p + np.abs(products).sum(axis=1) + _log_det(factors, magnitude=True) + log_dets[1, candidate]
    passed = gap <= _rounding(p, size)
    accepted = np.flatnonzero(candidate)[passed]
    _check_adoptable(stack[accepted])
    fits: list[Optional[FitResult]] = [None] * slots
    for slot, f, g in zip(accepted.tolist(), objective[passed].tolist(), gap[passed].tolist()):
        # copies, so a kept fit does not hold the whole batch's stacks
        theta = PrecisionMatrix._validated(stack[slot].copy(), lower[slot].copy().T)
        fits[slot] = FitResult(theta, f, 0, True, g, "closed_form", (f,))
    return fits


def _newton_fit(
    sig: np.ndarray, support: np.ndarray, scale: np.ndarray, gamma: float, start: np.ndarray
) -> FitResult:
    # support and scale are one slot's run of a _BatchPlan; start is the
    # diagonal that _fit_graphs scaled into the ball and checked
    p = sig.shape[0]
    rows, cols = np.divmod(support % (p * p), p)
    at = functools.partial(_iterate_at, rows, cols, scale, sig, gamma)
    hessian = functools.partial(_hessian, rows, cols, scale)
    # a diagonal coordinate's basis scale is 1
    point = at(np.where(rows == cols, start[rows], 0.0))
    trace, iterations, nu = [point.objective], 0, 0.0
    while not point.certified and iterations < _MAX_ITERATIONS:
        newton = _newton_step(hessian(point.cov), point.grad, point.coords, gamma, nu)
        if newton is None:
            break
        step, decrement, nu = newton
        cand = at(point.coords + step / (1.0 + decrement))
        if cand is None:
            break
        previous, point = point, cand
        trace.append(point.objective)
        iterations += 1
        if decrement < 0.25 and previous.gap <= point.gap:
            break
    converged = point.certified
    if converged and iterations < _MAX_ITERATIONS:
        newton = _newton_step(hessian(point.cov), point.grad, point.coords, gamma, nu)
        cand = None if newton is None else at(point.coords + newton[0])
        if cand is not None and cand.certified:
            point = cand
            trace.append(point.objective)
            iterations += 1
    stopped = "tolerance" if converged else "max_iterations" if iterations >= _MAX_ITERATIONS else "stalled"
    _check_adoptable(point.theta)
    return FitResult(PrecisionMatrix._validated(point.theta, point.lower, point.cov), point.objective, iterations,
                     converged, point.gap, stopped, tuple(trace))


def _fit_graphs(
    sigma_hat: CovarianceMatrix,
    graphs: tuple[EdgeSet, ...],
    gamma: float,
) -> list[FitResult]:
    """fit_graph_mle of every graph on one sigma_hat: one batched closed
    form and one stacked check for all the chordal graphs, then a Newton
    run for each graph that the closed form did not settle.

    Raises for the whole tuple, before anything is fitted, on an input
    that no graph's fit accepts: a graph order that differs from
    sigma_hat's, a gamma that is not positive, or an infeasible Newton
    start (below). Otherwise returns every graph's FitResult, in order,
    also on a singular sigma_hat. A closed form that passes its check
    meets an infeasible start only when the norm of sigma_hat's diagonal
    overflows (entries of about 1e154 and more): the closed form's norm is
    at most gamma and its diagonal at least 1 / sigma_hat's, so the start
    needs no scaling and its inverse is sigma_hat's diagonal. The tuple of
    graphs is planned once (_batch_plan, graph g in slot g of every plan
    array), and the plan of the last tuple fitted is kept.
    """
    for graph in graphs:
        if graph.p != sigma_hat.p:
            raise DimensionMismatch(f"orders differ: graph p={graph.p}, sigma p={sigma_hat.p}")
    if not gamma > 0:
        raise InvalidParameters(f"gamma must be positive (inf allowed), got {gamma}")
    sig = sigma_hat.matrix
    # Newton's start on every graph, the diagonal 1 / sigma_hat's scaled
    # into the ball. It is infeasible when its norm is inf (an entry or the
    # norm overflows), when an entry is not positive (a nonpositive diagonal
    # entry), or when the norm of its inverse overflows (an entry, or the
    # dot product that _norm takes): Newton's first gradient, gap and
    # Hessian are built from that inverse and would overflow.
    with np.errstate(divide="ignore", over="ignore"):
        start = 1.0 / np.diagonal(sig)
        norm = _norm(start)
        if gamma < norm < math.inf:
            start *= gamma / norm
        inverse = 1.0 / start
        if not (norm < math.inf and start.min() > 0 and _norm(inverse) < math.inf):
            raise InfeasibleStart("the start 1 / sigma_hat diagonal is not positive, overflows, or is too small to invert in the ball")
    plan = _batch_plan(graphs)
    fits: list[Optional[FitResult]] = [None] * len(graphs)
    if plan.chordal:
        fits[:] = _closed_form_fits(sig, *_chordal_mles(sig, plan), gamma)
    offsets = plan.offsets.tolist()
    for slot, fit in enumerate(fits):
        if fit is None:
            run = slice(offsets[slot], offsets[slot + 1])
            fits[slot] = _newton_fit(sig, plan.support[run], plan.scale[run], gamma, start)
    return fits


def fit_graph_mle(
    sigma_hat: CovarianceMatrix,
    graph: EdgeSet,
    gamma: float,
) -> FitResult:
    """Minimize nll over PD matrices supported on `graph` (plus diagonal)
    with Frobenius norm at most gamma. gamma=inf disables the ball.

    This fits the 1-tuple (graph,) of the plan that select_graph uses for
    a collection (module docstring), so each candidate's result there is
    bit for bit what this returns. Two paths, chosen from the graph:

    - Closed form. When `graph` is chordal (maximum-cardinality search
      finds a perfect ordering), the unconstrained MLE is built directly
      from sigma_hat as (I-B)^T D^-1 (I-B), where row v of B regresses v on
      its earlier-numbered neighbours and D holds the residual variances
      r_v (Dempster 1972; Lauritzen 1996, ch. 5). It is returned, with
      iterations=0, termination="closed_form" and a one-entry
      objective_trace, only if it lies in the ball, is positive definite
      and its gap (below) is certified: the problem is convex, so an
      unconstrained optimum inside the ball is the constrained optimum.
    - Damped Newton otherwise: the graph is not chordal, a conditioning
      block of sigma_hat is exactly singular or an r_v is not positive
      beyond its rounding (_chordal_mles), the ball binds, or the check
      fails. It works in the p + |E| coordinates of an orthonormal basis
      of the support, with a dense Hessian, so a step costs O((p +
      |E|)^3). Step d minimizes the quadratic model of nll over the ball
      and the iterate moves to theta + d / (1 + lam), lam = sqrt(d^T H d)
      the Newton decrement. nll is self-concordant, so that move stays
      positive definite and lowers nll by at least lam - log(1 + lam)
      without a line search (Nesterov & Nemirovski 1994; Tran-Dinh,
      Kyrillidis & Cevher 2015 for the constrained step), and as a convex
      combination of two points in the ball it stays in the ball.

    Every fit stops on one rule: its duality gap in nats is certified. For
    any positive definite W and feasible theta', nll(theta') >= log det W
    + p - gamma ||P_E(W - sigma_hat)||_F, P_E keeping the support (weak
    duality: Dempster 1972; Dahl, Vandenberghe & Roychowdhury 2008).
    duality_gap is nll(theta) minus the larger such bound of two W, +inf
    when neither gives one. W = inv(theta) gives <g, theta> + gamma ||g||
    for the projected gradient g in coordinates (none at gamma = inf).
    inv(theta) with sigma_hat + nu theta on the support, nu = max(0, -<g,
    theta>) / ||theta||^2 (0 at gamma = inf), gives nll - log det W - p +
    gamma nu ||theta|| by one potrf, if W is positive definite; at the
    optimum this W is inv(theta), whether the ball binds or not. A closed
    form's W is sigma_hat's positive-definite completion, of log det sum
    log r_v, so its gap nll - sum log r_v - p needs no factorization. A
    gap is certified when at most (ceil(log2 N) + 1) eps S, S the sum of
    the magnitudes of the N = (p+1)^2 terms added into it (the products
    sigma_ij theta_ij, the log pivots of theta and W, p, and the first
    gap's terms): pairwise summation of N terms rounded once each errs by
    at most (ceil(log2 N) + 1) u S, u = eps / 2 (Higham 2002, sec. 4.2),
    and a gap is a difference of two such sums; the rule has no units. A
    gap pins the objective, but the point only to about sqrt(eps): so one
    undamped Newton step follows a certified Newton iterate, kept, and
    counted as an iteration, if certified too (so it raises nll by
    rounding at most). A Newton run also stops, converged=False, at a
    fixed cap of 5000 steps ("max_iterations"; the fit has no setting), or
    "stalled" when a step taken with lam < 1/4, where Newton converges
    quadratically, does not reduce the gap: rounding, or a likelihood with
    no maximizer, whose gap stays +inf. A stalled run ends within tens of
    steps, far below the cap.

    The Newton run starts from diag(1 / sigma_hat diagonal), rescaled into
    the ball if needed. That start depends on no graph, so it is checked
    once, with the other inputs, before anything is fitted: a start that
    is not positive, overflows, or in the ball is too small to invert
    raises InfeasibleStart, a gamma that is not positive
    InvalidParameters, and a graph of another order than sigma_hat
    DimensionMismatch. So a fit, of one graph or of a collection, raises
    for the whole call or not at all (a singular sigma_hat raises
    nothing), and a non-converged run returns its last iterate.
    """
    return _fit_graphs(sigma_hat, (graph,), gamma)[0]
