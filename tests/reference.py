"""Reference computations the tests check the library against.

Each one takes a route independent of the library code under test, so
agreement is evidence and not a restatement. The exceptions are the last
three, each a library route as it was before it was made cheaper. The
last two pin bits: the library must still return exactly theirs.
closed_form_fit takes its inverse as the library's one SPD inverse does
(dtrtri on L^T, then U^-1 U^-T), so it pins the stacked check, not the
inverse route. severed_by_validating_a_copy adds the whole rank-2 update
as a matrix product and symmetrizes the result, where the library adds
q q^T - r r^T on the touched block alone, so the two agree to rounding.
"""

import numpy as np
from scipy.linalg import cho_solve, lapack

from ggmsep import (
    NotPositiveDefinite,
    PrecisionMatrix,
    conditional_mutual_info,
    edge_set_of,
    factorize,
    omega_inf_lower_bound,
    project_remove_edge,
    random_omega_inf_member,
    random_sparse_precision,
    verify_separation,
)
from ggmsep import simulation
from ggmsep.core import _check_adoptable
from ggmsep.projection import FitResult


def schur_complement(m, keep):
    """A - B inv(D) B^T for the block over `keep` (A) against its complement (D).

    det(result) == det(M) / det(D). Applied to a covariance, the result is
    the conditional covariance of the kept coordinates given the rest.
    Raises numpy's LinAlgError when D is not positive definite.
    """
    arr = np.asarray(getattr(m, "matrix", m), dtype=float)
    keep = sorted(keep)
    comp = [k for k in range(arr.shape[0]) if k not in keep]
    b = arr[np.ix_(keep, comp)]
    d_lower = np.linalg.cholesky(arr[np.ix_(comp, comp)])
    s = arr[np.ix_(keep, keep)] - b @ cho_solve((d_lower, True), b.T)
    return 0.5 * (s + s.T)


def in_omega_inf(theta, alpha, h):
    """Whether theta lies in the entrywise class: every diagonal <= h and
    every edge (off-diagonal entry of magnitude above 1e-12) has magnitude
    >= alpha."""
    arr = theta.matrix
    off = np.abs(arr[np.triu_indices(theta.p, k=1)])
    return bool(np.all(np.diag(arr) <= h) and np.all(off[off > 1e-12] >= alpha))


def kl_by_one_triangular_solve(theta1, theta2):
    """kl_gaussian with the trace ||inv(L1) L2||_F^2 of the kept Cholesky
    factors, from one dtrtrs solve of the whole p x p system, so the
    covariance inv(theta1) is never formed."""
    half, info = lapack.dtrtrs(factorize(theta1).factor.T, factorize(theta2).factor, lower=0, trans=1)
    assert info == 0
    trace = float(np.sum(np.square(half)))
    return 0.5 * (trace - theta1.p + factorize(theta1).log_determinant - factorize(theta2).log_determinant)


def severed_by_validating_a_copy(theta, v, s):
    """The precision-side surgery of project_remove_edge/_star (vertex v,
    neighbours s), built with a separate sum and validated by
    PrecisionMatrix's public constructor on a copy."""
    arr = theta.matrix
    a = [*s, v]
    rest = [u for u in range(theta.p) if u not in a]
    lower = np.linalg.cholesky(arr[np.ix_(a, a)])
    coupling = arr[s, v]
    beta = float(lower[-1, :-1] @ lower[-1, :-1])
    basis = np.zeros((theta.p, 2))
    basis[s, 0] = coupling
    basis[v, 1] = 1.0
    if rest:
        regression, info = lapack.dpotrs(lower, arr[np.ix_(a, rest)], lower=1)
        assert info == 0
        basis[rest, 0] = coupling @ regression[:-1]
        basis[rest, 1] = regression[-1]
    gap = -np.array([[1.0 / float(arr[v, v]), 1.0], [1.0, beta]])
    theta2 = arr + basis @ gap @ basis.T
    theta2[v, s] = 0.0
    theta2[s, v] = 0.0
    return PrecisionMatrix(theta2)


def lower_bound_trial_by_trial(cfg):
    """run_lower_bound_experiment as it ran before the trials of one p were
    stacked: each trial alone, through the public one-matrix API. A
    perturbed trial keeps its first candidate that PrecisionMatrix accepts,
    which already misses the removed edge, without projecting it again.
    Returns the report, built by the library's grid skeleton, aggregate and
    extras, and the number of times a perturbed candidate failed to factor
    and halved its step."""
    halvings = 0

    def perturbed_missing_edge(theta_star, removed, rng, scale):
        nonlocal halvings
        base = project_remove_edge(theta_star, removed)
        arr = np.array(base.matrix)
        noise = rng.standard_normal(arr.shape)
        noise = 0.5 * (noise + noise.T)
        noise[removed[0], removed[1]] = noise[removed[1], removed[0]] = 0.0
        step = scale * float(np.mean(np.abs(arr)))
        for _ in range(60):
            try:
                perturbed = PrecisionMatrix(arr + step * noise)
            except NotPositiveDefinite:
                halvings += 1
                step *= 0.5
                continue
            return perturbed
        return base

    def weakest_edge(theta, edges):
        rows, cols = np.array(edges).T
        arr = theta.matrix
        ratio = arr[rows, cols] ** 2 / (arr[rows, rows] * arr[cols, cols])
        near = np.flatnonzero(ratio <= ratio.min() * (1.0 + 1e-12))
        if near.size == 1:
            return edges[near[0]]
        return min((edges[k] for k in near), key=lambda e: conditional_mutual_info(theta, *e))

    def trial(p, index, seed):
        rng = np.random.default_rng(seed)
        methods = ("project_random_edge", "project_argmin_edge", "perturbed_reprojection", "extremal_high_signal")
        method = methods[index % 4]
        if method == "extremal_high_signal":
            ratio = (0.9, 0.99, 0.999)[(index // 4) % 3]
            h = float(rng.uniform(1.0, 3.0))
            theta_star = random_omega_inf_member(p, ratio * h, h, rng, extremal=True)
        else:
            theta_star = random_sparse_precision(p, rng)
        edges = sorted(edge_set_of(theta_star))
        argmin_edge = weakest_edge(theta_star, edges)
        if method in ("project_argmin_edge", "extremal_high_signal"):
            removed = argmin_edge
        else:
            removed = edges[int(rng.integers(len(edges)))]
        if method == "perturbed_reprojection":
            theta = perturbed_missing_edge(theta_star, removed, rng, cfg.perturbation_scale)
        else:
            theta = project_remove_edge(theta_star, removed)
        report = verify_separation(theta_star, theta)
        alpha_eff = min(abs(float(theta_star.matrix[edge])) for edge in edges)
        class_bound = omega_inf_lower_bound(alpha_eff, float(np.max(np.diag(theta_star.matrix))))
        return {
            "method": method,
            "removed_edge": list(removed),
            "removed_argmin": bool(removed == argmin_edge),
            "kl": report.kl_value,
            "bound": report.lower_bound,
            "slack": report.slack,
            "class_bound": class_bound,
            "class_slack": report.kl_value - class_bound,
        }

    report = simulation._run_grid(
        "lower-bound", cfg, "p", cfg.dimensions,
        lambda p, seeds: [trial(p, index, seed) for index, seed in enumerate(seeds)],
        simulation._lower_bound_aggregate, simulation._lower_bound_extras, None, len,
    )
    return report, halvings


def closed_form_fit(sig, rows, cols, scale, theta, gamma, opts):
    """The chordal closed form theta checked as a fit of the graph whose
    support basis has coordinates at rows, cols with scales scale, one
    graph at a time, as fit_graph_mle checked it before the checks of a
    collection were stacked: None unless theta lies in the ball, is
    positive definite and its gradient mapping is at most
    opts.gradient_tolerance."""
    if float(np.linalg.norm(theta)) > gamma:
        return None
    lower, info = lapack.dpotrf(theta, lower=1)
    if info:
        return None
    log_det = 2.0 * float(np.sum(np.log(np.diag(lower))))
    f = -log_det + float(np.sum(sig * theta))
    upper_inverse, info = lapack.dtrtri(lower.T, lower=0)
    assert info == 0
    cov = upper_inverse @ upper_inverse.T
    grad = scale * (sig - cov)[rows, cols]
    coords = scale * theta[rows, cols]
    moved = coords - grad
    norm = float(np.linalg.norm(moved))
    if norm > gamma:
        moved = moved * (gamma / norm)
    gnorm = float(np.linalg.norm(coords - moved))
    if not gnorm <= opts.gradient_tolerance:
        return None
    _check_adoptable(theta)
    return FitResult(
        theta_hat=PrecisionMatrix._validated(theta, lower),
        objective=f,
        iterations=0,
        converged=True,
        projected_gradient_norm=gnorm,
        termination="closed_form",
        objective_trace=(f,),
    )
