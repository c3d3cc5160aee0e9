"""Reference computations the tests check the library against.

Each one takes a route independent of the library code under test, so
agreement is evidence and not a restatement. The exceptions are
severed_by_validating_a_copy and lower_bound_trial_by_trial, each a
library route as it was before it was made cheaper; the library must
still return exactly the second one's bits. severed_by_validating_a_copy
adds the whole rank-2 update as a matrix product and symmetrizes the
result, where the library adds q q^T - r r^T on the touched block alone,
so the two agree to rounding. closed_form_fit certifies a closed form's
duality gap with an explicit Cholesky factor of W, where the library sums
the log residual variances, so the two gaps agree to rounding; its
objective and kept factor pin bits.
"""

import math

import numpy as np
from scipy.linalg import cho_solve, lapack

from ggmsep import (
    NotPositiveDefinite,
    PrecisionMatrix,
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


def least_ratio_edge(theta):
    """The first of theta's sorted edges with the least ratio t_ii t_jj /
    (t_ii t_jj - t_ij^2), each ratio computed in Python floats."""
    arr = theta.matrix.tolist()

    def ratio(edge):
        i, j = edge
        a = arr[i][i] * arr[j][j]
        return a / (a - arr[i][j] ** 2)

    return min(sorted(edge_set_of(theta)), key=ratio)


def lower_bound_trial_by_trial(cfg):
    """run_lower_bound_experiment as it ran before the trials of one p were
    stacked: each trial alone, through the public one-matrix API. A
    perturbed trial keeps its first candidate that PrecisionMatrix accepts,
    which already misses the removed edge, without projecting it again; its
    first step is scaled by simulation._PERTURBATION_SCALE, read per call.
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
        argmin_edge = least_ratio_edge(theta_star)
        if method in ("project_argmin_edge", "extremal_high_signal"):
            removed = argmin_edge
        else:
            removed = edges[int(rng.integers(len(edges)))]
        if method == "perturbed_reprojection":
            theta = perturbed_missing_edge(theta_star, removed, rng, simulation._PERTURBATION_SCALE)
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


def closed_form_fit(sig, rows, cols, theta, gamma):
    """The chordal closed form theta checked as a fit of the graph whose
    support has entries at rows, cols, one graph at a time and by another
    route than the stacked check: None unless theta lies in the ball, is
    positive definite and its duality gap against W = inv(theta) with sig
    written on the support, factored explicitly, is within fit_graph_mle's
    rounding bound (ceil(log2 (p+1)^2) + 1) eps S."""
    if float(np.linalg.norm(theta)) > gamma:
        return None
    lower, info = lapack.dpotrf(theta, lower=1)
    if info:
        return None
    p = theta.shape[0]
    log_pivots = np.log(np.diag(lower))
    f = -2.0 * float(np.sum(log_pivots)) + float(np.sum(sig * theta))
    w = np.linalg.inv(theta)
    w[rows, cols] = w[cols, rows] = sig[rows, cols]
    try:
        w_log_pivots = np.log(np.diag(np.linalg.cholesky(w)))
    except np.linalg.LinAlgError:
        return None
    gap = f - 2.0 * float(np.sum(w_log_pivots)) - p
    size = p + np.sum(np.abs(sig * theta)) + 2.0 * np.sum(np.abs(log_pivots)) + 2.0 * np.sum(np.abs(w_log_pivots))
    if not gap <= (math.ceil(math.log2((p + 1) ** 2)) + 1) * np.finfo(float).eps * size:
        return None
    _check_adoptable(theta)
    return FitResult(
        theta_hat=PrecisionMatrix._validated(theta, lower),
        objective=f,
        iterations=0,
        converged=True,
        duality_gap=gap,
        termination="closed_form",
        objective_trace=(f,),
    )
