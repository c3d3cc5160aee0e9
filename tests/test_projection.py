"""Edge/star deletion projections and the constrained maximum-likelihood fit."""

import dataclasses
import math
import sys
import warnings
from collections import Counter

import ggmsep
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import cho_solve

from ggmsep import (
    CandidateCollection,
    CovarianceMatrix,
    DimensionMismatch,
    EdgeSet,
    EmptySet,
    FitOptions,
    IndexOutOfRange,
    IndexOverlap,
    InfeasibleStart,
    InvalidParameters,
    NotPositiveDefinite,
    PrecisionMatrix,
    SameVertex,
    block_conditional_mutual_info,
    chain_precision,
    conditional_mutual_info,
    counterexample_precision,
    edge_set_of,
    empirical_covariance,
    fit_graph_mle,
    invert,
    kl_gaussian,
    nll,
    nll_gradient,
    project_remove_edge,
    project_remove_star,
    random_sparse_precision,
    sample,
    select_graph,
    trial_seed,
)
from ggmsep import core, projection, simulation
from reference import closed_form_fit, severed_by_validating_a_copy

HALF_LOG_2 = 0.5 * math.log(2.0)
HALF_LOG_4_3 = 0.5 * math.log(4.0 / 3.0)


class TestProjectRemoveEdge:
    def test_noop_when_edge_absent(self):
        theta = PrecisionMatrix([[2.0, 0.0, 0.5], [0.0, 2.0, 0.7], [0.5, 0.7, 2.0]])
        out = project_remove_edge(theta, (0, 1))
        assert np.max(np.abs(out.matrix - theta.matrix)) < 1e-12

    def test_two_dimensional_case(self):
        # with nothing to condition on, the projection is the product of
        # marginals: variances 4/3 each, so the precision is diag(3/4)
        theta = PrecisionMatrix([[1.0, -0.5], [-0.5, 1.0]])
        out = project_remove_edge(theta, (0, 1))
        assert_allclose(out.matrix, np.diag([0.75, 0.75]), atol=1e-14)

    def test_flat_family_single_edge_cost(self):
        theta = counterexample_precision(2)
        out = project_remove_edge(theta, (0, 1))
        assert_allclose(kl_gaussian(theta, out), HALF_LOG_4_3, atol=1e-12)

    def test_zeroes_the_edge_and_preserves_other_covariances(self):
        rng = np.random.default_rng(3)
        theta = random_sparse_precision(7, rng)
        i, j = 2, 5
        out = project_remove_edge(theta, (i, j))
        assert out.matrix[i, j] == 0.0
        sigma1 = invert(theta).matrix
        sigma2 = invert(out).matrix
        mask = np.ones((7, 7), dtype=bool)
        mask[i, j] = mask[j, i] = False
        assert np.max(np.abs((sigma1 - sigma2)[mask])) < 1e-9

    def test_kl_equals_conditional_mutual_info(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = int(rng.integers(3, 10))
            theta = random_sparse_precision(p, rng)
            i, j = sorted(rng.choice(p, size=2, replace=False).tolist())
            out = project_remove_edge(theta, (i, j))
            assert abs(kl_gaussian(theta, out) - conditional_mutual_info(theta, i, j)) < 1e-8

    def test_idempotent(self):
        theta = random_sparse_precision(6, np.random.default_rng(12))
        once = project_remove_edge(theta, (1, 4))
        twice = project_remove_edge(once, (1, 4))
        assert np.max(np.abs(once.matrix - twice.matrix)) < 1e-10

    @pytest.mark.parametrize("p", range(3, 11))
    def test_a_precision_that_misses_the_edge_moves_only_by_rounding(self, p):
        # why the lower-bound driver keeps a perturbed candidate without
        # projecting it again: projections, and perturbations of them that
        # are zero at the edge, move by a few ulps of their largest entry
        # (at most 2.7 in 640 draws at p = 3..10), and their KL from the
        # truth by about 1e-15
        eps = np.finfo(float).eps
        for seed in range(8):
            rng = np.random.default_rng([p, seed])
            theta = random_sparse_precision(p, rng)
            edges = sorted(edge_set_of(theta))
            edge = edges[int(rng.integers(len(edges)))]
            once = project_remove_edge(theta, edge)
            noise = rng.standard_normal((p, p))
            noise = 0.5 * (noise + noise.T)
            noise[edge] = noise[edge[::-1]] = 0.0
            _, candidates, _ = simulation._perturbed_candidates(once.matrix[None], noise[None], 0.25)
            for missing in (once, PrecisionMatrix(candidates[0])):
                again = project_remove_edge(missing, edge)
                assert again.matrix[edge] == missing.matrix[edge] == 0.0
                gap = np.max(np.abs(again.matrix - missing.matrix))
                assert gap <= 4 * eps * np.max(np.abs(missing.matrix))
                assert abs(kl_gaussian(theta, again) - kl_gaussian(theta, missing)) <= 8 * eps

    def test_errors(self):
        theta = PrecisionMatrix(np.eye(3))
        with pytest.raises(SameVertex):
            project_remove_edge(theta, (1, 1))
        with pytest.raises(IndexOutOfRange):
            project_remove_edge(theta, (0, 3))

    @pytest.mark.parametrize("edge", [(0.9, 2.7), (0, 2.0), (np.float64(0.0), 2), (True, 2)])
    def test_rejects_vertices_that_are_not_integers(self, edge):
        theta = random_sparse_precision(4, np.random.default_rng(3))
        with pytest.raises(IndexOutOfRange):
            project_remove_edge(theta, edge)
        expected = project_remove_edge(theta, (0, 2)).matrix
        assert np.array_equal(project_remove_edge(theta, np.array([0, 2])).matrix, expected)


class TestProjectRemoveStar:
    def test_single_neighbor_matches_edge_removal(self):
        theta = random_sparse_precision(6, np.random.default_rng(15))
        star = project_remove_star(theta, 2, [4])
        edge = project_remove_edge(theta, (2, 4))
        assert np.max(np.abs(star.matrix - edge.matrix)) < 1e-10

    def test_flat_family_full_star(self):
        for d in range(1, 9):
            theta = counterexample_precision(d)
            out = project_remove_star(theta, 0, range(1, d + 1))
            assert_allclose(kl_gaussian(theta, out), HALF_LOG_2, atol=1e-10)
            assert np.max(np.abs(out.matrix[0, 1:])) == 0.0

    def test_factorizes_into_independent_blocks(self):
        # severing the whole star around vertex 0 with nothing left over
        # makes X_0 independent of the rest
        theta = counterexample_precision(3)
        out = project_remove_star(theta, 0, [1, 2, 3])
        sigma = invert(theta).matrix
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0 / sigma[0, 0]
        expected[1:, 1:] = np.linalg.inv(sigma[1:, 1:])
        assert np.max(np.abs(out.matrix - expected)) < 1e-10

    def test_kl_equals_block_conditional_mutual_info(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            p = int(rng.integers(4, 10))
            theta = random_sparse_precision(p, rng)
            v = int(rng.integers(p))
            others = [u for u in range(p) if u != v]
            size = int(rng.integers(1, p - 1))
            neighbors = sorted(rng.choice(others, size=size, replace=False).tolist())
            out = project_remove_star(theta, v, neighbors)
            lhs = kl_gaussian(theta, out)
            rhs = block_conditional_mutual_info(theta, v, neighbors)
            assert abs(lhs - rhs) < 1e-8

    def test_errors(self):
        theta = PrecisionMatrix(np.eye(4))
        with pytest.raises(EmptySet):
            project_remove_star(theta, 0, [])
        with pytest.raises(IndexOverlap):
            project_remove_star(theta, 1, [1, 2])
        with pytest.raises(IndexOutOfRange):
            project_remove_star(theta, 0, [4])

    @pytest.mark.parametrize("vertex, neighbors", [(0.9, [1, 2]), (0, [1, 2.7]), (np.float64(0.0), [1]), (0, [True])])
    def test_rejects_vertices_that_are_not_integers(self, vertex, neighbors):
        theta = random_sparse_precision(4, np.random.default_rng(3))
        with pytest.raises(IndexOutOfRange):
            project_remove_star(theta, vertex, neighbors)
        expected = project_remove_star(theta, 0, [1, 2]).matrix
        assert np.array_equal(project_remove_star(theta, np.int64(0), np.array([2, 1])).matrix, expected)


def reference_remove_edge(theta1, edge):
    # Covariance surgery through two full inverses, as the projections were
    # first written: an independent computation of the same projection.
    i, j = edge
    sigma = np.array(invert(theta1).matrix)
    rest = [v for v in range(theta1.p) if v != i and v != j]
    if rest:
        lower = np.linalg.cholesky(sigma[np.ix_(rest, rest)])
        target = float(sigma[i, rest] @ cho_solve((lower, True), sigma[rest, j]))
    else:
        target = 0.0
    sigma[i, j] = sigma[j, i] = target
    theta2 = np.array(invert(CovarianceMatrix(sigma)).matrix)
    theta2[i, j] = theta2[j, i] = 0.0
    return theta2


def reference_remove_star(theta1, v, ns):
    sigma = np.array(invert(theta1).matrix)
    rest = [u for u in range(theta1.p) if u != v and u not in set(ns)]
    if rest:
        lower = np.linalg.cholesky(sigma[np.ix_(rest, rest)])
        cross = sigma[v, rest] @ cho_solve((lower, True), sigma[np.ix_(rest, ns)])
    else:
        cross = np.zeros(len(ns))
    sigma[v, ns] = cross
    sigma[ns, v] = cross
    theta2 = np.array(invert(CovarianceMatrix(sigma)).matrix)
    theta2[v, ns] = 0.0
    theta2[ns, v] = 0.0
    return theta2


def relative_gap(a, b):
    return float(np.max(np.abs(a - b))) / float(np.max(np.abs(b)))


@st.composite
def severings(draw):
    """A random sparse precision with p = 2..12, a vertex, a star around it
    of any size (p - 1 leaves nothing else), and a vertex permutation."""
    p = draw(st.integers(2, 12))
    theta = random_sparse_precision(p, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    v = draw(st.integers(0, p - 1))
    others = [u for u in range(p) if u != v]
    star = draw(st.lists(st.sampled_from(others), min_size=1, max_size=p - 1, unique=True))
    return theta, v, star, draw(st.permutations(range(p)))


def permuted(theta, perm):
    # vertex perm[k] of theta becomes vertex k of the result
    return PrecisionMatrix(theta.matrix[np.ix_(perm, perm)])


class TestPrecisionSideSurgery:
    @settings(max_examples=150, deadline=None)
    @given(case=severings())
    def test_edge_projection_against_covariance_surgery(self, case):
        theta, v, star, perm = case
        u = star[0]
        out = project_remove_edge(theta, (v, u))
        assert relative_gap(out.matrix, reference_remove_edge(theta, (v, u))) < 1e-10
        assert out.matrix[v, u] == 0.0 and out.matrix[u, v] == 0.0
        assert abs(kl_gaussian(theta, out) - conditional_mutual_info(theta, v, u)) < 1e-8
        where = np.argsort(perm)
        moved = project_remove_edge(permuted(theta, perm), (where[v], where[u]))
        assert relative_gap(moved.matrix, out.matrix[np.ix_(perm, perm)]) < 1e-10

    @settings(max_examples=150, deadline=None)
    @given(case=severings())
    def test_star_projection_against_covariance_surgery(self, case):
        theta, v, star, perm = case
        ns = sorted(star)
        out = project_remove_star(theta, v, star)
        assert relative_gap(out.matrix, reference_remove_star(theta, v, ns)) < 1e-10
        assert np.all(out.matrix[v, ns] == 0.0) and np.all(out.matrix[ns, v] == 0.0)
        assert abs(kl_gaussian(theta, out) - block_conditional_mutual_info(theta, v, star)) < 1e-8
        where = np.argsort(perm)
        moved = project_remove_star(permuted(theta, perm), where[v], where[ns])
        assert relative_gap(moved.matrix, out.matrix[np.ix_(perm, perm)]) < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(2, 12),
        log_condition=st.floats(0.0, 10.0),
        data=st.data(),
    )
    def test_ill_conditioned_input_never_yields_nan(self, seed, p, log_condition, data):
        # eigenvalues spread log-uniformly over [10^-log_condition, 1]
        # under a random rotation, so the condition number reaches 1e10
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        theta = PrecisionMatrix((q * np.geomspace(1.0, 10.0 ** -log_condition, p)) @ q.T)
        v = data.draw(st.integers(0, p - 1))
        others = [u for u in range(p) if u != v]
        star = data.draw(st.lists(st.sampled_from(others), min_size=1, max_size=p - 1, unique=True))
        for project in (lambda: project_remove_edge(theta, (v, star[0])),
                        lambda: project_remove_star(theta, v, star)):
            try:
                out = project()
            except NotPositiveDefinite:
                continue
            assert isinstance(out, PrecisionMatrix)
            assert np.all(np.isfinite(out.matrix))

    @pytest.mark.parametrize("p", [8, 50, 200])
    def test_result_changes_only_the_neighbourhood_and_keeps_potrfs_factor(self, p):
        # the update is added elementwise on the rows and columns of A + N(A)
        # alone, exactly symmetric, and the result is factored once
        theta = random_sparse_precision(p, np.random.default_rng(p), edge_probability=min(1.0, 4.0 / p))
        v, u = min(edge_set_of(theta))
        star = [w for w in range(p) if w != v and theta.matrix[v, w] != 0.0]
        cases = [
            (project_remove_edge(theta, (v, u)), v, [u]),
            (project_remove_edge(theta, (u, v)), u, [v]),
            (project_remove_star(theta, v, star), v, star),
        ]
        for out, w, s in cases:
            assert np.array_equal(out.matrix, out.matrix.T)
            near = (theta.matrix[[w, *s]] != 0.0).any(axis=0)
            near[[w, *s]] = True
            apart = ~(near[:, None] & near[None, :])
            assert apart.any() or p == 8  # at p=8, A + N(A) is every vertex
            assert out.matrix[apart].tobytes() == theta.matrix[apart].tobytes()
            expected = severed_by_validating_a_copy(theta, w, s).matrix
            assert np.max(np.abs(out.matrix - expected)) <= 1e-12 * np.max(np.abs(expected))
            assert out._factor.tobytes() == core._potrf(np.array(out.matrix)).tobytes()
            assert not out.matrix.flags.writeable and not out._factor.flags.writeable

    def test_large_p_factors_no_more_than_the_severed_block(self, monkeypatch):
        # Counts calls instead of timing them: at p=200 block CMI factors
        # only blocks of order |A| or less, and neither projection forms a
        # covariance (no invert) or factors any order-p matrix but its
        # result, once, when validating it.
        theta = random_sparse_precision(200, np.random.default_rng(4), edge_probability=0.02)
        neighbors = np.flatnonzero(theta.matrix[7])
        star = [int(u) for u in neighbors if u != 7]
        orders, inverts = [], []
        potrf = core._potrf

        def counting_potrf(arr, *args, **kwargs):
            orders.append(np.shape(arr)[-1])
            return potrf(arr, *args, **kwargs)

        def counting_invert(m):
            inverts.append(m.p)
            return invert(m)

        monkeypatch.setattr(core, "_potrf", counting_potrf)
        for name, module in list(sys.modules.items()):
            if module is not None and (name == "ggmsep" or name.startswith("ggmsep.")):
                for key, value in list(vars(module).items()):
                    if value is invert:
                        monkeypatch.setattr(module, key, counting_invert)
        assert ggmsep.invert is counting_invert

        block_conditional_mutual_info(theta, 7, star)
        assert orders and max(orders) <= len(star) + 1
        assert not inverts
        for project in (lambda: project_remove_edge(theta, (7, star[0])),
                        lambda: project_remove_star(theta, 7, star)):
            orders.clear()
            project()
            assert not inverts
            assert orders.count(200) == 1 and max(orders) <= 200
            assert all(order <= len(star) + 1 for order in orders if order != 200)


class TestNll:
    def test_identity_gives_trace(self):
        sigma = CovarianceMatrix([[2.0, 0.3], [0.3, 1.5]])
        assert_allclose(nll(PrecisionMatrix(np.eye(2)), sigma), 3.5, rtol=1e-15)

    def test_inverse_covariance_value(self):
        sigma = invert(random_sparse_precision(5, np.random.default_rng(2)))
        theta = invert(sigma)
        expected = float(np.linalg.slogdet(sigma.matrix)[1]) + 5.0
        assert_allclose(nll(theta, sigma), expected, rtol=1e-12)

    def test_accepts_singular_covariance(self):
        x = np.array([1.0, -2.0, 0.5])
        sigma = CovarianceMatrix(np.outer(x, x))
        value = nll(PrecisionMatrix(np.eye(3)), sigma)
        assert math.isfinite(value)

    def test_gap_is_twice_kl(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            theta_star = random_sparse_precision(5, rng)
            theta = random_sparse_precision(5, rng)
            sigma_star = invert(theta_star)
            gap = nll(theta, sigma_star) - nll(theta_star, sigma_star)
            assert abs(gap - 2.0 * kl_gaussian(theta_star, theta)) < 1e-10 * max(1.0, gap)


class TestNllGradient:
    def test_zero_at_stationary_point(self):
        sigma = invert(random_sparse_precision(4, np.random.default_rng(4)))
        theta = invert(sigma)
        assert np.max(np.abs(nll_gradient(theta, sigma))) < 1e-12

    def test_diagonal_example(self):
        grad = nll_gradient(PrecisionMatrix(np.eye(2)), CovarianceMatrix(np.diag([2.0, 3.0])))
        assert_allclose(grad, np.diag([1.0, 2.0]), atol=1e-15)

    def test_matches_finite_differences(self):
        # oracle: central differences of nll, entry by entry
        rng = np.random.default_rng(7)
        theta = random_sparse_precision(5, rng)
        sigma = invert(random_sparse_precision(5, rng))
        grad = nll_gradient(theta, sigma)
        step = 1e-5
        for i in range(5):
            for j in range(i, 5):
                bump = np.zeros((5, 5))
                bump[i, j] = bump[j, i] = step
                plus = nll(PrecisionMatrix(theta.matrix + bump), sigma)
                minus = nll(PrecisionMatrix(theta.matrix - bump), sigma)
                numeric = (plus - minus) / (2 * step)
                analytic = grad[i, j] if i == j else grad[i, j] + grad[j, i]
                assert abs(numeric - analytic) < 1e-5


@pytest.mark.parametrize("function", [nll, nll_gradient])
def test_nll_and_its_gradient_reject_a_sigma_of_another_order(function):
    with pytest.raises(DimensionMismatch, match="orders differ"):
        function(PrecisionMatrix(np.eye(3)), CovarianceMatrix(np.eye(2)))


class TestFitGraphMle:
    def test_complete_graph_recovers_inverse(self):
        sigma = invert(random_sparse_precision(5, np.random.default_rng(8)))
        result = fit_graph_mle(sigma, EdgeSet.complete(5), math.inf)
        assert result.converged
        assert np.max(np.abs(result.theta_hat.matrix - invert(sigma).matrix)) < 1e-6

    def test_empty_graph_gives_diagonal_mle(self):
        sigma = invert(random_sparse_precision(5, np.random.default_rng(10)))
        result = fit_graph_mle(sigma, EdgeSet(5), math.inf)
        assert result.converged
        expected = np.diag(1.0 / np.diag(sigma.matrix))
        assert np.max(np.abs(result.theta_hat.matrix - expected)) < 1e-6

    def test_one_missing_edge_matches_projection(self):
        # cross-check of two independent code paths for the same minimizer
        theta_star = random_sparse_precision(6, np.random.default_rng(13))
        sigma = invert(theta_star)
        edge = (1, 3)
        result = fit_graph_mle(sigma, EdgeSet.complete(6).without(edge), math.inf)
        projected = project_remove_edge(invert(sigma), edge)
        assert result.converged
        assert np.max(np.abs(result.theta_hat.matrix - projected.matrix)) < 1e-6

    def test_objective_trace_monotone(self):
        # a 4-cycle plus a pendant edge is not chordal, so the fit takes Newton
        # steps; the ball binds (the unconstrained fit has norm 3.09)
        sigma = _sample_covariance(6, 14)
        result = fit_graph_mle(sigma, EdgeSet(6, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)]), 2.5)
        assert result.termination == "tolerance" and result.iterations > 0
        trace = result.objective_trace
        assert all(later <= earlier + 1e-12 for earlier, later in zip(trace, trace[1:]))
        assert result.objective == trace[-1]

    def test_chain_fit_at_selection_config_converges(self):
        # the criterion-7 selection config (p=8 chain, n=250, gamma=10)
        theta = chain_precision(8)
        sigma_hat = empirical_covariance(sample(theta, 250, trial_seed(2025, 0, 0)))
        result = fit_graph_mle(sigma_hat, edge_set_of(theta), 10.0)
        trace = result.objective_trace
        assert result.converged
        assert all(later <= earlier + 1e-12 for earlier, later in zip(trace, trace[1:]))

    def test_fit_with_cancelling_objective_terms_converges(self):
        # p=100 empirical covariance: -log det and tr(sigma_hat theta) are both
        # about 100 and cancel to an objective near -0.24
        truth = random_sparse_precision(100, np.random.default_rng(7), edge_probability=0.04)
        sigma_hat = empirical_covariance(sample(truth, 1000, 7))
        result = fit_graph_mle(sigma_hat, edge_set_of(truth), math.inf)
        trace = result.objective_trace
        assert abs(result.objective) < 1.0
        assert result.converged
        assert all(later <= earlier + 1e-12 for earlier, later in zip(trace, trace[1:]))

    def test_a_likelihood_without_maximizer_stalls_before_max_iterations(self):
        # one draw at p=3: on K3 at gamma = inf the likelihood is unbounded,
        # so no positive definite W certifies a gap and the iterates run
        # away; the fit must stop on its own instead of running to the cap
        sigma = empirical_covariance(sample(chain_precision(3), 1, 3))
        result = fit_graph_mle(sigma, EdgeSet.complete(3), math.inf)
        assert not result.converged
        assert result.termination == "stalled"
        assert result.iterations < 1000
        assert result.duality_gap == math.inf

    def test_a_triangle_on_two_draws_is_never_certified(self):
        # a clique of 3 on n = 2 draws has a singular block, so at gamma =
        # inf the likelihood has no maximizer; rounding leaves its residual
        # variance a little above zero, and the closed form passed its old
        # gradient check on 23 of 300 such draws, Newton on 116 more
        kinds = Counter()
        for seed in range(40):
            p = 3 + seed % 4
            sigma = empirical_covariance(sample(random_sparse_precision(p, np.random.default_rng(seed)), 2, seed))
            fit = fit_graph_mle(sigma, EdgeSet(p, [(0, 1), (1, 2), (0, 2)]), math.inf, FitOptions(max_iterations=200))
            kinds[fit.termination] += 1
            assert not fit.converged
        assert kinds == {"stalled": 40}

    def test_iterates_stay_feasible(self):
        sigma = invert(random_sparse_precision(6, np.random.default_rng(16)))
        graph = EdgeSet(6, [(0, 1), (1, 2), (3, 5)])
        gamma = 2.5
        off_support = ~np.array(
            [[i == j or (min(i, j), max(i, j)) in graph.edges for j in range(6)] for i in range(6)]
        )
        for cutoff in (1, 2, 5, 20, 100):
            result = fit_graph_mle(sigma, graph, gamma, FitOptions(max_iterations=cutoff))
            assert np.all(result.theta_hat.matrix[off_support] == 0.0)
            assert np.linalg.norm(result.theta_hat.matrix) <= gamma * (1 + 1e-10)

    def test_ball_constraint_binds(self):
        sigma = invert(random_sparse_precision(4, np.random.default_rng(19)))
        unconstrained = fit_graph_mle(sigma, EdgeSet.complete(4), math.inf)
        gamma = 0.5 * float(np.linalg.norm(unconstrained.theta_hat.matrix))
        constrained = fit_graph_mle(sigma, EdgeSet.complete(4), gamma)
        assert constrained.converged
        assert_allclose(np.linalg.norm(constrained.theta_hat.matrix), gamma, rtol=1e-6)

    def test_binding_ball_fit_does_not_stall(self):
        # on the sphere the normal gradient is O(1), and rounding in the
        # move can outweigh the tangential decrease near the optimum
        theta = chain_precision(6)
        sigma = empirical_covariance(sample(theta, 200, 469))
        result = fit_graph_mle(sigma, edge_set_of(theta), 2.055756665897253)
        assert result.converged
        assert result.termination == "tolerance"

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shrink=st.floats(0.3, 0.95))
    def test_binding_ball_fit_ends_on_the_sphere(self, seed, shrink):
        # damped steps reach the sphere only from inside, and a gradient
        # mapping of 1e-8 allows a radial gap of ~1e-9 that costs ~1e-10 in
        # the objective; the fit must end on the sphere at the optimum
        theta = chain_precision(6)
        graph = edge_set_of(theta)
        sigma = empirical_covariance(sample(theta, 200, seed))
        gamma = shrink * float(np.linalg.norm(fit_graph_mle(sigma, graph, math.inf).theta_hat.matrix))
        result = fit_graph_mle(sigma, graph, gamma)
        tight = fit_graph_mle(sigma, graph, gamma)
        assert result.converged
        assert np.linalg.norm(result.theta_hat.matrix) >= gamma * (1 - 1e-13)
        assert abs(result.objective - tight.objective) <= 1e-12 * abs(tight.objective)
        assert _non_increasing(result.objective_trace)

    def test_nesting_of_feasible_sets(self):
        sigma = invert(random_sparse_precision(6, np.random.default_rng(22)))
        small = EdgeSet(6, [(0, 1), (2, 4)])
        large = EdgeSet(6, [(0, 1), (2, 4), (1, 5), (3, 4)])
        f_small = fit_graph_mle(sigma, small, 6.0).objective
        f_large = fit_graph_mle(sigma, large, 6.0).objective
        assert f_large <= f_small + 1e-8

    @pytest.mark.parametrize("corner, gamma", [
        (0.0, 10.0), (1e-310, 10.0), (1e-310, math.inf), (1e300, 1e-30), (1.0, 1e-310), (1.0, 1e-320),
        (1.0, 1e-160), (1.0, 1e-200), (1.0, 1e-300),
    ])
    @pytest.mark.parametrize("graph", [EdgeSet(4), EdgeSet(4, [(0, 1), (1, 2), (2, 3), (0, 3)])])
    def test_infeasible_start(self, corner, gamma, graph):
        # 1 / 1e-310 overflows, and 1 / 1e300 scaled into a 1e-30 ball
        # underflows to 0: the fit raised ValueError after an overflow
        # warning, or InvalidParameters. The identity scaled into a 1e-310
        # or 1e-320 ball is positive, but its inverse overflows: the fit
        # returned a NaN gradient norm after an invalid-value warning. In a
        # 1e-160 to 1e-300 ball the inverse is finite but the norm of it
        # that Newton's first gradient mapping takes overflows: the fit
        # converged after an overflow warning
        entries = np.eye(4)
        entries[0, 0] = corner
        with pytest.raises(InfeasibleStart, match="start"):
            fit_graph_mle(CovarianceMatrix(entries), graph, gamma)

    @pytest.mark.parametrize("graph", [EdgeSet(4), EdgeSet(4, [(0, 1), (1, 2), (2, 3), (0, 3)])])
    def test_tiny_ball_with_a_finite_inverse_norm_converges_without_a_warning(self, graph):
        # the identity scaled into a 1e-150 ball has an inverse of norm 2e150
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_graph_mle(CovarianceMatrix(np.eye(4)), graph, 1e-150)
        assert fit.converged and fit.termination == "tolerance"
        assert_allclose(fit.theta_hat.matrix, 0.5e-150 * np.eye(4), rtol=1e-12)

    def test_invalid_gamma(self):
        sigma = CovarianceMatrix(np.eye(2))
        with pytest.raises(InvalidParameters):
            fit_graph_mle(sigma, EdgeSet(2), 0.0)

    def test_singular_covariance_stays_bounded(self):
        # n < p second-moment matrix: the ball keeps the problem bounded, and
        # the chordal closed form meets a singular block and falls back
        rng = np.random.default_rng(27)
        rows = rng.standard_normal((2, 4))
        sigma = CovarianceMatrix(rows.T @ rows / 2)
        result = fit_graph_mle(sigma, EdgeSet.complete(4), 8.0, FitOptions(max_iterations=300))
        assert result.iterations > 0
        assert np.linalg.norm(result.theta_hat.matrix) <= 8.0 * (1 + 1e-10)
        assert math.isfinite(result.objective)

    def test_exactly_singular_block_sends_the_fit_to_newton(self):
        # one draw at p=3: a conditioning block passed numpy's Cholesky with
        # a tiny pivot while the LU solve after it raised LinAlgError
        sigma = empirical_covariance(sample(chain_precision(3), 1, 3))
        result = fit_graph_mle(sigma, EdgeSet.complete(3), 10.0)
        assert result.termination == "tolerance" and result.iterations > 0
        assert np.linalg.norm(result.theta_hat.matrix) <= 10.0 * (1 + 1e-12)

    def test_result_serialization_fields(self):
        sigma = invert(random_sparse_precision(3, np.random.default_rng(28)))
        result = fit_graph_mle(sigma, EdgeSet.complete(3), math.inf)
        doc = result.to_dict()
        assert set(doc) == {
            "theta_hat", "objective", "iterations", "converged", "termination", "duality_gap"
        }
        assert doc["theta_hat"]["p"] == 3
        assert len(doc["theta_hat"]["entries"]) == 9


@st.composite
def chordal_supports(draw, max_p=9, min_p=2):
    """Random chordal graphs: forests, K_p minus one edge, and the fill-in
    of a random graph along a random elimination order."""
    p = draw(st.integers(min_p, max_p))
    kind = draw(st.sampled_from(["forest", "complete_minus_edge", "elimination"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(p).tolist()
    if kind == "forest":
        edges = [(v, order[int(rng.integers(k))]) for k, v in enumerate(order) if k and rng.random() < 0.8]
        return EdgeSet(p, edges)
    if kind == "complete_minus_edge":
        return EdgeSet.complete(p).without(tuple(order[:2]))
    adjacency = {v: set() for v in range(p)}
    for i in range(p):
        for j in range(i + 1, p):
            if rng.random() < 0.35:
                adjacency[i].add(j)
                adjacency[j].add(i)
    for v in order:
        later = list(adjacency[v])
        for a in later:
            adjacency[a].discard(v)
            adjacency[a].update(u for u in later if u != a)
    return EdgeSet(p, [(v, u) for v in range(p) for u in adjacency[v]])


@st.composite
def non_chordal_supports(draw, max_p=12):
    """Graphs with a chordless cycle of length >= 4 on at most max_p >= 4
    vertices: cycles, grids, and random graphs grown around such a cycle."""
    kind = draw(st.sampled_from(["cycle", "grid", "random"]))
    if kind == "grid":
        rows = draw(st.integers(2, 3))
        cols = draw(st.integers(2, min(4, max_p // rows)))
        p = rows * cols
        edges = [(v, v + 1) for v in range(p) if (v + 1) % cols] + [(v, v + cols) for v in range(p - cols)]
        return EdgeSet(p, edges)
    p = draw(st.integers(4, max_p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = p if kind == "cycle" else int(rng.integers(4, p + 1))
    cycle = rng.permutation(p)[:k].tolist()
    edges = [(cycle[t], cycle[(t + 1) % k]) for t in range(k)]
    if kind == "random":
        # every extra edge has an end off the cycle, so the cycle gets no chord
        on_cycle = set(cycle)
        edges += [
            (i, j) for i in range(p) for j in range(i + 1, p) if not {i, j} <= on_cycle and rng.random() < 0.3
        ]
    return EdgeSet(p, edges)


def _sample_covariance(p, seed):
    truth = random_sparse_precision(p, np.random.default_rng(seed))
    return empirical_covariance(sample(truth, 2 * p + 5, seed))


def _support(graph):
    mask = np.eye(graph.p, dtype=bool)
    for i, j in graph.edges:
        mask[i, j] = mask[j, i] = True
    return mask


def _support_basis(graph):
    """rows, cols and scales of the graph's support coordinates: the
    diagonal, then the sorted edges, with scale sqrt(2) on an edge."""
    edges = sorted(graph.edges)
    rows = np.array([*range(graph.p), *(i for i, _ in edges)], dtype=np.intp)
    cols = np.array([*range(graph.p), *(j for _, j in edges)], dtype=np.intp)
    return rows, cols, np.where(rows == cols, 1.0, math.sqrt(2.0))


def _non_increasing(trace):
    return all(later <= earlier + 1e-12 for earlier, later in zip(trace, trace[1:]))


CYCLES = [EdgeSet(p, [(k, (k + 1) % p) for k in range(p)]) for p in (4, 5)]


def reference_chordal_mle(sig, families):
    """The chordal closed form built one vertex at a time: each vertex's
    regression on its earlier neighbours adds w w^T / r on its family."""
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


class TestChordalClosedForm:
    @settings(max_examples=150, deadline=None)
    @given(graph=chordal_supports(), seed=st.integers(0, 2**32 - 1))
    def test_closed_form_satisfies_kkt(self, graph, seed):
        sigma = _sample_covariance(graph.p, seed)
        result = fit_graph_mle(sigma, graph, math.inf)
        assert result.termination == "closed_form"
        assert result.converged and result.iterations == 0
        assert result.objective_trace == (result.objective,)
        theta = result.theta_hat.matrix
        support = _support(graph)
        assert np.all(theta[~support] == 0.0)
        residual = sigma.matrix - np.linalg.inv(theta)
        assert np.max(np.abs(residual[support])) <= 1e-9 * np.max(np.abs(sigma.matrix))

    @settings(max_examples=10, deadline=None)
    @given(cycle=st.sampled_from(CYCLES), seed=st.integers(0, 2**32 - 1))
    def test_cycles_take_the_iterative_path(self, cycle, seed):
        result = fit_graph_mle(_sample_covariance(cycle.p, seed), cycle, math.inf)
        assert result.termination == "tolerance"
        assert result.converged and result.iterations > 0
        assert _non_increasing(result.objective_trace)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shrink=st.floats(0.3, 0.95))
    def test_binding_ball_falls_back(self, seed, shrink):
        theta = chain_precision(6)
        graph = edge_set_of(theta)
        sigma = empirical_covariance(sample(theta, 200, seed))
        free = fit_graph_mle(sigma, graph, math.inf)
        assert free.termination == "closed_form"
        gamma = shrink * float(np.linalg.norm(free.theta_hat.matrix))
        bound = fit_graph_mle(sigma, graph, gamma)
        assert bound.termination == "tolerance"
        assert bound.converged and bound.iterations > 0
        assert _non_increasing(bound.objective_trace)
        assert np.linalg.norm(bound.theta_hat.matrix) <= gamma * (1 + 1e-12)

    @settings(max_examples=150, deadline=None)
    @given(graph=chordal_supports(max_p=12), seed=st.integers(0, 2**32 - 1))
    def test_batched_closed_form_matches_per_vertex_reference(self, graph, seed):
        # three chordal slots of one plan: the graph, the empty graph, the
        # graph again; from p = 4 a 4-cycle, whose slot stays zero and
        # invalid, comes first
        p = graph.p
        sig = _sample_covariance(p, seed).matrix
        members = (graph, EdgeSet(p), graph)
        graphs = (EdgeSet(p, [(0, 1), (1, 2), (2, 3), (0, 3)]), *members) if p >= 4 else members
        first = len(graphs) - len(members)
        batch = projection._batch_plan(graphs)
        stack, valid, log_dets = projection._chordal_mles(sig, batch)
        assert batch.chordal == tuple(range(first, len(graphs)))
        assert valid.tolist() == [False] * first + [True] * len(members)
        assert stack.shape == (len(graphs), p, p) and not stack[:first].any()
        assert log_dets.shape == (2, len(graphs)) and not log_dets[:, :first].any()
        for batched, log_det, member in zip(stack[first:], log_dets.T[first:], members):
            expected = reference_chordal_mle(sig, projection._perfect_families(member))
            assert expected is not None
            assert np.all(batched[~_support(member)] == 0.0)
            assert np.max(np.abs(batched - expected)) <= 1e-12 * np.max(np.abs(expected))
            # the sum of the log residual variances is -log det of the MLE,
            # the log det of sigma_hat's positive-definite completion
            assert abs(log_det[0] + np.linalg.slogdet(expected)[1]) <= 1e-12 * (p + log_det[1])
            assert log_det[1] >= abs(log_det[0])
        assert np.array_equal(stack[first], stack[first + 2])
        assert np.array_equal(log_dets[:, first], log_dets[:, first + 2])

    def test_chain_fit_factors_at_most_three_times(self, monkeypatch):
        # counts instead of timing: the parent-count batches of a p=8 chain
        # solve without a Cholesky call, and the result keeps the factor of
        # its check; no cho_solve wrapper runs. dpotrf is counted on the
        # module core calls, whose functions scipy.linalg.lapack copies
        theta = chain_precision(8)
        sigma = empirical_covariance(sample(theta, 250, trial_seed(2025, 0, 0)))
        graph = edge_set_of(theta)
        factorizations, solves = [], []
        cholesky, dpotrf = np.linalg.cholesky, core.lapack.dpotrf

        def counting_cholesky(arr, *args, **kwargs):
            factorizations.append(np.shape(arr))
            return cholesky(arr, *args, **kwargs)

        def counting_dpotrf(arr, *args, **kwargs):
            factorizations.append(np.shape(arr))
            return dpotrf(arr, *args, **kwargs)

        def counting_cho_solve(*args, **kwargs):
            solves.append(args)
            return cho_solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        monkeypatch.setattr(core.lapack, "dpotrf", counting_dpotrf)
        monkeypatch.setattr(scipy.linalg, "cho_solve", counting_cho_solve)
        for name, module in list(sys.modules.items()):
            if module is not None and (name == "ggmsep" or name.startswith("ggmsep.")):
                for key, value in list(vars(module).items()):
                    if value is cho_solve:
                        monkeypatch.setattr(module, key, counting_cho_solve)

        result = fit_graph_mle(sigma, graph, 10.0)
        assert result.termination == "closed_form"
        assert len(factorizations) <= 2
        assert not solves

    def test_repeated_selection_builds_each_plan_once(self, monkeypatch):
        built = []
        search = projection._perfect_families

        def counting_search(graph):
            built.append(graph)
            return search(graph)

        monkeypatch.setattr(projection, "_perfect_families", counting_search)
        projection._batch_plan.cache_clear()
        try:
            theta = chain_precision(6)
            truth = edge_set_of(theta)
            cycle = EdgeSet(6, [*truth.edges, (0, 5)])
            collection = CandidateCollection([truth, truth.without((2, 3)), cycle, EdgeSet(6)])
            sigma = empirical_covariance(sample(theta, 200, 3))
            first = select_graph(collection, sigma, 10.0)
            for _ in range(3):
                assert select_graph(collection, sigma, 10.0).scores == first.scores
            info = projection._batch_plan.cache_info()
            assert (info.misses, info.hits) == (1, 3)
            plan = projection._batch_plan(collection.graphs)
            assert not any(a.flags.writeable for a in (plan.support, plan.scale, plan.offsets, plan.scatter))
        finally:
            projection._batch_plan.cache_clear()
        assert Counter(built) == Counter(collection.graphs)

    def test_plan_lays_out_every_slots_support_read_only(self):
        # graph g in slot g, the 4-cycle included
        p = 6
        truth = edge_set_of(chain_precision(p))
        graphs = (truth, EdgeSet(p, [(0, 1), (1, 2), (2, 3), (0, 3)]), EdgeSet(p), truth.without((2, 3)))
        plan = projection._batch_plan.__wrapped__(graphs)
        assert plan.chordal == (0, 2, 3)
        # each slot's run holds its p + |E| coordinates
        assert plan.offsets.tolist() == [0, 11, 21, 27, 37]
        for slot, graph in enumerate(graphs):
            rows, cols, scale = _support_basis(graph)
            run = slice(plan.offsets[slot], plan.offsets[slot + 1])
            assert plan.support[run].tolist() == (slot * p * p + rows * p + cols).tolist()
            assert plan.scale[run].tolist() == scale.tolist()
        # the families are slotted by graph index too
        assert sorted(set((plan.scatter // (p * p)).tolist())) == [0, 2, 3]
        assert sorted({slot for group in plan.groups for slot in group[2].tolist()}) == [0, 2, 3]
        stack, valid, _ = projection._chordal_mles(_sample_covariance(p, 5).matrix, plan)
        assert valid.tolist() == [True, False, True, True]
        assert stack.shape == (4, p, p) and not stack[1].any()
        for array in (plan.support, plan.scale, plan.offsets, plan.scatter, *(a for g in plan.groups for a in g)):
            assert not array.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), few_samples=st.booleans())
    def test_stacked_check_matches_the_per_graph_reference(self, data, seed, few_samples):
        # One collection whose slots pass, fail the ball, or have no closed
        # form (n = p - 1 samples, with K_p among the graphs; from p = 4 a
        # 4-cycle, which is not chordal, too). gamma is drawn from the
        # slots' own norms, at and just below each, so slots fall on both
        # sides of the ball; every gap is checked against a reference that
        # factors W itself.
        p = data.draw(st.integers(3, 8))
        graphs = (*data.draw(st.lists(chordal_supports(max_p=p, min_p=p), min_size=1, max_size=5)), EdgeSet.complete(p))
        if p >= 4:
            graphs = (*graphs, EdgeSet(p, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        truth = random_sparse_precision(p, np.random.default_rng(seed))
        sig = empirical_covariance(sample(truth, p - 1 if few_samples else 2 * p + 5, seed)).matrix
        batch = projection._batch_plan.__wrapped__(graphs)
        stack, valid, log_dets = projection._chordal_mles(sig, batch)

        def reference_fits(gamma):
            return [
                closed_form_fit(sig, *_support_basis(graph)[:2], stack[slot].copy(), gamma) if valid[slot] else None
                for slot, graph in enumerate(graphs)
            ]

        norms = [float(np.linalg.norm(fit.theta_hat.matrix)) for fit in reference_fits(math.inf) if fit]
        at_and_below = [v for x in norms for v in (x, float(np.nextafter(x, 0.0)))]
        gamma = data.draw(st.sampled_from([math.inf, *at_and_below]))
        expected = reference_fits(gamma)
        fits = projection._closed_form_fits(sig, stack.copy(), valid, log_dets, gamma)
        assert [fit is None for fit in fits] == [fit is None for fit in expected]
        for fit, ref in zip(fits, expected):
            if ref is not None:
                assert fit.termination == ref.termination == "closed_form"
                assert fit.objective.hex() == ref.objective.hex()
                assert abs(fit.duality_gap - ref.duality_gap) <= 1e-13 * (p + np.sum(np.abs(sig * ref.theta_hat.matrix)))
                assert (fit.iterations, fit.converged, fit.objective_trace) == (0, True, (fit.objective,))
                assert fit.theta_hat.matrix.tobytes() == ref.theta_hat.matrix.tobytes()
                kept, expected_factor = (ggmsep.factorize(f.theta_hat).factor for f in (fit, ref))
                assert kept.tobytes() == expected_factor.tobytes()

    def test_the_plan_of_the_last_tuple_fitted_is_kept_whatever_its_size(self):
        # a chain on 70 vertices has 70 + 69 = 139 coordinates p + |E|
        theta = chain_precision(70)
        sigma, graph = invert(theta), edge_set_of(theta)
        projection._batch_plan.cache_clear()
        try:
            for _ in range(2):
                assert fit_graph_mle(sigma, graph, math.inf).termination == "closed_form"
            info = projection._batch_plan.cache_info()
            assert (info.maxsize, info.misses, info.hits, info.currsize) == (1, 1, 1, 1)
            select_graph(CandidateCollection([EdgeSet(70), graph]), sigma, math.inf)
            info = projection._batch_plan.cache_info()
            assert (info.misses, info.hits, info.currsize) == (2, 1, 1)
            fit_graph_mle(sigma, graph, math.inf)
            assert projection._batch_plan.cache_info().misses == 3
        finally:
            projection._batch_plan.cache_clear()

    @staticmethod
    def _flagged_alone(sig, triangle, other):
        # the triangle's slot fails, and its batch-mate keeps its solo bits
        stack, valid, log_dets = projection._chordal_mles(sig, projection._batch_plan.__wrapped__((triangle, other)))
        assert valid.tolist() == [False, True]
        solo, solo_valid, solo_log_dets = projection._chordal_mles(sig, projection._batch_plan.__wrapped__((other,)))
        assert solo_valid.tolist() == [True]
        assert np.array_equal(stack[1], solo[0])
        assert np.array_equal(log_dets[:, 1], solo_log_dets[:, 0])
        assert np.all(stack[1][~_support(other)] == 0.0)

    @staticmethod
    def _parents_of_the_triangles_last_vertex(p):
        triangle = EdgeSet(p, [(0, 1), (1, 2), (0, 2)])
        (group,) = [g for g in projection._batch_plan.__wrapped__((triangle,)).groups if g[1].shape[1] == 2]
        return triangle, group[1][0]

    def test_slot_with_an_indefinite_block_is_flagged_alone(self):
        # a triangle whose family of two parents conditions on an indefinite
        # block, batched with a graph on other vertices whose blocks are
        # fine: the block solves, and a residual variance is not positive
        triangle, (a, b) = self._parents_of_the_triangles_last_vertex(5)
        sig = _sample_covariance(5, 11).matrix.copy()
        sig[a, b] = sig[b, a] = 2.0 * math.sqrt(sig[a, a] * sig[b, b])
        assert np.linalg.eigvalsh(sig[np.ix_([a, b], [a, b])])[0] < 0
        self._flagged_alone(sig, triangle, EdgeSet(5, [(3, 4)]))

    def test_slot_with_an_exactly_singular_block_is_flagged_alone(self):
        # the same family conditions on a block of four equal entries, whose
        # LU pivot is exactly zero, batched with a triangle on the other
        # vertices whose block is solved in the same stack
        triangle, (a, b) = self._parents_of_the_triangles_last_vertex(6)
        sig = _sample_covariance(6, 11).matrix.copy()
        sig[np.ix_([a, b], [a, b])] = sig[a, a]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(sig[np.ix_([a, b], [a, b])], np.ones(2))
        self._flagged_alone(sig, triangle, EdgeSet(6, [(3, 4), (4, 5), (3, 5)]))

    def test_termination_reports_the_iteration_cap(self):
        result = fit_graph_mle(_sample_covariance(5, 3), CYCLES[1], math.inf, FitOptions(max_iterations=1))
        assert result.termination == "max_iterations"
        assert not result.converged and result.iterations == 1


class TestNewtonPath:
    @settings(max_examples=60, deadline=None)
    @given(
        graph=non_chordal_supports(),
        seed=st.integers(0, 2**32 - 1),
        shrink=st.one_of(st.none(), st.floats(0.3, 0.95)),
    )
    def test_fit_satisfies_kkt_on_non_chordal_supports(self, graph, seed, shrink):
        sigma = _sample_covariance(graph.p, seed)
        gamma = math.inf
        if shrink is not None:
            free = fit_graph_mle(sigma, graph, math.inf)
            gamma = shrink * float(np.linalg.norm(free.theta_hat.matrix))
        result = fit_graph_mle(sigma, graph, gamma)
        assert result.termination == "tolerance" and result.iterations > 0
        theta = result.theta_hat.matrix
        support = _support(graph)
        assert np.all(theta[~support] == 0.0)
        assert np.linalg.norm(theta) <= gamma * (1 + 1e-12)
        assert _non_increasing(result.objective_trace)
        # stationarity on the support, with the ball's multiplier nu >= 0
        grad = np.where(support, sigma.matrix - np.linalg.inv(theta), 0.0)
        nu = max(-float(np.sum(grad * theta)) / float(np.sum(theta * theta)), 0.0)
        scale = np.max(np.abs(sigma.matrix)) + nu * np.max(np.abs(theta))
        assert np.max(np.abs(grad + nu * theta)) <= 1e-8 * scale

    @settings(max_examples=15, deadline=None)
    @given(
        graph=non_chordal_supports(max_p=10),
        seed=st.integers(0, 2**32 - 1),
        shrink=st.one_of(st.none(), st.floats(0.3, 1.5)),
        data=st.data(),
    )
    def test_fit_commutes_with_vertex_permutation(self, graph, seed, shrink, data):
        perm = data.draw(st.permutations(range(graph.p)))
        where = np.argsort(perm)  # vertex u moves to where[u]
        sigma = _sample_covariance(graph.p, seed)
        gamma = math.inf
        if shrink is not None:
            free = fit_graph_mle(sigma, graph, math.inf)
            gamma = shrink * float(np.linalg.norm(free.theta_hat.matrix))
        fit = fit_graph_mle(sigma, graph, gamma)
        moved = fit_graph_mle(
            CovarianceMatrix(sigma.matrix[np.ix_(perm, perm)]),
            EdgeSet(graph.p, [(where[i], where[j]) for i, j in graph.edges]),
            gamma,
        )
        assert fit.converged and moved.converged
        assert relative_gap(moved.theta_hat.matrix, fit.theta_hat.matrix[np.ix_(perm, perm)]) < 1e-8
        assert abs(moved.objective - fit.objective) <= 1e-12 * max(1.0, abs(fit.objective))

    @settings(max_examples=15, deadline=None)
    @given(graph=non_chordal_supports(max_p=10), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_fit_is_equivariant_under_diagonal_congruence(self, graph, seed, data):
        # nll(D^-1 Theta D^-1; D Sigma D) = nll(Theta; Sigma) + 2 sum log D,
        # so at gamma = inf the fit moves with the data
        scale = np.exp(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=graph.p, max_size=graph.p)))
        outer = np.outer(scale, scale)
        sigma = _sample_covariance(graph.p, seed)
        fit = fit_graph_mle(sigma, graph, math.inf)
        scaled = fit_graph_mle(CovarianceMatrix(sigma.matrix * outer), graph, math.inf)
        assert fit.converged and scaled.converged
        assert relative_gap(scaled.theta_hat.matrix * outer, fit.theta_hat.matrix) < 1e-8
        expected = fit.objective + 2.0 * float(np.sum(np.log(scale)))
        assert abs(scaled.objective - expected) <= 1e-12 * max(1.0, abs(expected))

    @settings(max_examples=40, deadline=None)
    @given(
        graph=st.one_of(non_chordal_supports(max_p=10), chordal_supports(max_p=10, min_p=4)),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_fit_converges_in_any_units(self, graph, seed, data):
        # log-scales in [-10, 10], so sigma's entries span up to 17 orders of
        # magnitude: the duality gap is in nats, and its rounding bound is
        # relative, so every fit is certified. Under an absolute gradient
        # tolerance, fits like these ended "stalled" when the scales were wide
        log_scale = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=graph.p, max_size=graph.p))
        scale = np.exp(log_scale)
        sigma = _sample_covariance(graph.p, seed)
        fit = fit_graph_mle(sigma, graph, math.inf)
        scaled = fit_graph_mle(CovarianceMatrix(sigma.matrix * np.outer(scale, scale)), graph, math.inf)
        assert fit.converged and scaled.converged
        expected = fit.objective + 2.0 * float(np.sum(np.log(scale)))
        assert abs(scaled.objective - expected) <= 1e-12 * max(1.0, abs(expected))

    @pytest.mark.parametrize("scale", [1e9, 1e11])
    def test_fits_in_large_units_converge(self, scale):
        # sigma_hat = c I on the empty graph, and c sigma_hat on a 4-cycle:
        # exact fits that ended "stalled" under an absolute gradient tolerance
        empty = fit_graph_mle(CovarianceMatrix(scale * np.eye(4)), EdgeSet(4), math.inf)
        assert empty.converged and empty.termination == "closed_form"
        assert_allclose(empty.theta_hat.matrix, np.eye(4) / scale, rtol=1e-15)
        assert abs(empty.objective - 4.0 * (math.log(scale) + 1.0)) <= 1e-14 * empty.objective
        sigma = _sample_covariance(4, 0)
        fit = fit_graph_mle(sigma, CYCLES[0], math.inf)
        scaled = fit_graph_mle(CovarianceMatrix(scale * sigma.matrix), CYCLES[0], math.inf)
        assert scaled.converged and scaled.termination == "tolerance"
        assert relative_gap(scaled.theta_hat.matrix * scale, fit.theta_hat.matrix) < 1e-8
        expected = fit.objective + 4.0 * math.log(scale)
        assert abs(scaled.objective - expected) <= 1e-12 * abs(expected)


class TestStoppingStatistic:
    def test_the_public_api_rebuilds_every_fits_duality_gap(self):
        # nll at the fit minus the larger of the two weak-duality bounds of
        # fit_graph_mle's docstring, rebuilt with nll_gradient and numpy's
        # inverse and Cholesky factor: within rounding of the gap each fit
        # reports, and a converged fit's gap is at rounding level
        kinds = Counter()
        for p in range(4, 9):
            truth = random_sparse_precision(p, np.random.default_rng(p))
            graphs = (edge_set_of(truth), EdgeSet(p, CYCLES[0].edges))
            for seed in range(12):
                sigma = empirical_covariance(sample(truth, 3 * p, seed))
                for graph in graphs:
                    support = _support(graph)
                    for gamma in (math.inf, 0.9 * float(np.linalg.norm(truth.matrix))):
                        fit = fit_graph_mle(sigma, graph, gamma)
                        theta = fit.theta_hat.matrix
                        grad = np.where(support, nll_gradient(fit.theta_hat, sigma), 0.0)
                        inner, norm = float(np.sum(grad * theta)), float(np.linalg.norm(theta))
                        first = inner + gamma * float(np.linalg.norm(grad)) if gamma < math.inf else math.inf
                        nu = max(-inner, 0.0) / norm**2 if gamma < math.inf else 0.0
                        w = np.where(support, sigma.matrix + nu * theta, np.linalg.inv(theta))
                        log_det_w = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(w)))))
                        ball = gamma * nu * norm if nu else 0.0
                        rebuilt = min(first, nll(fit.theta_hat, sigma) - log_det_w - p + ball)
                        size = p + float(np.sum(np.abs(sigma.matrix * theta)))
                        kinds[fit.termination] += 1
                        assert fit.converged
                        assert abs(fit.duality_gap - rebuilt) <= 1e-12 * size
                        assert fit.duality_gap <= 1e-13 * size
        assert kinds["closed_form"] and kinds["tolerance"]


class TestFitOptions:
    def test_validation(self):
        with pytest.raises(InvalidParameters):
            FitOptions(max_iterations=0)

    @pytest.mark.parametrize("kwargs", [
        {"max_iterations": True},
        {"max_iterations": 10.0},
        {"max_iterations": 2.5},
    ])
    def test_non_integer_cap_is_rejected(self, kwargs):
        with pytest.raises(InvalidParameters, match="max_iterations"):
            FitOptions(**kwargs)

    def test_the_cap_is_the_only_option(self):
        # every fit stops on its duality gap, which takes no tolerance
        assert [field.name for field in dataclasses.fields(FitOptions)] == ["max_iterations"]
        with pytest.raises(TypeError, match="gradient_tolerance"):
            FitOptions(gradient_tolerance=1e-8)

    def test_numpy_integer_cap_is_accepted(self):
        assert FitOptions(max_iterations=np.int64(3)).max_iterations == 3
