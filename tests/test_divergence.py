"""KL divergence, conditional mutual information, and separation bounds."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ggmsep import (
    BoundReport,
    DimensionMismatch,
    EdgeSet,
    IndexOutOfRange,
    IndexOverlap,
    InvalidParameters,
    EmptySet,
    NoEdges,
    NoMissingEdge,
    PrecisionMatrix,
    SameVertex,
    block_conditional_mutual_info,
    c_theta_star,
    conditional_mutual_info,
    counterexample_precision,
    edge_set_of,
    fit_graph_mle,
    invert,
    kl_gaussian,
    nll,
    omega_inf_lower_bound,
    one_edge_lower_bound,
    project_remove_edge,
    project_remove_star,
    random_omega_inf_member,
    random_sparse_precision,
    verify_separation,
)
from ggmsep import core, divergence
from ggmsep.core import _upper_pairs
from reference import kl_by_one_triangular_solve, schur_complement

HALF_LOG_2 = 0.5 * math.log(2.0)
HALF_LOG_4_3 = 0.5 * math.log(4.0 / 3.0)


class TestKlGaussian:
    def test_identical_arguments_give_zero(self):
        theta = random_sparse_precision(5, np.random.default_rng(0))
        assert kl_gaussian(theta, theta) == 0.0

    @pytest.mark.parametrize("p", [31, 32, 33, 65, 200])
    def test_agrees_with_one_triangular_solve_and_is_zero_on_equal_inputs(self, p):
        # The trace sum((theta2 - theta1) * inv(theta1)) and the reference's
        # ||inv(L1) L2||_F^2 - p round differently: by at most 1.3e-13
        # relative on these cases and 4e-14 over 320 edge projections at
        # p = 10-200, so 1e-11 leaves room for other BLAS builds. Equal
        # inputs must still give exactly 0: their difference is exactly
        # zero.
        rng = np.random.default_rng(p)
        theta = random_sparse_precision(p, rng, edge_probability=min(1.0, 4.0 / p))
        v, u = min(edge_set_of(theta))
        star = [w for w in range(p) if w != v and theta.matrix[v, w] != 0.0]
        others = [
            project_remove_edge(theta, (v, u)),
            project_remove_star(theta, v, star),
            random_sparse_precision(p, rng, edge_probability=0.3),
        ]
        for other in others:
            for first, second in ((theta, other), (other, theta)):
                value = kl_gaussian(first, second)
                assert value > 0.0
                assert_allclose(value, kl_by_one_triangular_solve(first, second), rtol=1e-11, atol=0.0)
        assert kl_gaussian(theta, theta) == 0.0
        assert kl_gaussian(theta, PrecisionMatrix(theta.matrix)) == 0.0

    @pytest.mark.parametrize("p", [5, 6, 7, 8, 9, 10, 64, 200])
    def test_stacked_divergences_keep_the_bits_of_one_pair_at_a_time(self, p):
        rng = np.random.default_rng(p)
        firsts = [random_sparse_precision(p, rng, edge_probability=min(1.0, 4.0 / p)) for _ in range(3)]
        seconds = [project_remove_edge(theta, min(edge_set_of(theta))) for theta in firsts]
        seconds += [random_sparse_precision(p, rng) for _ in range(3)]
        pairs = [(a, b) for a in firsts for b in seconds]
        one_at_a_time = [kl_gaussian(a, b) for a, b in pairs]
        stacked = divergence._kl_divergences(
            *(np.stack([getattr(a, name) for a, _ in pairs]) for name in ("matrix", "_sigma", "_factor")),
            *(np.stack([getattr(b, name) for _, b in pairs]) for name in ("matrix", "_factor")),
        )
        assert stacked == one_at_a_time

    def test_a_truths_covariance_is_computed_once(self, monkeypatch):
        inverses = []
        spd_inverse = core._spd_inverse

        def counting(lower):
            inverses.append(lower.shape)
            return spd_inverse(lower)

        monkeypatch.setattr(core, "_spd_inverse", counting)
        theta = random_sparse_precision(20, np.random.default_rng(3))
        edges = sorted(edge_set_of(theta))[:4]
        values = [kl_gaussian(theta, project_remove_edge(theta, e)) for e in edges]
        values.append(verify_separation(theta, project_remove_edge(theta, edges[0])).kl_value)
        assert inverses == [(20, 20)]
        assert values[-1] == values[0] > 0.0

    def test_threads_that_fill_the_covariance_at_once_agree(self):
        # the slot is filled without a lock: racing threads may each compute
        # it, but every one computes the same bits, so every KL agrees
        rng = np.random.default_rng(6)
        others = [random_sparse_precision(30, rng) for _ in range(2)]
        expected = [kl_gaussian(random_sparse_precision(30, np.random.default_rng(7)), o) for o in others]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                theta = random_sparse_precision(30, np.random.default_rng(7))
                barrier = threading.Barrier(8, timeout=10)
                values = [None] * 8

                def work(k):
                    barrier.wait()
                    values[k] = kl_gaussian(theta, others[k % 2])

                threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert values == [expected[k % 2] for k in range(8)]
        finally:
            sys.setswitchinterval(interval)

    def test_the_kept_covariance_is_read_only_and_inverts_the_precision(self):
        theta = random_sparse_precision(12, np.random.default_rng(4))
        sigma = theta._sigma
        assert sigma is theta._sigma
        assert not sigma.flags.writeable
        with pytest.raises(ValueError):
            sigma[0, 0] = 1.0
        assert np.array_equal(sigma, sigma.T)
        assert_allclose(sigma, invert(theta).matrix, rtol=1e-12, atol=1e-14)

    def test_projections_and_closed_forms_keep_no_covariance_until_asked_and_newton_fits_keep_theirs(
        self, monkeypatch
    ):
        theta = random_sparse_precision(8, np.random.default_rng(5))
        v, u = min(edge_set_of(theta))
        closed = fit_graph_mle(invert(theta), edge_set_of(theta).without((v, u)), math.inf)
        newton = fit_graph_mle(invert(theta), EdgeSet(8, [(k, (k + 1) % 8) for k in range(8)]), math.inf)
        assert (closed.termination, newton.termination) == ("closed_form", "tolerance")
        kept = newton.theta_hat._covariance
        assert kept is not None and not kept.flags.writeable
        inverses = []
        spd_inverse = core._spd_inverse

        def counting(lower):
            inverses.append(lower)
            return spd_inverse(lower)

        monkeypatch.setattr(core, "_spd_inverse", counting)
        results = [project_remove_edge(theta, (v, u)), project_remove_star(theta, v, [u]), closed.theta_hat]
        assert all(result._covariance is None for result in results)
        for result in results:
            kl_gaussian(theta, result)
            assert result._covariance is None
            kl_gaussian(result, theta)
            assert result._covariance is result._sigma
        # one inverse each, of the factor each keeps, and none for the Newton fit
        kl_gaussian(newton.theta_hat, theta)
        assert newton.theta_hat._sigma is kept
        assert len(inverses) == len(results)
        assert all(lower is result._factor for lower, result in zip(inverses, results))

    def test_closed_form_against_monte_carlo(self):
        # oracle: sample 1e6 points from q1 = N(0, I), average log q1/q2
        t1 = PrecisionMatrix(np.eye(2))
        t2 = PrecisionMatrix(np.diag([2.0, 2.0]))
        rng = np.random.default_rng(20240811)
        z = rng.standard_normal((1_000_000, 2))
        log_ratio = -math.log(2.0) + 0.5 * np.einsum("ni,ij,nj->n", z, t2.matrix - t1.matrix, z)
        mc = float(log_ratio.mean())
        se = float(log_ratio.std(ddof=1)) / 1000.0
        value = kl_gaussian(t1, t2)
        assert abs(value - mc) < 3 * se
        assert_allclose(value, 1.0 - math.log(2.0), atol=1e-14)

    def test_flat_kl_of_star_deletion(self):
        for d in (1, 2, 3):
            theta1 = counterexample_precision(d)
            theta2 = project_remove_star(theta1, 0, range(1, d + 1))
            assert_allclose(kl_gaussian(theta1, theta2), HALF_LOG_2, atol=1e-10)

    def test_asymmetric(self):
        t1 = PrecisionMatrix(np.eye(2))
        t2 = PrecisionMatrix(np.diag([2.0, 2.0]))
        assert kl_gaussian(t1, t2) != kl_gaussian(t2, t1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kl_gaussian(PrecisionMatrix(np.eye(2)), PrecisionMatrix(np.eye(3)))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 12))
    def test_nonnegative(self, seed, p):
        rng = np.random.default_rng(seed)
        t1 = random_sparse_precision(p, rng)
        t2 = random_sparse_precision(p, rng)
        assert kl_gaussian(t1, t2) >= -1e-12

    def test_likelihood_bridge(self):
        # kl(theta*, theta) == (nll(theta; sigma*) - nll(theta*; sigma*)) / 2
        rng = np.random.default_rng(21)
        for _ in range(20):
            theta_star = random_sparse_precision(6, rng)
            theta = random_sparse_precision(6, rng)
            sigma_star = invert(theta_star)
            lhs = kl_gaussian(theta_star, theta)
            rhs = 0.5 * (nll(theta, sigma_star) - nll(theta_star, sigma_star))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


class TestConditionalMutualInfo:
    def test_zero_for_missing_edge(self):
        theta = PrecisionMatrix(np.diag([1.0, 2.0, 3.0]))
        assert conditional_mutual_info(theta, 0, 2) == 0.0

    def test_first_pair_of_dense_family(self):
        theta = counterexample_precision(2)
        assert_allclose(conditional_mutual_info(theta, 0, 1), HALF_LOG_4_3, atol=1e-15)

    def test_pair_with_sum_vertex(self):
        for d in (1, 2, 4, 7):
            theta = counterexample_precision(d)
            assert_allclose(conditional_mutual_info(theta, 0, d), HALF_LOG_2, atol=1e-15)

    def test_errors(self):
        theta = PrecisionMatrix(np.eye(3))
        with pytest.raises(SameVertex):
            conditional_mutual_info(theta, 1, 1)
        with pytest.raises(IndexOutOfRange):
            conditional_mutual_info(theta, 0, 3)

    @pytest.mark.parametrize("i, j", [(0.9, 2.7), (0, 2.0), (np.float64(0.0), 2), (True, 2)])
    def test_rejects_vertices_that_are_not_integers(self, i, j):
        theta = counterexample_precision(2)
        with pytest.raises(IndexOutOfRange):
            conditional_mutual_info(theta, i, j)
        assert conditional_mutual_info(theta, np.int64(0), np.int32(2)) == conditional_mutual_info(theta, 0, 2)

    def test_matches_entropy_path_for_pairs(self):
        # the closed form and the conditional-covariance path are
        # independent computations of the same quantity
        rng = np.random.default_rng(17)
        for _ in range(40):
            theta = random_sparse_precision(6, rng)
            i, j = (int(v) for v in rng.choice(6, size=2, replace=False))
            closed = conditional_mutual_info(theta, i, j)
            assert abs(closed - entropy_path_block_cmi(theta, i, [j])) < 1e-10
            assert abs(closed - block_conditional_mutual_info(theta, i, [j])) < 1e-14


class TestBlockConditionalMutualInfo:
    def test_independent_blocks_give_zero(self):
        arr = np.zeros((5, 5))
        arr[:2, :2] = [[2.0, 0.7], [0.7, 2.0]]
        arr[2:, 2:] = [[3.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 3.0]]
        theta = PrecisionMatrix(arr)
        assert block_conditional_mutual_info(theta, 0, [2, 3, 4]) <= 1e-12

    def test_full_star_of_flat_family(self):
        for d in range(1, 9):
            theta = counterexample_precision(d)
            value = block_conditional_mutual_info(theta, 0, range(1, d + 1))
            assert_allclose(value, HALF_LOG_2, atol=1e-10)

    def test_errors(self):
        theta = PrecisionMatrix(np.eye(4))
        with pytest.raises(EmptySet):
            block_conditional_mutual_info(theta, 0, [])
        with pytest.raises(IndexOverlap):
            block_conditional_mutual_info(theta, 1, [1, 2])
        with pytest.raises(IndexOutOfRange):
            block_conditional_mutual_info(theta, 0, [5])

    @pytest.mark.parametrize("i, subset", [(0.9, [1, 2]), (0, [1, 2.7]), (np.float64(0.0), [1]), (0, [True])])
    def test_rejects_vertices_that_are_not_integers(self, i, subset):
        theta = counterexample_precision(3)
        with pytest.raises(IndexOutOfRange):
            block_conditional_mutual_info(theta, i, subset)
        expected = block_conditional_mutual_info(theta, 0, [1, 2])
        assert block_conditional_mutual_info(theta, np.int64(0), np.array([1, 2])) == expected

    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            theta = random_sparse_precision(7, rng)
            subset = [1, 2, 4]
            assert block_conditional_mutual_info(theta, 0, subset) >= 0.0


def entropy_path_block_cmi(theta, i, subset):
    # Covariance-side reference: 0.5 * (log det Cov(X_i | R) + log det
    # Cov(X_S | R) - log det Cov(X_{i, S} | R)) from Schur complements of
    # Sigma = inv(theta), independent of the precision-side closed form.
    sigma = invert(theta).matrix
    s = tuple(sorted(subset))
    rest = tuple(v for v in range(theta.p) if v != i and v not in s)

    def conditional_logdet(target):
        idx = target + rest
        sub = sigma[np.ix_(idx, idx)]
        cond = schur_complement(sub, range(len(target))) if rest else sub
        return 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(cond)))))

    return 0.5 * (conditional_logdet((i,)) + conditional_logdet(s) - conditional_logdet((i,) + s))


@st.composite
def vertex_and_subset(draw):
    p = draw(st.integers(2, 12))
    theta = random_sparse_precision(p, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    i = draw(st.integers(0, p - 1))
    others = [u for u in range(p) if u != i]
    subset = draw(st.lists(st.sampled_from(others), min_size=1, max_size=p - 1, unique=True))
    return theta, i, subset


class TestInvariances:
    @settings(max_examples=100, deadline=None)
    @given(case=vertex_and_subset())
    def test_block_cmi_matches_covariance_entropy_path(self, case):
        theta, i, subset = case
        value = block_conditional_mutual_info(theta, i, subset)
        assert value >= 0.0
        assert abs(value - entropy_path_block_cmi(theta, i, subset)) < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(case=vertex_and_subset(), data=st.data())
    def test_unchanged_by_vertex_permutation(self, case, data):
        theta, i, subset = case
        other = random_sparse_precision(theta.p, np.random.default_rng(i))
        perm = data.draw(st.permutations(range(theta.p)))
        where = np.argsort(perm)  # vertex u moves to where[u]

        def moved(t):
            return PrecisionMatrix(t.matrix[np.ix_(perm, perm)])

        j = subset[0]
        kl = kl_gaussian(theta, other)
        assert abs(kl_gaussian(moved(theta), moved(other)) - kl) <= 1e-10 * max(1.0, kl)
        assert abs(conditional_mutual_info(moved(theta), where[i], where[j])
                   - conditional_mutual_info(theta, i, j)) < 1e-12
        assert abs(block_conditional_mutual_info(moved(theta), where[i], where[subset])
                   - block_conditional_mutual_info(theta, i, subset)) < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(case=vertex_and_subset(), data=st.data())
    def test_unchanged_by_diagonal_congruence(self, case, data):
        theta, i, subset = case
        other = random_sparse_precision(theta.p, np.random.default_rng(i))
        scale = np.exp(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=theta.p, max_size=theta.p)))

        def scaled(t):
            return PrecisionMatrix(t.matrix * np.outer(scale, scale))

        j = subset[0]
        kl = kl_gaussian(theta, other)
        assert abs(kl_gaussian(scaled(theta), scaled(other)) - kl) <= 1e-10 * max(1.0, kl)
        assert abs(conditional_mutual_info(scaled(theta), i, j) - conditional_mutual_info(theta, i, j)) < 1e-12
        assert abs(block_conditional_mutual_info(scaled(theta), i, subset)
                   - block_conditional_mutual_info(theta, i, subset)) < 1e-10


class TestSeparationConstant:
    def test_flat_family_d_at_least_two(self):
        for d in (2, 3, 6, 8):
            assert_allclose(c_theta_star(counterexample_precision(d)), 4.0 / 3.0, rtol=1e-15)

    def test_single_edge_two_by_two(self):
        theta = PrecisionMatrix([[2.0, -1.0], [-1.0, 1.0]])
        assert_allclose(c_theta_star(theta), 2.0, rtol=1e-15)

    def test_diagonal_has_no_edges(self):
        with pytest.raises(NoEdges):
            c_theta_star(PrecisionMatrix(np.diag([1.0, 2.0])))

    def test_exp_of_twice_min_edge_cmi(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            theta = random_sparse_precision(7, rng)
            edges = [(i, j) for i in range(7) for j in range(i + 1, 7) if abs(theta.matrix[i, j]) > 1e-12]
            min_cmi = min(conditional_mutual_info(theta, i, j) for i, j in edges)
            assert_allclose(c_theta_star(theta), math.exp(2.0 * min_cmi), rtol=1e-10)

    def test_greater_than_one(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            assert c_theta_star(random_sparse_precision(5, rng)) > 1.0


class TestOneEdgeLowerBound:
    def test_flat_family(self):
        assert_allclose(one_edge_lower_bound(counterexample_precision(2)), HALF_LOG_4_3, atol=1e-15)

    def test_matches_class_bound_at_extremal_entries(self):
        theta = PrecisionMatrix([[2.0, 1.0], [1.0, 2.0]])
        assert_allclose(one_edge_lower_bound(theta), HALF_LOG_4_3, atol=1e-15)
        assert_allclose(HALF_LOG_4_3, omega_inf_lower_bound(1.0, 2.0), atol=1e-15)

    def test_c_equal_two_case(self):
        theta = PrecisionMatrix([[2.0, -1.0], [-1.0, 1.0]])
        assert_allclose(one_edge_lower_bound(theta), HALF_LOG_2, atol=1e-15)


class TestOmegaInfLowerBound:
    def test_value(self):
        assert_allclose(omega_inf_lower_bound(1.0, 2.0), HALF_LOG_4_3, rtol=1e-15)

    def test_vanishes_with_signal(self):
        assert omega_inf_lower_bound(1e-9, 1.0) < 1e-17

    def test_monotone_in_alpha(self):
        values = [omega_inf_lower_bound(a, 2.0) for a in (0.2, 0.8, 1.4, 1.9, 1.999)]
        assert values == sorted(values)
        assert values[-1] > 3.0

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameters):
            omega_inf_lower_bound(2.0, 1.0)
        with pytest.raises(InvalidParameters):
            omega_inf_lower_bound(0.0, 1.0)

    def test_dominates_one_edge_bound_on_class_members(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            alpha, h = 0.6, 2.5
            theta = random_omega_inf_member(6, alpha, h, rng)
            assert one_edge_lower_bound(theta) >= omega_inf_lower_bound(alpha, h) - 1e-12


class TestVerifySeparation:
    def test_projection_slack_nonnegative(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            theta_star = random_sparse_precision(6, rng)
            edges = sorted(e for e in edge_pairs(theta_star))
            removed = edges[int(rng.integers(len(edges)))]
            theta = project_remove_edge(theta_star, removed)
            report = verify_separation(theta_star, theta)
            assert report.slack >= -1e-9
            assert report.kl_value == pytest.approx(report.lower_bound + report.slack)
            assert report.witness_edge in edges

    def test_superset_support_rejected(self):
        theta_star = PrecisionMatrix([[2.0, 0.5], [0.5, 2.0]])
        with pytest.raises(NoMissingEdge):
            verify_separation(theta_star, theta_star)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            verify_separation(PrecisionMatrix(np.eye(2)), PrecisionMatrix(np.eye(3)))

    def test_report_serialization(self):
        report = BoundReport(kl_value=0.5, lower_bound=0.2, slack=0.3, witness_edge=(0, 2))
        assert report.to_dict() == {"kl": 0.5, "bound": 0.2, "slack": 0.3, "witness_edge": [0, 2]}


# the edge rule's boundary: |entry| > 1e-12 is an edge
AT_TOLERANCE = 1e-12
ABOVE_TOLERANCE = 1e-12 * (1.0 + 2.0**-52)


def support(theta):
    # plain double-loop definition of the off-diagonal support
    p = theta.p
    return {(i, j) for i in range(p) for j in range(i + 1, p) if abs(theta.matrix[i, j]) > AT_TOLERANCE}


@st.composite
def two_precisions(draw):
    """Two diagonally dominant precisions whose couplings sit at, below,
    just above and well above the edge rule's 1e-12."""
    p = draw(st.integers(2, 7))
    values = [0.0, AT_TOLERANCE, -AT_TOLERANCE, 0.5 * AT_TOLERANCE, ABOVE_TOLERANCE, -ABOVE_TOLERANCE, 0.4, -0.9]

    def precision():
        arr = np.zeros((p, p))
        pairs = p * (p - 1) // 2
        arr[np.triu_indices(p, k=1)] = draw(st.lists(st.sampled_from(values), min_size=pairs, max_size=pairs))
        arr += arr.T
        arr[np.diag_indices(p)] = np.sum(np.abs(arr), axis=1) + 1.0
        return PrecisionMatrix(arr)

    return precision(), precision()


class TestMissingEdgeScan:
    @settings(max_examples=300, deadline=None)
    @given(case=two_precisions())
    def test_matches_a_double_loop(self, case):
        theta_star, theta = case
        assert set(edge_set_of(theta_star)) == support(theta_star)
        missing = support(theta_star) - support(theta)
        if not missing:
            with pytest.raises(NoMissingEdge):
                verify_separation(theta_star, theta)
        else:
            report = verify_separation(theta_star, theta)
            assert report.witness_edge == min(missing)
            assert report.kl_value == kl_gaussian(theta_star, theta)
            assert report.lower_bound == one_edge_lower_bound(theta_star)
        for index in _upper_pairs(theta.p):
            assert not index.flags.writeable

    def test_entry_exactly_at_the_tolerance_is_no_edge(self):
        def precision(c01, c02):
            return PrecisionMatrix([[2.0, c01, c02], [c01, 2.0, 0.3], [c02, 0.3, 2.0]])

        # 1e-12 at (0, 1) leaves theta_star, and at (0, 2) leaves theta
        theta_star = precision(AT_TOLERANCE, ABOVE_TOLERANCE)
        assert edge_set_of(theta_star) == EdgeSet(3, [(0, 2), (1, 2)])
        # the ratio of (0, 1) would be the minimum if it counted
        assert c_theta_star(theta_star) == c_theta_star(precision(0.0, ABOVE_TOLERANCE))
        with pytest.raises(NoEdges):
            c_theta_star(PrecisionMatrix([[1.0, -AT_TOLERANCE], [-AT_TOLERANCE, 1.0]]))
        assert verify_separation(theta_star, precision(0.0, AT_TOLERANCE)).witness_edge == (0, 2)
        # just above 1e-12 at (0, 2) keeps it in theta
        with pytest.raises(NoMissingEdge):
            verify_separation(theta_star, precision(0.0, -ABOVE_TOLERANCE))

    @pytest.mark.parametrize("coupling", [
        0.0, 0.5 * AT_TOLERANCE, AT_TOLERANCE, -AT_TOLERANCE, ABOVE_TOLERANCE, -ABOVE_TOLERANCE,
    ])
    def test_every_entry_point_applies_the_same_rule(self, coupling):
        theta = PrecisionMatrix([[1.0, coupling], [coupling, 1.0]])
        is_edge = abs(coupling) > AT_TOLERANCE
        assert len(edge_set_of(theta)) == is_edge
        if is_edge:
            assert c_theta_star(theta) == 1.0 / (1.0 - coupling**2)
            with pytest.raises(NoMissingEdge):
                verify_separation(counterexample_precision(1), theta)
        else:
            with pytest.raises(NoEdges):
                c_theta_star(theta)
            assert verify_separation(counterexample_precision(1), theta).witness_edge == (0, 1)

    def test_cached_pairs_are_shared_and_read_only(self):
        rows, cols = _upper_pairs(5)
        assert _upper_pairs(5)[0] is rows
        assert list(zip(rows.tolist(), cols.tolist())) == [(i, j) for i in range(5) for j in range(i + 1, 5)]
        for index in (rows, cols):
            with pytest.raises(ValueError):
                index[0] = 1


def edge_pairs(theta):
    p = theta.p
    return [(i, j) for i in range(p) for j in range(i + 1, p) if abs(theta.matrix[i, j]) > 1e-12]
