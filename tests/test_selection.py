"""Graph scores, the minimum-score selector, and the sample-size formula."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ggmsep import (
    CandidateCollection,
    CovarianceMatrix,
    DimensionMismatch,
    EdgeSet,
    FitOptions,
    InfeasibleStart,
    InvalidParameters,
    c_theta_star,
    chain_precision,
    conditional_mutual_info,
    edge_set_of,
    empirical_covariance,
    factorize,
    fit_graph_mle,
    invert,
    one_edge_lower_bound,
    random_sparse_precision,
    sample,
    sample_covariance,
    sample_size_bound,
    select_graph,
    trial_seed,
)
from ggmsep import core, projection
from ggmsep import selection as selection_module


class TestCandidateCollection:
    def test_default_sparsity_bound(self):
        coll = CandidateCollection([EdgeSet(4, [(0, 1)]), EdgeSet(4, [(0, 1), (2, 3)])])
        assert coll.s == 2
        assert coll.p == 4
        assert len(coll) == 2

    def test_explicit_bound_validated(self):
        with pytest.raises(InvalidParameters):
            CandidateCollection([EdgeSet(3, [(0, 1), (1, 2)])], s=1)

    @pytest.mark.parametrize("s", [3.7, 3.0, True, "3"])
    def test_explicit_bound_takes_integers_only(self, s):
        # s=3.7 was kept as 3
        with pytest.raises(InvalidParameters, match="integer"):
            CandidateCollection([EdgeSet(3, [(0, 1)])], s=s)

    def test_explicit_bound_accepts_numpy_integers(self):
        coll = CandidateCollection([EdgeSet(3, [(0, 1)])], s=np.int64(3))
        assert coll.s == 3 and type(coll.s) is int

    def test_mixed_orders_rejected(self):
        with pytest.raises(DimensionMismatch):
            CandidateCollection([EdgeSet(3), EdgeSet(4)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CandidateCollection([])


class TestScore:
    def test_complete_graph(self):
        sigma = invert(random_sparse_precision(5, np.random.default_rng(1)))
        expected = float(np.linalg.slogdet(sigma.matrix)[1]) + 5.0
        assert_allclose(fit_graph_mle(sigma, EdgeSet.complete(5), 100.0).objective, expected, atol=1e-8)

    def test_empty_graph(self):
        sigma = invert(random_sparse_precision(5, np.random.default_rng(2)))
        expected = float(np.sum(np.log(np.diag(sigma.matrix)))) + 5.0
        assert_allclose(fit_graph_mle(sigma, EdgeSet(5), 100.0).objective, expected, atol=1e-8)

    def test_monotone_in_support(self):
        sigma = invert(random_sparse_precision(6, np.random.default_rng(3)))
        small = EdgeSet(6, [(0, 1)])
        large = EdgeSet(6, [(0, 1), (2, 3), (4, 5)])
        assert fit_graph_mle(sigma, large, 50.0).objective <= fit_graph_mle(sigma, small, 50.0).objective + 1e-8

    def test_gap_identity_against_closed_form(self):
        # dropping one edge from the complete support costs exactly twice
        # the conditional mutual information of that edge
        theta_star = random_sparse_precision(5, np.random.default_rng(4))
        sigma = invert(theta_star)
        edge = (0, 3)
        full = fit_graph_mle(sigma, EdgeSet.complete(5), math.inf).objective
        dropped = fit_graph_mle(sigma, EdgeSet.complete(5).without(edge), math.inf).objective
        assert abs((dropped - full) - 2.0 * conditional_mutual_info(theta_star, *edge)) < 1e-5


class TestSelectGraph:
    def test_singleton(self):
        sigma = invert(random_sparse_precision(4, np.random.default_rng(5)))
        result = select_graph(CandidateCollection([EdgeSet.complete(4)]), sigma, 50.0)
        assert result.selected_index == 0
        assert len(result.scores) == 1

    def test_tie_breaks_to_lowest_index(self):
        sigma = invert(random_sparse_precision(4, np.random.default_rng(6)))
        graph = EdgeSet(4, [(0, 1), (2, 3)])
        result = select_graph(CandidateCollection([graph, graph]), sigma, 50.0)
        assert result.selected_index == 0
        assert result.scores[0] == result.scores[1]

    def test_population_selection_with_guaranteed_gap(self):
        theta_star = chain_precision(6)
        sigma_star = invert(theta_star)
        true_graph = edge_set_of(theta_star)
        candidates = [true_graph] + [true_graph.without(e) for e in sorted(true_graph)]
        result = select_graph(CandidateCollection(candidates), sigma_star, 10.0)
        assert result.selected_index == 0
        bound = 2.0 * one_edge_lower_bound(theta_star)
        for rival_score in result.scores[1:]:
            assert rival_score - result.scores[0] >= bound - 1e-6
        assert bound == pytest.approx(math.log(c_theta_star(theta_star)))

    def test_deterministic(self):
        sigma = invert(random_sparse_precision(5, np.random.default_rng(7)))
        coll = CandidateCollection([EdgeSet(5, [(0, 1)]), EdgeSet(5, [(1, 2), (3, 4)])])
        first = select_graph(coll, sigma, 20.0)
        second = select_graph(coll, sigma, 20.0)
        assert first.selected_index == second.selected_index
        assert first.scores == second.scores

    def test_unconverged_candidate_is_flagged(self, monkeypatch):
        sigma = invert(random_sparse_precision(4, np.random.default_rng(8)))
        stalled = EdgeSet(4, [(0, 1)])
        good = EdgeSet(4, [(2, 3)])
        real_fits = selection_module._fit_graphs

        def stalling_fits(sigma_hat, graphs, gamma, opts=FitOptions()):
            return [
                dataclasses.replace(r, converged=False, termination="stalled") if g == stalled else r
                for g, r in zip(graphs, real_fits(sigma_hat, graphs, gamma, opts))
            ]

        monkeypatch.setattr(selection_module, "_fit_graphs", stalling_fits)
        result = select_graph(CandidateCollection([good, stalled, good]), sigma, 20.0)
        assert result.unconverged == (1,)
        assert result.to_dict()["unconverged"] == [1]
        assert math.isfinite(result.scores[1])

    def test_all_fits_failed(self):
        # zero diagonal makes every candidate's initialization impossible,
        # and the whole call raises
        sigma = CovarianceMatrix([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InfeasibleStart):
            select_graph(CandidateCollection([EdgeSet(2), EdgeSet(2, [(0, 1)])]), sigma, 5.0)

    @pytest.mark.parametrize("gamma", [1e-310, 1e-320])
    def test_a_start_too_small_to_invert_raises_without_a_warning(self, gamma):
        # the identity scaled into the ball is subnormal and its inverse
        # overflows: every Newton fit stalled with a NaN gradient norm
        collection = CandidateCollection([EdgeSet(4), EdgeSet(4, [(0, 1), (1, 2), (2, 3), (0, 3)])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleStart, match="start"):
                select_graph(collection, CovarianceMatrix(np.eye(4)), gamma)

    def test_sigma_of_another_order_is_a_dimension_mismatch(self):
        sigma = invert(random_sparse_precision(4, np.random.default_rng(9)))
        with pytest.raises(DimensionMismatch, match="orders differ"):
            select_graph(CandidateCollection([EdgeSet(3), EdgeSet.complete(3)]), sigma, 5.0)

    def test_serialization(self):
        sigma = invert(random_sparse_precision(3, np.random.default_rng(9)))
        result = select_graph(CandidateCollection([EdgeSet(3), EdgeSet.complete(3)]), sigma, 20.0)
        doc = result.to_dict()
        assert doc["selected_index"] == 1
        assert len(doc["scores"]) == 2
        assert doc["fit_results"][0]["converged"] is True
        assert doc["unconverged"] == []


def _assert_same_as_single_fits(result, fits):
    scores = tuple(fit.objective for fit in fits)
    assert result.scores == scores
    assert result.selected_index == min(range(len(scores)), key=scores.__getitem__)
    assert result.unconverged == tuple(k for k, fit in enumerate(fits) if not fit.converged)
    assert len(result.fit_results) == len(fits)
    for batched, single in zip(result.fit_results, fits):
        assert np.array_equal(batched.theta_hat.matrix, single.theta_hat.matrix)
        assert np.array_equal(factorize(batched.theta_hat).factor, factorize(single.theta_hat).factor)
        assert batched.objective == single.objective
        assert batched.iterations == single.iterations
        assert batched.termination == single.termination


class TestBatchedSelection:
    """select_graph fits its collection in one batch; each candidate's fit
    must be bit for bit the fit_graph_mle of that candidate alone."""

    @settings(max_examples=80, deadline=None)
    @given(
        p=st.integers(3, 8),
        seed=st.integers(0, 2**32 - 1),
        few_samples=st.booleans(),
        shrink=st.sampled_from([0.3, 3.0, math.inf]),
        picks=st.lists(st.integers(0, 5), min_size=1, max_size=8),
        start=st.sampled_from(["kept", "kept", "huge", "tiny"]),
        vertex=st.integers(0, 7),
    )
    def test_select_graph_equals_a_loop_of_fit_graph_mle(self, p, seed, few_samples, shrink, picks, start, vertex):
        # n = p - 1 leaves sigma_hat singular, so the complete graph's closed
        # form fails (a zero residual) while sparser chordal ones succeed;
        # shrink = 0.3 makes the ball bind; picks repeat candidates. A
        # diagonal entry of 1e300 with gamma = 1e-30 scales the Newton start
        # to 0 in the ball, and one of 1e-310 makes it overflow.
        rng = np.random.default_rng(seed)
        truth = random_sparse_precision(p, rng)
        sigma = empirical_covariance(sample(truth, p - 1 if few_samples else 200, seed))
        gamma = shrink * float(np.linalg.norm(truth.matrix))
        if start != "kept":
            entries = sigma.matrix.copy()
            entries[vertex % p, vertex % p] = 1e300 if start == "huge" else 1e-310
            sigma = CovarianceMatrix(entries)
            gamma = 1e-30 if start == "huge" else gamma
        chain = EdgeSet(p, [(k, k + 1) for k in range(p - 1)])
        square = EdgeSet(p, [(0, 1), (1, 2), (2, 3), (0, 3)]) if p >= 4 else EdgeSet(p, [(0, 1), (1, 2)])
        pool = [chain, square, EdgeSet.complete(p), EdgeSet(p), edge_set_of(truth), chain.without((0, 1))]
        collection = CandidateCollection([pool[k] for k in picks])
        opts = FitOptions(max_iterations=60)
        fits, raised = [], 0
        for graph in collection:
            try:
                fits.append(fit_graph_mle(sigma, graph, gamma, opts))
            except InfeasibleStart:
                raised += 1
        # the start depends on no graph: every fit raises or none does
        assert raised == (0 if start == "kept" else len(collection))
        if raised:
            with pytest.raises(InfeasibleStart):
                select_graph(collection, sigma, gamma, opts)
            return
        _assert_same_as_single_fits(select_graph(collection, sigma, gamma, opts), fits)

    @settings(max_examples=100, deadline=None)
    @given(
        p=st.integers(3, 7),
        draws=st.integers(0, 7),
        seed=st.integers(0, 2**32 - 1),
        shrink=st.sampled_from([0.3, 3.0, math.inf]),
        masks=st.lists(st.integers(0, 2**21 - 1), max_size=4),
    )
    @example(p=3, draws=0, seed=16, shrink=math.inf, masks=[])
    @example(p=7, draws=3, seed=31, shrink=0.3, masks=[0b101])
    def test_rank_deficient_sigma_hat_fits_every_candidate(self, p, draws, seed, shrink, masks):
        # n = 1..p+1 draws: a conditioning block can be exactly singular to
        # the stacked solve, which raised LinAlgError for the whole selection
        # (as in both examples); such a block sends only its own candidate to
        # Newton. Bit k of a mask keeps the k-th vertex pair as an edge.
        n = 1 + draws % (p + 1)
        pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
        graphs = [EdgeSet(p, [e for k, e in enumerate(pairs) if mask >> k & 1]) for mask in masks]
        collection = CandidateCollection([EdgeSet.complete(p), *graphs])
        truth = random_sparse_precision(p, np.random.default_rng(seed))
        sigma = empirical_covariance(sample(truth, n, seed))
        gamma = shrink * float(np.linalg.norm(truth.matrix))
        opts = FitOptions(max_iterations=60)
        result = select_graph(collection, sigma, gamma, opts)
        _assert_same_as_single_fits(result, [fit_graph_mle(sigma, graph, gamma, opts) for graph in collection])

    def test_a_singular_conditioning_block_sends_only_its_candidate_to_newton(self):
        # vertices 0 and 1 are perfectly correlated: the triangle regresses 2
        # on the singular block over {0, 1}, the other candidates never do
        sigma = CovarianceMatrix([[1.0, 1.0, 0.3], [1.0, 1.0, 0.3], [0.3, 0.3, 1.0]])
        triangle = EdgeSet.complete(3)
        collection = CandidateCollection([EdgeSet(3, [(0, 2)]), triangle, EdgeSet(3, [(1, 2)]), triangle])
        result = select_graph(collection, sigma, 5.0)
        terminations = [fit.termination for fit in result.fit_results]
        assert terminations == ["closed_form", "tolerance", "closed_form", "tolerance"]
        _assert_same_as_single_fits(result, [fit_graph_mle(sigma, graph, 5.0) for graph in collection])

    def test_a_kept_closed_form_fit_holds_only_its_own_buffers(self):
        # each closed form's matrix and factor are copied out of the
        # (slots, p, p) stacks, so one kept fit does not keep the batch alive
        theta_star = chain_precision(8)
        truth = edge_set_of(theta_star)
        collection = CandidateCollection([truth, *(truth.without(e) for e in sorted(truth))])
        sigma = empirical_covariance(sample(theta_star, 250, 0))
        fits = [f for f in select_graph(collection, sigma, 10.0).fit_results if f.termination == "closed_form"]
        assert len(fits) == len(collection)
        for fit in fits:
            for array in (fit.theta_hat.matrix, fit.theta_hat._factor, fit.theta_hat._sigma):
                assert array.base is None or array.base.shape == (8, 8)

    def test_criterion_7s_selection_computes_no_covariance(self, monkeypatch):
        # scores and gaps need no inverse, so selecting among the chain and
        # its single-edge deletions, every fit a closed form, inverts nothing
        theta_star = chain_precision(8)
        truth = edge_set_of(theta_star)
        collection = CandidateCollection([truth, *(truth.without(e) for e in sorted(truth))])
        sigmas = [sample_covariance(theta_star, n, trial_seed(2025, g, 0)) for g, n in enumerate((250, 1000, 4000))]
        sigmas.append(invert(theta_star))
        inverses = []
        for module in (core, projection):
            def counting(lower, _original=module._spd_inverse):
                inverses.append(lower.shape)
                return _original(lower)
            monkeypatch.setattr(module, "_spd_inverse", counting)
        for sigma in sigmas:
            result = select_graph(collection, sigma, 10.0)
            assert [fit.termination for fit in result.fit_results] == ["closed_form"] * len(collection)
        assert inverses == []


class TestSampleSizeBound:
    def test_formula_arithmetic(self):
        expected = (4.0 * 1.0 * 4.0 / 0.25) * 1.0 * 15.0 * math.log(10.0)
        assert_allclose(
            sample_size_bound(C=1.0, gamma=2.0, c_star=0.5, lambda_max=1.0, p=10, s=5),
            expected,
            rtol=1e-15,
        )

    def test_doubling_gamma_quadruples(self):
        base = sample_size_bound(1.0, 1.0, 1.0, 1.0, 6, 3)
        assert_allclose(sample_size_bound(1.0, 2.0, 1.0, 1.0, 6, 3), 4.0 * base, rtol=1e-15)

    def test_known_diagonals_variant(self):
        loose = sample_size_bound(1.0, 2.0, 0.5, 1.5, 12, 4)
        sharp = sample_size_bound(1.0, 2.0, 0.5, 1.5, 12, 4, known_diagonals=True)
        assert_allclose(sharp / loose, 4.0 / 16.0, rtol=1e-15)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameters):
            sample_size_bound(0.0, 1.0, 1.0, 1.0, 4, 2)
        with pytest.raises(InvalidParameters):
            sample_size_bound(1.0, 1.0, 1.0, 1.0, 1, 2)
        with pytest.raises(InvalidParameters):
            sample_size_bound(1.0, 1.0, 1.0, 1.0, 4, 0)

    @pytest.mark.parametrize("name", ["C", "gamma", "c_star", "lambda_max"])
    @pytest.mark.parametrize("value", ["x", True, math.inf, math.nan, None, 1j])
    def test_constants_take_positive_finite_reals_only(self, name, value):
        # "x" raised TypeError, c_star=True returned 33.27 and inf passed
        constants = {"C": 1.0, "gamma": 1.0, "c_star": 1.0, "lambda_max": 1.0, name: value}
        with pytest.raises(InvalidParameters, match="positive finite reals"):
            sample_size_bound(**constants, p=4, s=2)

    def test_constants_accept_integers_and_numpy_reals(self):
        assert sample_size_bound(1, np.int64(2), np.float64(0.5), 1.0, 10, 5) == sample_size_bound(
            1.0, 2.0, 0.5, 1.0, 10, 5
        )

    @pytest.mark.parametrize("p, s", [(2.5, 1), (4, 1.5), (4.0, 2), (True, 1), (4, True)])
    def test_orders_and_sparsity_take_integers_only(self, p, s):
        # p=2.5, s=1.5 returned a number
        with pytest.raises(InvalidParameters, match="integer"):
            sample_size_bound(1.0, 1.0, 1.0, 1.0, p, s)

    def test_orders_and_sparsity_accept_numpy_integers(self):
        expected = sample_size_bound(1.0, 1.0, 1.0, 1.0, 4, 2)
        assert sample_size_bound(1.0, 1.0, 1.0, 1.0, np.int64(4), np.int32(2)) == expected
