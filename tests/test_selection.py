"""Graph scores, the minimum-score selector, and the sample-size formula."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ggmsep import (
    AllFitsFailed,
    CandidateCollection,
    CovarianceMatrix,
    DimensionMismatch,
    EdgeSet,
    FitOptions,
    InvalidParameters,
    NotPositiveDefinite,
    c_theta_star,
    chain_precision,
    conditional_mutual_info,
    edge_set_of,
    invert,
    one_edge_lower_bound,
    random_sparse_precision,
    sample_size_bound,
    score,
    select_graph,
)
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
        assert_allclose(score(EdgeSet.complete(5), sigma, 100.0), expected, atol=1e-8)

    def test_empty_graph(self):
        sigma = invert(random_sparse_precision(5, np.random.default_rng(2)))
        expected = float(np.sum(np.log(np.diag(sigma.matrix)))) + 5.0
        assert_allclose(score(EdgeSet(5), sigma, 100.0), expected, atol=1e-8)

    def test_monotone_in_support(self):
        sigma = invert(random_sparse_precision(6, np.random.default_rng(3)))
        small = EdgeSet(6, [(0, 1)])
        large = EdgeSet(6, [(0, 1), (2, 3), (4, 5)])
        assert score(large, sigma, 50.0) <= score(small, sigma, 50.0) + 1e-8

    def test_gap_identity_against_closed_form(self):
        # dropping one edge from the complete support costs exactly twice
        # the conditional mutual information of that edge
        theta_star = random_sparse_precision(5, np.random.default_rng(4))
        sigma = invert(theta_star)
        edge = (0, 3)
        full = score(EdgeSet.complete(5), sigma, math.inf)
        dropped = score(EdgeSet.complete(5).without(edge), sigma, math.inf)
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

    def test_failed_candidate_gets_infinite_score(self, monkeypatch):
        sigma = invert(random_sparse_precision(4, np.random.default_rng(8)))
        bad = EdgeSet(4, [(0, 1)])
        good = EdgeSet(4, [(2, 3)])
        real_fit = selection_module.fit_graph_mle

        def flaky_fit(sigma_hat, graph, gamma, opts=FitOptions()):
            if graph == bad:
                raise NotPositiveDefinite("synthetic failure")
            return real_fit(sigma_hat, graph, gamma, opts)

        monkeypatch.setattr(selection_module, "fit_graph_mle", flaky_fit)
        result = select_graph(CandidateCollection([bad, good]), sigma, 20.0)
        assert result.selected_index == 1
        assert math.isinf(result.scores[0])
        assert result.fit_results[0] is None

    def test_unconverged_candidate_is_flagged(self, monkeypatch):
        sigma = invert(random_sparse_precision(4, np.random.default_rng(8)))
        stalled = EdgeSet(4, [(0, 1)])
        good = EdgeSet(4, [(2, 3)])
        real_fit = selection_module.fit_graph_mle

        def stalling_fit(sigma_hat, graph, gamma, opts=FitOptions()):
            result = real_fit(sigma_hat, graph, gamma, opts)
            if graph == stalled:
                return dataclasses.replace(result, converged=False, termination="stalled")
            return result

        monkeypatch.setattr(selection_module, "fit_graph_mle", stalling_fit)
        result = select_graph(CandidateCollection([good, stalled, good]), sigma, 20.0)
        assert result.unconverged == (1,)
        assert result.to_dict()["unconverged"] == [1]
        assert math.isfinite(result.scores[1])

    def test_all_fits_failed(self):
        # zero diagonal makes every candidate's initialization impossible
        sigma = CovarianceMatrix([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(AllFitsFailed):
            select_graph(CandidateCollection([EdgeSet(2), EdgeSet(2, [(0, 1)])]), sigma, 5.0)

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
