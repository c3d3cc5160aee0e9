"""Matrix types, the kept factor, inversion, edge sets, and the test references."""

import ast
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import cho_solve

import ggmsep
from ggmsep import (
    CovarianceMatrix,
    DimensionMismatch,
    EdgeSet,
    NotPositiveDefinite,
    PrecisionMatrix,
    chain_precision,
    edge_set_of,
    empirical_covariance,
    factorize,
    fit_graph_mle,
    invert,
    kl_gaussian,
    nll,
    random_sparse_precision,
    sample,
)
from ggmsep.core import _check_adoptable, _symmetrize_in_place
from reference import in_omega_inf, schur_complement

COUNTEREXAMPLE_D2 = [[2.0, 1.0, -1.0], [1.0, 2.0, -1.0], [-1.0, -1.0, 1.0]]


def symmetrized_in_place(entries):
    """The check that both constructors and the projections share, applied
    to a buffer the caller owns."""
    arr = np.array(entries, dtype=float)
    out = _symmetrize_in_place(arr, "matrix")
    assert out is arr and not arr.flags.writeable
    return SimpleNamespace(matrix=out, p=out.shape[0])


class TestMatrixTypes:
    def test_precision_requires_pd(self):
        with pytest.raises(NotPositiveDefinite):
            PrecisionMatrix([[1.0, 2.0], [2.0, 1.0]])

    def test_precision_rejects_asymmetric(self):
        for build in (PrecisionMatrix, symmetrized_in_place):
            with pytest.raises(ValueError, match="symmetric"):
                build([[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_order_one(self):
        with pytest.raises(ValueError, match="order"):
            PrecisionMatrix([[2.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            CovarianceMatrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_rejects_non_finite(self):
        for build in (CovarianceMatrix, symmetrized_in_place):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match="finite"):
                    build([[1.0, 0.0], [0.0, bad]])

    def test_entries_exactly_symmetric_after_construction(self):
        # tiny asymmetry below tolerance is averaged away bit-for-bit
        arr = np.array([[2.0, 0.3 + 1e-12], [0.3, 2.0]])
        theta = PrecisionMatrix(arr)
        assert np.array_equal(theta.matrix, theta.matrix.T)

    @pytest.mark.parametrize("cls", [CovarianceMatrix, PrecisionMatrix, symmetrized_in_place])
    def test_huge_finite_entries_stay_finite(self, cls):
        # symmetrized as 0.5 A + 0.5 A^T, so A + A^T never overflows
        entries = [[1.5e308, 1.0], [1.0, 1.5e308]]
        assert np.array_equal(cls(entries).matrix, entries)

    @pytest.mark.parametrize("cls", [CovarianceMatrix, PrecisionMatrix, symmetrized_in_place])
    def test_subnormal_entries_survive_symmetrization(self, cls):
        # summed before halving, so the smallest subnormal does not round to 0
        entries = [[1.0, 5e-324], [5e-324, 1.0]]
        m = cls(entries)
        assert np.array_equal(m.matrix, entries)
        assert edge_set_of(m, zero_tol=0.0) == EdgeSet(2, [(0, 1)])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 8))
    def test_symmetrization_matches_the_mean_of_both_triangles(self, seed, p):
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal((p, p)) * 10.0 ** rng.integers(-8, 9)
        arr += arr.T
        arr *= 1.0 + 1e-10 * rng.standard_normal((p, p))
        assert np.array_equal(CovarianceMatrix(arr).matrix, 0.5 * (arr + arr.T))
        assert np.array_equal(symmetrized_in_place(arr).matrix, 0.5 * (arr + arr.T))

    def test_array_is_read_only(self):
        theta = PrecisionMatrix(np.eye(2))
        with pytest.raises(ValueError):
            theta.matrix[0, 0] = 5.0

    def test_covariance_accepts_psd_singular(self):
        # rank-one second-moment matrix from a single observation
        x = np.array([1.0, 2.0, -1.0])
        CovarianceMatrix(np.outer(x, x))

    def test_order_property(self):
        assert PrecisionMatrix(np.eye(4)).p == 4


class TestFactorize:
    def test_identity(self):
        fact = factorize(PrecisionMatrix(np.eye(3)))
        assert_allclose(fact.factor, np.eye(3))
        assert fact.log_determinant == 0.0

    def test_diagonal(self):
        fact = factorize(PrecisionMatrix(np.diag([2.0, 2.0])))
        assert_allclose(fact.log_determinant, 2 * math.log(2), rtol=1e-15)

    def test_two_by_two(self):
        # det [[2,1],[1,2]] = 3 by cofactor expansion
        fact = factorize(PrecisionMatrix([[2.0, 1.0], [1.0, 2.0]]))
        assert_allclose(fact.log_determinant, math.log(3.0), rtol=1e-15)

    def test_reconstruction_and_logdet_consistency(self):
        rng = np.random.default_rng(11)
        for p in (3, 10, 50):
            theta = random_sparse_precision(p, rng)
            fact = factorize(theta)
            recon = fact.factor @ fact.factor.T
            assert np.max(np.abs(recon - theta.matrix)) <= 1e-12 * np.max(np.abs(theta.matrix))
            assert_allclose(
                fact.log_determinant,
                2.0 * np.sum(np.log(np.diag(fact.factor))),
                rtol=1e-15,
            )

    def test_not_pd_from_covariance(self):
        x = np.array([1.0, 2.0])
        with pytest.raises(NotPositiveDefinite):
            factorize(CovarianceMatrix(np.outer(x, x)))


@pytest.fixture
def cholesky_shapes(monkeypatch):
    """Shapes of the matrices passed to np.linalg.cholesky while the test runs."""
    shapes = []
    original = np.linalg.cholesky

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return shapes


class TestKeptFactor:
    def test_construction_factors_once(self, cholesky_shapes):
        entries = random_sparse_precision(6, np.random.default_rng(1)).matrix
        cholesky_shapes.clear()
        PrecisionMatrix(entries)
        assert cholesky_shapes == [(6, 6)]

    def test_operations_on_a_precision_reuse_its_factor(self, cholesky_shapes):
        rng = np.random.default_rng(2)
        theta1, theta2 = random_sparse_precision(5, rng), random_sparse_precision(5, rng)
        sigma_hat = empirical_covariance(sample(theta1, 50, 3))
        cholesky_shapes.clear()
        kl_gaussian(theta1, theta2)
        factorize(theta1)
        invert(theta1)
        nll(theta2, sigma_hat)
        sample(theta2, 10, 4)
        assert cholesky_shapes == []

    def test_kept_factor_is_read_only_and_shared(self):
        theta = random_sparse_precision(4, np.random.default_rng(5))
        fact = factorize(theta)
        assert fact.factor is factorize(theta).factor
        assert not fact.factor.flags.writeable
        with pytest.raises(ValueError):
            fact.factor[0, 0] = 1.0
        assert np.array_equal(fact.factor, np.linalg.cholesky(theta.matrix))

    @pytest.mark.parametrize("graph", ["chain", "cycle"])
    def test_fitted_precision_keeps_its_fits_factor(self, cholesky_shapes, graph):
        # the chain is fitted in closed form, the 8-cycle by Newton steps;
        # either way the factor kept is the one the fit's check computed
        theta = chain_precision(8)
        sigma_hat = empirical_covariance(sample(theta, 250, 7))
        support = edge_set_of(theta)
        if graph == "cycle":
            support = EdgeSet(8, [*support.edges, (0, 7)])
        cholesky_shapes.clear()
        fit = fit_graph_mle(sigma_hat, support, 10.0)
        assert fit.termination == ("closed_form" if graph == "chain" else "tolerance")
        assert all(shape[-2:] != (8, 8) for shape in cholesky_shapes)
        lower = factorize(fit.theta_hat).factor
        assert not lower.flags.writeable
        assert np.array_equal(lower, np.tril(lower))
        recon = lower @ lower.T
        assert np.max(np.abs(recon - fit.theta_hat.matrix)) <= 1e-12 * np.max(np.abs(fit.theta_hat.matrix))
        cholesky_shapes.clear()
        kl_gaussian(theta, fit.theta_hat)
        assert cholesky_shapes == []

    @pytest.mark.parametrize(
        "entries, match",
        [([[2.0, math.inf], [math.inf, 2.0]], "finite"), ([[2.0, 0.5], [0.5 + 1e-15, 2.0]], "symmetric")],
    )
    def test_adopting_a_factor_still_checks_the_entries(self, entries, match):
        with pytest.raises(ValueError, match=match):
            _check_adoptable(np.array(entries))


class TestInvert:
    def test_identity(self):
        assert_allclose(invert(PrecisionMatrix(np.eye(3))).matrix, np.eye(3))

    def test_diagonal_reciprocals(self):
        cov = invert(PrecisionMatrix(np.diag([2.0, 4.0])))
        assert_allclose(cov.matrix, np.diag([0.5, 0.25]), rtol=1e-14)

    def test_two_by_two_formula(self):
        cov = invert(PrecisionMatrix([[1.0, -0.5], [-0.5, 1.0]]))
        assert_allclose(cov.matrix, (4.0 / 3.0) * np.array([[1.0, 0.5], [0.5, 1.0]]), rtol=1e-13)

    def test_kind_flips(self):
        theta = PrecisionMatrix(np.eye(2))
        cov = invert(theta)
        assert isinstance(cov, CovarianceMatrix)
        assert isinstance(invert(cov), PrecisionMatrix)

    def test_roundtrip_identity_p50(self):
        theta = random_sparse_precision(50, np.random.default_rng(3))
        cov = invert(theta)
        assert np.max(np.abs(theta.matrix @ cov.matrix - np.eye(50))) < 1e-10

    def test_bits_match_the_checked_cho_solve(self):
        # invert calls dpotrs itself; scipy's checking wrapper gave the same bits
        theta = random_sparse_precision(8, np.random.default_rng(5))
        sigma = empirical_covariance(sample(theta, 4000, 6))
        fitted = fit_graph_mle(sigma, edge_set_of(theta), math.inf).theta_hat
        for m in (theta, sigma, fitted):
            expected = cho_solve((factorize(m).factor, True), np.eye(m.p))
            assert invert(m).matrix.tobytes() == type(invert(m))(expected).matrix.tobytes()

    def test_the_library_imports_only_lapack_from_scipy(self):
        imported = set()
        for path in (Path(ggmsep.__file__).parent).glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                    imported.update(f"{node.module}.{alias.name}" for alias in node.names)
                elif isinstance(node, ast.Import):
                    imported.update(alias.name for alias in node.names if alias.name.startswith("scipy"))
        assert imported == {"scipy.linalg.lapack"}

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 50))
    def test_involution_and_logdet_negation(self, seed, p):
        theta = random_sparse_precision(p, np.random.default_rng(seed))
        cov = invert(theta)
        back = invert(cov)
        scale = np.max(np.abs(theta.matrix))
        assert np.max(np.abs(back.matrix - theta.matrix)) < 1e-9 * scale
        assert abs(factorize(cov).log_determinant + factorize(theta).log_determinant) < 1e-9


class TestSchurComplement:
    # the conditional-covariance reference behind criterion 2 and block CMI
    def test_block_diagonal_keeps_block(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        b = np.array([[3.0, -1.0], [-1.0, 2.0]])
        m = np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), b]])
        assert_allclose(schur_complement(m, [0, 1]), a, rtol=1e-15)

    def test_scalar_case(self):
        out = schur_complement(CovarianceMatrix([[2.0, 1.0], [1.0, 2.0]]), [0])
        assert_allclose(out, [[1.5]], rtol=1e-15)

    def test_determinant_identity_random(self):
        # oracle: plain determinants of the full matrix and the complement block
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = random_sparse_precision(5, rng).matrix
            keep = [0, 2]
            comp = [1, 3, 4]
            s = schur_complement(m, keep)
            lhs = np.linalg.det(s)
            rhs = np.linalg.det(m) / np.linalg.det(m[np.ix_(comp, comp)])
            assert_allclose(lhs, rhs, rtol=1e-10)

    def test_result_is_spd(self):
        theta = random_sparse_precision(6, np.random.default_rng(8))
        s = schur_complement(invert(theta), [1, 3, 4])
        assert np.array_equal(s, s.T)
        np.linalg.cholesky(s)

    def test_non_pd_complement(self):
        m = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            schur_complement(m, [0])


class TestEdgeSet:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            EdgeSet(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            EdgeSet(3, [(0, 3)])

    def test_normalizes_and_dedupes(self):
        e = EdgeSet(4, [(2, 0), (0, 2), [1, 3]])
        assert sorted(e) == [(0, 2), (1, 3)]
        assert (2, 0) in e and (0, 2) in e
        assert (0, 1) not in e

    def test_complete_and_without(self):
        e = EdgeSet.complete(4)
        assert len(e) == 6
        assert len(e.without((0, 1), (3, 2))) == 4

    def test_difference_and_subset(self):
        a = EdgeSet(3, [(0, 1), (1, 2)])
        b = EdgeSet(3, [(1, 2)])
        assert a.difference(b) == frozenset({(0, 1)})
        assert b.is_subset_of(a)
        with pytest.raises(DimensionMismatch):
            a.difference(EdgeSet(4, [(0, 1)]))

    @pytest.mark.parametrize("p", [4.7, 4.0, True, "4", None])
    def test_rejects_an_order_that_is_not_an_integer(self, p):
        with pytest.raises(ValueError, match="integer"):
            EdgeSet(p, [(0, 1)])

    @pytest.mark.parametrize("edge", [(0.5, 1.2), (0, 1.0), (np.float64(0.0), 1), (True, 2)])
    def test_rejects_an_endpoint_that_is_not_an_integer(self, edge):
        with pytest.raises(ValueError, match="integers"):
            EdgeSet(4, [edge])
        assert edge not in EdgeSet(4, [(0, 1), (1, 2)])

    def test_accepts_numpy_integers(self):
        e = EdgeSet(np.int64(4), [(np.int32(2), np.int64(0))])
        assert e == EdgeSet(4, [(0, 2)]) and type(e.p) is int
        assert (np.int64(0), np.int8(2)) in e

    def test_equality_and_hash(self):
        assert EdgeSet(3, [(0, 1)]) == EdgeSet(3, [(1, 0)])
        assert hash(EdgeSet(3, [(0, 1)])) == hash(EdgeSet(3, [(1, 0)]))
        assert EdgeSet(3, [(0, 1)]) != EdgeSet(4, [(0, 1)])


class TestEdgeSetOf:
    def test_diagonal_matrix_has_no_edges(self):
        assert len(edge_set_of(PrecisionMatrix(np.diag([1.0, 2.0, 3.0])))) == 0

    def test_dense_three_by_three(self):
        e = edge_set_of(PrecisionMatrix(COUNTEREXAMPLE_D2))
        assert sorted(e) == [(0, 1), (0, 2), (1, 2)]

    def test_sub_tolerance_entry_dropped(self):
        theta = PrecisionMatrix([[2.0, 1e-15, 0.0], [1e-15, 2.0, 1.0], [0.0, 1.0, 2.0]])
        assert sorted(edge_set_of(theta, zero_tol=1e-12)) == [(1, 2)]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 12))
    def test_roundtrip_from_edge_set(self, seed, p):
        rng = np.random.default_rng(seed)
        theta = random_sparse_precision(p, rng)
        edges = edge_set_of(theta, zero_tol=0.0)
        # rebuild a matrix supported on exactly these edges
        arr = np.zeros((p, p))
        for i, j in edges:
            arr[i, j] = arr[j, i] = 0.5
        arr[np.diag_indices(p)] = np.sum(np.abs(arr), axis=1) + 1.0
        assert edge_set_of(PrecisionMatrix(arr), zero_tol=0.0) == edges


class TestClassMembership:
    # the entrywise-class check that the generator tests rely on
    def test_entrywise_class(self):
        theta = PrecisionMatrix([[2.0, 1.0], [1.0, 2.0]])
        assert in_omega_inf(theta, alpha=1.0, h=2.0)
        assert not in_omega_inf(theta, alpha=1.5, h=2.0)

    def test_counterexample_matrix_in_class(self):
        theta = PrecisionMatrix(COUNTEREXAMPLE_D2)
        assert in_omega_inf(theta, alpha=1.0, h=2.0)

    def test_diagonal_above_h_excluded(self):
        theta = PrecisionMatrix(np.diag([1.0, 3.0]))
        assert not in_omega_inf(theta, alpha=0.5, h=2.0)
