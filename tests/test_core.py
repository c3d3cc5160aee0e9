"""Matrix types, the kept factor, inversion, edge sets, and the test references."""

import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
import scipy.linalg.lapack

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
    nll_gradient,
    project_remove_edge,
    random_sparse_precision,
    sample,
)
from ggmsep import core
from ggmsep.core import _check_adoptable, _frozen_symmetric, _log_det, _potrf, _potrs, _trtrs
from reference import in_omega_inf, schur_complement

ROOT = Path(__file__).resolve().parents[1]
COUNTEREXAMPLE_D2 = [[2.0, 1.0, -1.0], [1.0, 2.0, -1.0], [-1.0, -1.0, 1.0]]


def symmetrized_in_place(entries):
    """The check that both constructors share, applied to entries alone:
    _frozen_symmetric symmetrizes its own copy in place and freezes it."""
    out = _frozen_symmetric(entries, "matrix")
    assert not out.flags.writeable
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
        # kept, but below the edge rule's 1e-12
        assert edge_set_of(m) == EdgeSet(2)

    @pytest.mark.parametrize("cls", [CovarianceMatrix, PrecisionMatrix, symmetrized_in_place])
    def test_huge_entries_are_held_to_the_relative_asymmetry_rule(self, cls):
        # halved before the check and the gap doubled back: an asymmetry of
        # 1.5e-8 of the largest entry is rejected, one of 0.5e-8 averaged away
        big = 1.5e308
        with pytest.raises(ValueError, match=r"not symmetric: max \|M - M\^T\| = 2\.25e\+300"):
            cls([[big, 1e300], [1e300 + 1.5e-8 * big, big]])
        m = cls([[big, 1e300], [1e300 + 0.5e-8 * big, big]])
        assert m.matrix[0, 1] == m.matrix[1, 0] == 0.5 * 1e300 + 0.5 * (1e300 + 0.5e-8 * big)

    @pytest.mark.parametrize("cls", [CovarianceMatrix, symmetrized_in_place])
    def test_tiny_entries_are_held_to_an_absolute_asymmetry_of_1e_8(self, cls):
        # the rule is relative to the larger of 1 and the largest entry
        m = cls([[1e-300, 1e-9], [0.0, 1e-300]])
        assert m.matrix[0, 1] == m.matrix[1, 0] == 5e-10
        with pytest.raises(ValueError, match="not symmetric"):
            cls([[1e-3, 2e-8], [0.0, 1e-3]])

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
def potrf_shapes(monkeypatch):
    """Shapes of the matrices that core._potrf factors while the test runs:
    every factor a precision keeps, unless its fit computed it."""
    shapes = []
    original = core._potrf

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(core, "_potrf", counted)
    return shapes


def chain_fit_problem(graph):
    """The p=8 chain, a sample covariance of it, and the support to fit: the
    chain, fitted in closed form, or the 8-cycle, fitted by Newton steps."""
    theta = chain_precision(8)
    sigma_hat = empirical_covariance(sample(theta, 250, 7))
    support = edge_set_of(theta)
    if graph == "cycle":
        support = EdgeSet(8, [*support.edges, (0, 7)])
    return theta, sigma_hat, support


def chain_fit(graph, sigma_hat, support):
    fit = fit_graph_mle(sigma_hat, support, 10.0)
    assert fit.termination == ("closed_form" if graph == "chain" else "tolerance")
    return fit


class TestKeptFactor:
    def test_construction_factors_once(self, potrf_shapes):
        entries = random_sparse_precision(6, np.random.default_rng(1)).matrix
        potrf_shapes.clear()
        PrecisionMatrix(entries)
        assert potrf_shapes == [(6, 6)]

    def test_operations_on_a_precision_reuse_its_factor(self, potrf_shapes):
        rng = np.random.default_rng(2)
        theta1, theta2 = random_sparse_precision(5, rng), random_sparse_precision(5, rng)
        sigma_hat = empirical_covariance(sample(theta1, 50, 3))
        potrf_shapes.clear()
        kl_gaussian(theta1, theta2)
        factorize(theta1)
        invert(theta1)
        nll(theta2, sigma_hat)
        sample(theta2, 10, 4)
        assert potrf_shapes == []

    def test_kept_factor_is_read_only_and_shared(self):
        theta = random_sparse_precision(4, np.random.default_rng(5))
        fact = factorize(theta)
        assert fact.factor is factorize(theta).factor
        assert not fact.factor.flags.writeable
        with pytest.raises(ValueError):
            fact.factor[0, 0] = 1.0
        assert fact.factor.tobytes() == _potrf(np.array(theta.matrix)).tobytes()

    def test_every_layout_gets_the_factor_of_potrf_on_a_copy(self):
        # the factor is built in place in a C-ordered copy, whatever the
        # layout of the matrix or stack it is given
        stack = np.stack([random_sparse_precision(5, np.random.default_rng(k)).matrix for k in range(3)])
        expected = [_potrf(matrix).tobytes() for matrix in stack]
        assert PrecisionMatrix(np.asfortranarray(stack[0]))._factor.tobytes() == expected[0]
        for layout in (stack, np.asfortranarray(stack), stack.transpose(0, 2, 1)):
            assert [lower.tobytes() for lower in core._cholesky_lower(layout)] == expected

    @pytest.mark.parametrize("graph", ["chain", "cycle"])
    def test_fitted_precision_keeps_its_fits_factor(self, potrf_shapes, graph):
        # either way the factor kept is the one the fit's check computed
        theta, sigma_hat, support = chain_fit_problem(graph)
        potrf_shapes.clear()
        fit = chain_fit(graph, sigma_hat, support)
        assert all(shape[-2:] != (8, 8) for shape in potrf_shapes)
        lower = factorize(fit.theta_hat).factor
        assert not lower.flags.writeable
        assert np.array_equal(lower, np.tril(lower))
        recon = lower @ lower.T
        assert np.max(np.abs(recon - fit.theta_hat.matrix)) <= 1e-12 * np.max(np.abs(fit.theta_hat.matrix))
        potrf_shapes.clear()
        kl_gaussian(theta, fit.theta_hat)
        assert potrf_shapes == []

    @pytest.mark.parametrize("p, seed, graph, termination", [
        (12, 1, "complete", "closed_form"),
        (40, 2, "truth", "tolerance"),
    ])
    def test_a_fitted_precision_keeps_the_factor_its_matrix_would_get(self, p, seed, graph, termination):
        # one factor per precision: a fit's own potrf and the constructor's
        # give the same bytes, in two fits where np.linalg.cholesky of the
        # fitted matrix differs from dpotrf's in the last bit
        truth = random_sparse_precision(p, np.random.default_rng(p))
        sigma_hat = empirical_covariance(sample(truth, 3 * p, seed))
        fit = fit_graph_mle(sigma_hat, EdgeSet.complete(p) if graph == "complete" else edge_set_of(truth), math.inf)
        assert fit.termination == termination
        assert PrecisionMatrix(fit.theta_hat.matrix)._factor.tobytes() == fit.theta_hat._factor.tobytes()

    @pytest.mark.parametrize("graph", ["chain", "cycle"])
    def test_a_fitted_precision_computes_its_covariance_at_most_once(self, monkeypatch, graph):
        # a closed form (the chain) keeps no covariance until asked, then
        # gets one inverse of its kept factor; a Newton fit (the cycle)
        # keeps the covariance its fit computed
        inverses = []
        spd_inverse = core._spd_inverse

        def counting(lower):
            inverses.append(lower)
            return spd_inverse(lower)

        theta, sigma_hat, support = chain_fit_problem(graph)
        fit = chain_fit(graph, sigma_hat, support)
        assert (fit.theta_hat._covariance is None) == (graph == "chain")
        monkeypatch.setattr(core, "_spd_inverse", counting)
        gradient = nll_gradient(fit.theta_hat, sigma_hat)
        assert kl_gaussian(fit.theta_hat, theta) > 0.0
        assert [lower is fit.theta_hat._factor for lower in inverses] == ([True] if graph == "chain" else [])
        assert not fit.theta_hat._sigma.flags.writeable
        expected = spd_inverse(factorize(fit.theta_hat).factor)
        assert fit.theta_hat._sigma.tobytes() == expected.tobytes()
        assert gradient.tobytes() == (sigma_hat.matrix - expected).tobytes()

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

    def test_a_precision_returns_the_covariance_it_keeps(self):
        theta = random_sparse_precision(8, np.random.default_rng(5))
        fitted = fit_graph_mle(empirical_covariance(sample(theta, 4000, 6)), edge_set_of(theta), math.inf).theta_hat
        for m in (theta, fitted):
            assert invert(m).matrix.tobytes() == m._sigma.tobytes()

    def test_a_kl_after_invert_computes_no_second_inverse(self, monkeypatch):
        inverses = []
        spd_inverse = core._spd_inverse

        def counting(lower):
            inverses.append(lower.shape)
            return spd_inverse(lower)

        monkeypatch.setattr(core, "_spd_inverse", counting)
        theta = random_sparse_precision(8, np.random.default_rng(5))
        invert(theta)
        assert inverses == [(8, 8)]
        assert kl_gaussian(theta, project_remove_edge(theta, min(edge_set_of(theta)))) > 0.0
        assert inverses == [(8, 8)]

    def test_a_covariances_inverse_has_the_bits_of_spd_inverse_of_its_factor(self):
        sigma = empirical_covariance(sample(random_sparse_precision(8, np.random.default_rng(5)), 4000, 6))
        expected = core._spd_inverse(factorize(sigma).factor)
        assert invert(sigma).matrix.tobytes() == expected.tobytes()

    def test_only_core_touches_scipy(self):
        # by an import or by naming a scipy module to load: every LAPACK
        # call goes through core's boundary
        touched = {}
        for path in (Path(ggmsep.__file__).parent).glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                names = set()
                if isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = {f"{node.module}.{alias.name}" for alias in node.names}
                elif isinstance(node, ast.Import):
                    names = {alias.name for alias in node.names}
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names = {node.value}
                for name in names:
                    if re.fullmatch(r"scipy(\.\w+)*", name):
                        touched.setdefault(path.name, set()).add(name)
        assert touched == {"core.py": {"scipy", "scipy.linalg._flapack", "scipy.linalg.lapack"}}

    def test_only_spd_inverse_inverts(self):
        # no _potrs against an identity, and dtrtri, dpotri and
        # np.linalg.inv named nowhere but inside core._spd_inverse
        pattern = r"_potrs\(\.\.\., eye\)|(\w+\.)*(dtrtri|dpotri)|(np|numpy)\.linalg\.inv"
        assert names_outside("_spd_inverse", pattern) == []

    def test_numpys_cholesky_is_named_nowhere_and_its_solve_only_in_solve_each(self):
        # every factor the library keeps is core._potrf's; numpy's LU solve
        # serves the closed form's regressions alone, through one helper
        assert names_outside("_solve_each", r"(np|numpy)\.linalg\.(cholesky|solve)") == []
        assert names_outside("", r"(np|numpy)\.linalg\.cholesky") == []

    def test_only_edge_mask_reads_the_zero_tolerance(self):
        # one edge rule, |entry| > _ZERO_TOL; besides the mask, only the
        # constant's own definition names it
        definition = next(
            node.lineno for node in ast.parse(Path(core.__file__).read_text()).body
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_ZERO_TOL"
        )
        assert names_outside("_edge_mask", r"(\w+\.)*_ZERO_TOL") == [f"core.py:{definition}: _ZERO_TOL"]

    def test_only_serialization_dumps_calls_the_json_encoder(self):
        # every emitted document has one writer: its key order, indent and
        # float text
        assert names_outside("dumps", r"json\.dumps", module="serialization.py") == []


def names_outside(function, pattern, module="core.py"):
    """file:line: name for each name in src/ggmsep matching pattern outside
    <module>.<function>: dotted names, imports, string constants, and
    _potrs(..., eye) for a _potrs call against an identity."""
    found = []
    for path in sorted(Path(ggmsep.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) == (module, function):
                exempt = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            names = set()
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("_potrs"):
                args = [*node.args, *(k.value for k in node.keywords)]
                if any(isinstance(a, ast.Call) and ast.unparse(a.func) in ("np.eye", "numpy.eye") for a in args):
                    names = {"_potrs(..., eye)"}
            elif isinstance(node, (ast.Attribute, ast.Name)):
                names = {ast.unparse(node)}
            elif isinstance(node, ast.ImportFrom):
                names = {f"{node.module}.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = {node.value}
            for name in names:
                if re.fullmatch(pattern, name):
                    found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def run_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


class TestLapackLoader:
    def test_the_cli_imports_no_scipy_module(self):
        # import scipy.linalg was most of a cold start's import time; the
        # extension core loads is not left in sys.modules (see
        # tests/test_imports.py for what a later scipy.linalg then finds)
        code = "import sys, ggmsep.cli; print(*sorted(m for m in sys.modules if m.startswith('scipy')))"
        assert run_python(code) == []
        assert core.lapack.dpotrf is sys.modules["scipy.linalg._flapack"].dpotrf

    def test_a_missing_extension_file_falls_back_to_scipy_linalg_lapack_with_the_same_bytes(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.delitem(sys.modules, "scipy.linalg._flapack")
            patch.setattr(core.os.path, "isfile", lambda path: False)
            fallback = core._load_lapack()
        assert fallback is scipy.linalg.lapack
        rng = np.random.default_rng(21)
        for p in (3, 8, 33):
            theta, b = random_sparse_precision(p, rng).matrix, rng.standard_normal((p, 2))
            results = []
            for module in (core.lapack, fallback):
                with monkeypatch.context() as patch:
                    patch.setattr(core, "lapack", module)
                    lower = _potrf(theta)
                    results.append([lower.tobytes(), _potrs(lower, b).tobytes(),
                                    _trtrs(lower, b, lower=True, trans=True).tobytes()])
            assert results[0] == results[1]


class TestLapackBoundary:
    def test_potrf_gives_none_when_indefinite_and_a_zero_upper_triangle_otherwise(self):
        assert _potrf(np.array([[1.0, 2.0], [2.0, 1.0]])) is None
        theta = random_sparse_precision(6, np.random.default_rng(4))
        lower = _potrf(theta.matrix)
        assert np.array_equal(np.triu(lower, k=1), np.zeros((6, 6)))
        assert np.array_equal(np.tril(lower), lower)
        assert np.max(np.abs(lower @ lower.T - theta.matrix)) <= 1e-12 * np.max(np.abs(theta.matrix))

    def test_potrf_factors_a_fortran_ordered_matrix_in_place(self):
        buffer = np.asfortranarray(random_sparse_precision(5, np.random.default_rng(8)).matrix)
        expected = _potrf(buffer)
        lower = _potrf(buffer, overwrite_a=True)
        assert np.shares_memory(lower, buffer)
        assert np.array_equal(lower, expected)

    def test_trtrs_names_dtrtrs_on_a_zero_diagonal_entry(self):
        singular = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 4.0, 5.0]])
        with pytest.raises(np.linalg.LinAlgError, match="dtrtrs"):
            _trtrs(singular, np.ones(3), lower=True)
        with pytest.raises(np.linalg.LinAlgError, match="dtrtrs"):
            _trtrs(singular.T, np.ones(3), lower=False, trans=True)

    def test_trtrs_and_potrs_solve(self):
        theta = random_sparse_precision(7, np.random.default_rng(9))
        lower, b = factorize(theta).factor, np.arange(7.0)
        assert_allclose(lower @ _trtrs(lower, b, lower=True), b, rtol=1e-12, atol=1e-12)
        assert_allclose(lower.T @ _trtrs(lower.T, b, lower=False), b, rtol=1e-12, atol=1e-12)
        assert_allclose(lower.T @ _trtrs(lower, b, lower=True, trans=True), b, rtol=1e-12, atol=1e-12)
        assert_allclose(theta.matrix @ _potrs(lower, b), b, rtol=1e-12, atol=1e-12)

    def test_log_det_of_a_stack_has_the_bits_of_each_factor(self):
        rng = np.random.default_rng(12)
        for p in (2, 7, 40):
            members = [random_sparse_precision(p, rng) for _ in range(5)]
            stacked = _log_det(np.stack([factorize(m).factor for m in members]))
            assert stacked.shape == (5,)
            assert stacked.tolist() == [factorize(m).log_determinant for m in members]
            assert [float(_log_det(factorize(m).factor)) for m in members] == stacked.tolist()

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
        with pytest.raises(DimensionMismatch):
            b.is_subset_of(EdgeSet(4, [(1, 2)]))

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
        assert sorted(edge_set_of(theta)) == [(1, 2)]

    def test_the_edge_mask_of_a_stack_is_each_matrix_own(self):
        stack = np.stack([random_sparse_precision(6, np.random.default_rng(seed)).matrix for seed in range(4)])
        stack[1, 2, 4] = stack[1, 4, 2] = 1e-12
        masks = core._edge_mask(stack)
        assert masks.shape == (4, 15)
        rows, cols = core._upper_pairs(6)
        for arr, mask in zip(stack, masks):
            assert np.array_equal(core._edge_mask(arr), mask)
            assert EdgeSet(6, zip(rows[mask].tolist(), cols[mask].tolist())) == edge_set_of(PrecisionMatrix(arr))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 12))
    def test_roundtrip_from_edge_set(self, seed, p):
        rng = np.random.default_rng(seed)
        theta = random_sparse_precision(p, rng)
        edges = edge_set_of(theta)
        # rebuild a matrix supported on exactly these edges
        arr = np.zeros((p, p))
        for i, j in edges:
            arr[i, j] = arr[j, i] = 0.5
        arr[np.diag_indices(p)] = np.sum(np.abs(arr), axis=1) + 1.0
        assert edge_set_of(PrecisionMatrix(arr)) == edges


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
