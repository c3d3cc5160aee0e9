"""Sampling, model generators, and the three experiment drivers."""

import ast
import csv
import dataclasses
import inspect
import io
import math
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ggmsep import (
    CandidateCollection,
    CovarianceMatrix,
    ExperimentConfig,
    FitOptions,
    InvalidDiagonal,
    InvalidParameters,
    PrecisionMatrix,
    SampleMatrix,
    chain_precision,
    conditional_mutual_info,
    corrected_covariance,
    counterexample_precision,
    edge_set_of,
    empirical_covariance,
    fit_graph_mle,
    invert,
    omega_inf_lower_bound,
    one_edge_lower_bound,
    project_remove_edge,
    random_omega_inf_member,
    random_sparse_precision,
    run_counterexample_experiment,
    run_lower_bound_experiment,
    run_selection_experiment,
    sample,
    sample_covariance,
    select_graph,
    trial_seed,
)
from ggmsep import core, simulation
from ggmsep import selection as selection_module
from ggmsep.serialization import dumps
from ggmsep.simulation import ExperimentReport, _weakest_edges, run_experiment
from reference import in_omega_inf, lower_bound_trial_by_trial

HALF_LOG_2 = 0.5 * math.log(2.0)


def weakest_edge(theta):
    """_weakest_edges on a stack of one, as an (i, j) pair."""
    rows, cols = np.triu_indices(theta.p, k=1)
    edge = np.abs(theta.matrix[rows, cols]) > 1e-12
    k = _weakest_edges(theta.matrix[None], edge[None])[0]
    return (int(rows[k]), int(cols[k]))


class TestSample:
    def test_reproducible_bits(self):
        theta = counterexample_precision(2)
        a = sample(theta, 64, seed=99)
        b = sample(theta, 64, seed=99)
        assert np.array_equal(a.rows, b.rows)
        c = sample(theta, 64, seed=100)
        assert not np.array_equal(a.rows, c.rows)

    def test_bits_match_the_checked_triangular_solve(self):
        # sample calls dtrtrs itself; scipy's checking wrapper gave the same
        # bits, for a constructed precision's factor and a fitted one's
        theta = random_sparse_precision(8, np.random.default_rng(11))
        fitted = fit_graph_mle(empirical_covariance(sample(theta, 500, 12)), edge_set_of(theta), math.inf)
        for precision in (theta, fitted.theta_hat):
            z = np.random.default_rng(13).standard_normal((4000, 8))
            expected = scipy.linalg.solve_triangular(core.factorize(precision).factor, z.T, lower=True, trans="T").T
            assert sample(precision, 4000, 13).rows.tobytes() == expected.tobytes()

    def test_identity_moments(self):
        x = sample(PrecisionMatrix(np.eye(3)), 100_000, seed=42)
        emp = empirical_covariance(x).matrix
        assert np.max(np.abs(np.diag(emp) - 1.0)) < 0.05
        off = emp - np.diag(np.diag(emp))
        assert np.max(np.abs(off)) < 0.05

    def test_matches_analytic_covariance(self):
        theta = counterexample_precision(2)
        n = 100_000
        x = sample(theta, n, seed=7)
        emp = empirical_covariance(x).matrix
        analytic = invert(theta).matrix
        # convergence at rate 4 * sqrt(max variance) / sqrt(n)
        rate = 4.0 * math.sqrt(np.max(np.diag(analytic))) / math.sqrt(n)
        assert np.max(np.abs(emp - analytic)) < rate

    def test_invalid_n(self):
        with pytest.raises(InvalidParameters):
            sample(PrecisionMatrix(np.eye(2)), 0, seed=1)

    @pytest.mark.parametrize("draw", [sample, sample_covariance])
    @pytest.mark.parametrize("theta", [invert(chain_precision(3)), chain_precision(3).matrix, None])
    def test_theta_must_be_a_precision(self, draw, theta):
        # a covariance was drawn from as a precision: sample(invert(chain), ...)
        # had the chain's precision as its covariance
        with pytest.raises(InvalidParameters, match="theta must be a PrecisionMatrix"):
            draw(theta, 10, 1)

    def test_shape(self):
        x = sample(PrecisionMatrix(np.eye(4)), 17, seed=3)
        assert (x.n, x.p) == (17, 4)
        assert x.rows.shape == (17, 4)

    @pytest.mark.parametrize("shape, message", [
        ((3,), "2-D"), ((2, 3, 3), "2-D"), ((0, 3), "n >= 1"), ((3, 1), "p >= 2"),
    ])
    def test_sample_matrix_rejects_rows_of_another_shape(self, shape, message):
        with pytest.raises(ValueError, match=message):
            SampleMatrix(np.ones(shape))


class TestSampleCovariance:
    """sample_covariance draws n * estimate from Wishart_p(n, inv(theta))."""

    THETA = random_sparse_precision(6, np.random.default_rng(5))

    @pytest.mark.parametrize("n", [3, 6, 40])
    def test_moments_match_the_wishart_law(self, n):
        draws, p = 4000, self.THETA.p
        theta, sigma = self.THETA.matrix, invert(self.THETA).matrix
        hats = np.stack([sample_covariance(self.THETA, n, seed).matrix for seed in range(draws)])
        # n tr(theta sigma_hat) = tr(R^T R) is exactly chi-square with n p degrees of freedom
        k = n * p
        stat = n * np.einsum("ij,tji->t", theta, hats)
        assert abs(stat.mean() - k) < 4 * math.sqrt(2 * k / draws)
        # the sample variance of a chi2_k has variance about (8 k^2 + 48 k) / draws
        assert abs(stat.var(ddof=1) - 2 * k) < 4 * math.sqrt((8 * k * k + 48 * k) / draws)
        # each entry has mean sigma_ij and variance (sigma_ij^2 + sigma_ii sigma_jj) / n
        spread = np.sqrt((sigma ** 2 + np.outer(np.diag(sigma), np.diag(sigma))) / (n * draws))
        assert np.all(np.abs(hats.mean(axis=0) - sigma) < 4 * spread)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_fewer_draws_than_dimensions_give_a_psd_estimate_of_rank_n(self, n):
        hat = sample_covariance(self.THETA, n, seed=7).matrix
        eigenvalues = np.linalg.eigvalsh(hat)
        assert eigenvalues.min() > -1e-12 * eigenvalues.max()
        assert np.linalg.matrix_rank(hat) == n


class TestEmpiricalCovariance:
    def test_single_observation_outer_product(self):
        row = np.array([[1.0, -2.0, 0.5]])
        emp = empirical_covariance(SampleMatrix(row))
        assert_allclose(emp.matrix, np.outer(row[0], row[0]), rtol=1e-15)

    def test_orthogonal_rows_give_diagonal(self):
        rows = np.array([[2.0, 0.0], [0.0, 3.0]])
        emp = empirical_covariance(SampleMatrix(rows))
        assert_allclose(emp.matrix, np.diag([2.0, 4.5]), rtol=1e-15)

    def test_rejects_non_finite_rows(self):
        with pytest.raises(ValueError):
            SampleMatrix(np.array([[1.0, math.inf]]))


class TestCorrectedCovariance:
    def test_noop_when_diagonal_matches(self):
        sigma = CovarianceMatrix([[1.1, 0.2], [0.2, 0.9]])
        out = corrected_covariance(sigma, np.diag(sigma.matrix))
        assert np.array_equal(out.matrix, sigma.matrix)

    def test_overwrites_diagonal_only(self):
        sigma = CovarianceMatrix([[1.1, 0.2], [0.2, 0.9]])
        out = corrected_covariance(sigma, [1.0, 1.0])
        assert_allclose(np.diag(out.matrix), [1.0, 1.0], rtol=0)
        assert out.matrix[0, 1] == sigma.matrix[0, 1]

    def test_invalid_diagonal(self):
        sigma = CovarianceMatrix(np.eye(2))
        with pytest.raises(InvalidDiagonal):
            corrected_covariance(sigma, [1.0])
        with pytest.raises(InvalidDiagonal):
            corrected_covariance(sigma, [1.0, -1.0])


def assert_adopted(built, cls):
    """built is a cls over read-only entries with the bits that the public
    constructor gives them (so exactly symmetric), and a precision keeps the
    factor that the constructor computes."""
    public = cls(built.matrix)
    assert type(built) is cls and not built.matrix.flags.writeable
    assert built.matrix.tobytes() == public.matrix.tobytes()
    if cls is PrecisionMatrix:
        assert not built._factor.flags.writeable
        assert built._factor.tobytes() == public._factor.tobytes()


class TestAdoptedMatrices:
    """Every matrix the library builds is adopted as it is (_validated)."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.one_of(st.integers(2, 10), st.just(100)),
        n=st.integers(1, 150),
        log_scale=st.floats(-20.0, 20.0),
        coupling=st.floats(-1.0, 1.0),
        ratio=st.floats(0.05, 0.95),
        extremal=st.booleans(),
    )
    @example(seed=1, p=100, n=30, log_scale=0.0, coupling=1.0, ratio=0.5, extremal=False)
    def test_every_builder_gives_the_public_constructors_bits(self, seed, p, n, log_scale, coupling, ratio, extremal):
        rng = np.random.default_rng(seed)
        h = float(rng.uniform(1.0, 3.0))
        precisions = [
            random_sparse_precision(p, rng),
            random_omega_inf_member(p, ratio * h, h, rng, extremal=extremal),
            chain_precision(p, 2.0 + rng.uniform(), coupling),
            counterexample_precision(p - 1),
        ]
        theta = PrecisionMatrix(precisions[0].matrix * 10.0**log_scale)
        sigma_hat = sample_covariance(theta, n, seed)
        covariances = [
            sigma_hat,
            empirical_covariance(sample(theta, n, seed)),
            corrected_covariance(sigma_hat, np.diag(invert(theta).matrix)),
            invert(theta),
        ]
        precisions.append(invert(covariances[-1]))
        for built in precisions:
            assert_adopted(built, PrecisionMatrix)
        for built in covariances:
            assert_adopted(built, CovarianceMatrix)

    @pytest.mark.parametrize("build", [
        lambda theta: sample_covariance(theta, 1000, 1),
        lambda theta: empirical_covariance(sample(theta, 1000, 1)),
        invert,
    ], ids=["sample_covariance", "empirical_covariance", "invert"])
    def test_an_overflowing_result_is_still_rejected(self, build):
        # the covariance of a precision with 1e-310 on its diagonal is ~1e310
        theta = PrecisionMatrix(1e-310 * np.eye(3))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="covariance matrix has non-finite"):
            build(theta)


class TestCounterexamplePrecision:
    def test_d_one(self):
        assert_allclose(counterexample_precision(1).matrix, [[2.0, -1.0], [-1.0, 1.0]], rtol=0)

    def test_d_two(self):
        expected = [[2.0, 1.0, -1.0], [1.0, 2.0, -1.0], [-1.0, -1.0, 1.0]]
        assert_allclose(counterexample_precision(2).matrix, expected, rtol=0)

    def test_construction_moments(self):
        # X_{d+1} = sum of the X_i plus independent noise: Var = d + 1 and
        # Cov(X_i, X_{d+1}) = 1
        for d in (1, 3, 6):
            sigma = invert(counterexample_precision(d)).matrix
            assert_allclose(sigma[-1, -1], d + 1.0, atol=1e-10)
            assert_allclose(sigma[:-1, -1], np.ones(d), atol=1e-10)
            assert_allclose(sigma[:-1, :-1], np.eye(d), atol=1e-10)

    def test_invalid_d(self):
        with pytest.raises(InvalidParameters):
            counterexample_precision(0)


# Each public size argument, called with a given value: the sizes were
# truncated by int() before (p=3.7 built p=3, n=True drew one row).
SIZED_CALLS = {
    "sample_n": lambda v: sample(PrecisionMatrix(np.eye(3)), v, 1).n,
    # the estimate of n < p draws has rank n
    "sample_covariance_n": lambda v: int(np.linalg.matrix_rank(sample_covariance(PrecisionMatrix(np.eye(5)), v, 1).matrix)),
    "chain_precision_p": lambda v: chain_precision(v).p,
    "counterexample_precision_d": lambda v: counterexample_precision(v).p - 1,
    "random_sparse_precision_p": lambda v: random_sparse_precision(v, np.random.default_rng(0)).p,
    "random_omega_inf_member_p": lambda v: random_omega_inf_member(v, 0.5, 1.0, np.random.default_rng(0)).p,
}


@pytest.mark.parametrize("name", sorted(SIZED_CALLS))
def test_sizes_take_integers_only(name):
    call = SIZED_CALLS[name]
    for bad in (2.5, 3.7, 3.0, True, np.float64(3.0), 0, "3"):
        with pytest.raises(InvalidParameters):
            call(bad)
    assert call(3) == 3
    assert call(np.int64(3)) == 3
    assert call(np.int32(4)) == 4


# Each seed and index argument, called with a given value; the result is
# the bytes it drew, the same for the same seed and other for another. Non-integers were truncated by int() before (seed 1.5
# drew seed 1's bits, and True and "7" were taken), and a negative value
# raised numpy's ValueError.
SEEDED_CALLS = {
    "sample_seed": lambda v: sample(PrecisionMatrix(np.eye(3)), 4, v).rows.tobytes(),
    "sample_covariance_seed": lambda v: sample_covariance(PrecisionMatrix(np.eye(3)), 4, v).matrix.tobytes(),
    "trial_seed_base_seed": lambda v: trial_seed(v, 0, 0),
    "trial_seed_grid_index": lambda v: trial_seed(0, v, 0),
    "trial_seed_trial_index": lambda v: trial_seed(0, 0, v),
}


@pytest.mark.parametrize("name", sorted(SEEDED_CALLS))
def test_seeds_take_integers_at_least_zero_only(name):
    call = SEEDED_CALLS[name]
    for bad in (1.5, 1.0, True, np.float64(1.0), "7", -1, np.int64(-1)):
        with pytest.raises(InvalidParameters):
            call(bad)
    assert call(np.int64(7)) == call(7) != call(0)
    call(2**64 - 1)


class TestGenerators:
    def test_chain_precision_structure(self):
        theta = chain_precision(6)
        edges = sorted(edge_set_of(theta))
        assert edges == [(i, i + 1) for i in range(5)]

    def test_random_sparse_precision_is_pd_with_edges(self):
        for seed in range(25):
            theta = random_sparse_precision(int(3 + seed % 8), np.random.default_rng(seed))
            assert len(edge_set_of(theta)) >= 1

    def test_omega_inf_member_in_class(self):
        rng = np.random.default_rng(12)
        for alpha, h in ((0.3, 1.0), (0.9, 1.0), (1.5, 2.0), (2.8, 3.0)):
            for _ in range(10):
                theta = random_omega_inf_member(6, alpha, h, rng)
                assert in_omega_inf(theta, alpha, h)

    @pytest.mark.parametrize("alpha, h", [(1.0, 1.0), (1.5, 1.0)])
    def test_omega_inf_member_rejects_alpha_not_below_h(self, alpha, h):
        with pytest.raises(InvalidParameters, match="alpha < h"):
            random_omega_inf_member(4, alpha, h, np.random.default_rng(0))

    @pytest.mark.parametrize("h", [math.inf, math.nan])
    def test_omega_inf_member_rejects_an_h_that_is_not_finite(self, h):
        # an infinite h raised OverflowError from the degree cap's int()
        with pytest.raises(InvalidParameters, match="finite h"):
            random_omega_inf_member(5, 0.5, h, np.random.default_rng(0))

    def test_omega_inf_member_with_no_room_keeps_one_edge(self):
        # a coupling of 0.99 against h = 1 fails the row-sum guard, so the
        # member falls back to one edge of magnitude alpha
        theta = random_omega_inf_member(2, 0.99, 1.0, np.random.default_rng(0))
        assert in_omega_inf(theta, 0.99, 1.0) and abs(theta.matrix[0, 1]) == 0.99
        assert np.all(np.linalg.eigvalsh(theta.matrix) > 0)

    def test_extremal_member_attains_class_bound(self):
        rng = np.random.default_rng(13)
        theta = random_omega_inf_member(5, 0.8, 2.0, rng, extremal=True)
        assert in_omega_inf(theta, 0.8, 2.0)
        assert abs(one_edge_lower_bound(theta) - omega_inf_lower_bound(0.8, 2.0)) < 1e-12

    def test_trial_seed_mixing(self):
        seeds = {trial_seed(1, g, t) for g in range(4) for t in range(50)}
        assert len(seeds) == 200
        assert trial_seed(1, 2, 3) == trial_seed(1, 2, 3)
        assert trial_seed(1, 2, 3) != trial_seed(2, 2, 3)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameters):
            ExperimentConfig(trials=0)
        with pytest.raises(InvalidParameters):
            ExperimentConfig(dimensions=())
        with pytest.raises(InvalidParameters):
            ExperimentConfig(sample_sizes=(0,))
        with pytest.raises(InvalidParameters):
            ExperimentConfig(gamma=-1.0)
        # non-integers were truncated (p=3.7 ran p=3), echoed unchanged
        # (base_seed=1.9 seeded as 1) or failed mid-run (trials=2.5); a grid
        # that is not a sequence (dimensions=5) raised TypeError
        for bad in (
            {"dimensions": (3.7,)},
            {"base_seed": 1.9},
            {"trials": 2.5},
            {"sample_sizes": (250.0,)},
            {"trials": True},
            {"dimensions": (3, False)},
            {"base_seed": "1"},
            {"dimensions": 5},
            {"sample_sizes": None},
            {"dimensions": np.array(5)},
        ):
            with pytest.raises(InvalidParameters):
                ExperimentConfig(**bad)
        cfg = ExperimentConfig(base_seed=np.int64(3), trials=np.int32(2), dimensions=(np.int64(3),),
                               sample_sizes=np.array([50, 60]))
        assert cfg.dimensions == (3,) and cfg.sample_sizes == (50, 60)
        assert run_lower_bound_experiment(cfg).to_json() == run_lower_bound_experiment(
            ExperimentConfig(base_seed=3, trials=2, dimensions=(3,), sample_sizes=(50, 60))
        ).to_json()

    @pytest.mark.parametrize("bad", [
        {"use_true_diagonal": "yes"},
        {"include_population": 1},
        {"gamma": "x"},
        {"perturbation_scale": "0.25"},
        {"chain_diagonal": True},
        {"chain_coupling": None},
        {"base_seed": 1.5},
        {"trials": "3"},
        {"dimensions": [3, 4.0]},
        {"dimensions": "35"},
        {"sample_sizes": 250},
        {"sample_sizes": [250, True]},
    ])
    def test_flags_take_bools_and_reals_take_numbers(self, bad):
        # every field of the wrong type, in the constructor, the JSON parser
        # and the config entry point alike: construction is the one check,
        # and its message names the field. Of the first six, direct
        # construction accepted all but gamma and perturbation_scale, which
        # raised TypeError; from_dict raised ValueError for every case
        (name,) = bad
        with pytest.raises(InvalidParameters, match=name):
            ExperimentConfig(**bad)
        with pytest.raises(InvalidParameters, match=name):
            ExperimentConfig.from_dict(bad)
        with pytest.raises(ValueError, match=f"invalid lower-bound config value: {name}"):
            run_experiment("lower-bound", bad)

    @pytest.mark.parametrize("fit", [{"max_iterations": 5}, None, FitOptions])
    def test_fit_takes_fit_options_only(self, fit):
        # a dict constructed and then failed mid-run with AttributeError
        with pytest.raises(InvalidParameters, match="fit takes a FitOptions"):
            ExperimentConfig(fit=fit)

    def test_reals_accept_integers_and_numpy_floats(self):
        cfg = ExperimentConfig(gamma=10, perturbation_scale=np.float64(0.5), chain_diagonal=3, chain_coupling=-1)
        assert cfg.gamma == 10 and cfg.perturbation_scale == 0.5
        assert ExperimentConfig(gamma=math.inf).gamma == math.inf

    @settings(max_examples=50, deadline=None)
    @given(
        base_seed=st.integers(0, 2**64), trials=st.integers(1, 10**6),
        dimensions=st.lists(st.integers(2, 50), min_size=1, max_size=4),
        sample_sizes=st.lists(st.integers(1, 10**5), min_size=1, max_size=4).map(np.array),
        gamma=st.floats(1e-3, math.inf), use_true_diagonal=st.booleans(),
        max_iterations=st.integers(1, 10**4),
    )
    def test_to_dict_is_dataclasses_asdict(self, dimensions, max_iterations, **kwargs):
        fit = FitOptions(max_iterations=max_iterations)
        cfg = ExperimentConfig(dimensions=dimensions, fit=fit, **kwargs)
        doc = cfg.to_dict()
        assert doc == dataclasses.asdict(cfg)
        assert list(doc) == list(dataclasses.asdict(cfg))
        assert type(doc["dimensions"]) is tuple and type(doc["sample_sizes"]) is tuple
        # a fresh dict at both levels: editing the echo leaves the config alone
        doc["fit"]["max_iterations"] = -1
        assert cfg.fit.max_iterations == max_iterations and cfg.to_dict()["fit"] is not doc["fit"]

    def test_from_dict_roundtrip(self):
        cfg = ExperimentConfig(base_seed=7, trials=3, dimensions=(4,), sample_sizes=(50, 100))
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"trails": 5})
        with pytest.raises(ValueError, match="unknown fit keys"):
            ExperimentConfig.from_dict({"fit": {"bogus": 1}})
        with pytest.raises(ValueError, match="fit must be an object"):
            ExperimentConfig.from_dict({"fit": 5})

    def test_from_dict_parses_nested_fit(self):
        cfg = ExperimentConfig.from_dict({"fit": {"max_iterations": 99}})
        assert cfg.fit == FitOptions(max_iterations=99)


class TestCounterexampleExperiment:
    def test_flat_profile(self):
        report = run_counterexample_experiment(range(1, 5))
        assert len(report.records) == 4
        for record in report.records:
            assert record["within_tolerance"]
            assert record["bound_le_kl"]
            assert abs(record["kl"] - HALF_LOG_2) < 1e-8
        assert report.extras["all_within_tolerance"]
        assert report.extras["max_kl_deviation"] < 1e-8

    def test_bound_values(self):
        report = run_counterexample_experiment([1, 2, 3])
        by_d = {r["d"]: r["bound"] for r in report.records}
        assert_allclose(by_d[2], 0.5 * math.log(4.0 / 3.0), atol=1e-14)
        assert_allclose(by_d[3], 0.5 * math.log(4.0 / 3.0), atol=1e-14)
        # the two-vertex member's only edge has entries (2, 1, -1), so its
        # one-edge bound is log(2)/2 rather than log(4/3)/2
        assert_allclose(by_d[1], HALF_LOG_2, atol=1e-14)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameters):
            run_counterexample_experiment([])
        with pytest.raises(InvalidParameters):
            run_counterexample_experiment([0])
        for value in (1.5, True, "2"):
            with pytest.raises(InvalidParameters, match=r"d_values\[1\]"):
                run_counterexample_experiment([1, value])
        assert run_counterexample_experiment(np.arange(1, 3)).config == {"d_values": [1, 2]}


class TestLowerBoundExperiment:
    def test_small_run(self):
        cfg = ExperimentConfig(base_seed=5, trials=12, dimensions=(3, 5))
        report = run_lower_bound_experiment(cfg)
        assert len(report.records) == 24
        assert report.extras["min_slack"] >= -1e-9
        assert report.extras["max_tight_slack"] < 1e-8
        methods = {r["method"] for r in report.records}
        assert len(methods) == 4
        assert all(r["class_slack"] >= -1e-9 for r in report.records)

    def test_one_instance_scans_edges_once_and_runs_no_scipy_solve_wrapper(self, monkeypatch):
        # counts instead of timing: at most one edge scan per grid value, and
        # surgery, KL and CMI call LAPACK directly
        calls = []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        originals = {
            "edge_set_of": core.edge_set_of,
            "cho_solve": scipy.linalg.cho_solve,
            "solve_triangular": scipy.linalg.solve_triangular,
        }
        for name, original in originals.items():
            wrapper = counting(name, original)
            for module_name, module in list(sys.modules.items()):
                if module is not None and (module_name.startswith("ggmsep") or module_name == "scipy.linalg"):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, key, wrapper)

        report = run_lower_bound_experiment(ExperimentConfig(base_seed=3, trials=4, dimensions=(7, 5)))
        assert len({r["method"] for r in report.records}) == 4
        # the trials of one p share one edge scan, which needs no EdgeSet
        assert set(calls) <= {"edge_set_of"} and len(calls) <= 2

    @settings(max_examples=100, deadline=None)
    @given(p=st.integers(2, 10), seed=st.integers(0, 2**32 - 1), tied=st.booleans())
    def test_weakest_edge_is_the_first_minimum_of_conditional_mutual_info(self, p, seed, tied):
        rng = np.random.default_rng(seed)
        theta = random_sparse_precision(p, rng)
        if tied:
            # couplings of two magnitudes, and diagonals one ulp apart, so the
            # informations tie exactly or round to a tie
            rows, cols = np.triu_indices(p, k=1)
            on = rng.random(rows.size) < 0.6
            on[0] = True
            arr = np.zeros((p, p))
            arr[rows[on], cols[on]] = rng.choice([-0.5, -0.25, 0.25, 0.5], size=int(on.sum()))
            arr += arr.T
            base = 0.5 * p + 1.0
            arr[np.diag_indices(p)] = rng.choice([base, np.nextafter(base, math.inf)], size=p)
            theta = PrecisionMatrix(arr)
        edges = sorted(edge_set_of(theta))
        expected = min(edges, key=lambda e: conditional_mutual_info(theta, *e))
        assert weakest_edge(theta) == expected

    @pytest.mark.parametrize("coupling", [0.648062, 0.666969])
    def test_weakest_edge_keeps_a_tie_that_rounding_makes(self, coupling):
        # (0, 1) has the larger ratio t_ij^2 / (t_ii t_jj), by one ulp, but
        # both informations round to the same double, so (0, 1) comes first
        down = float(np.nextafter(1.0, 0.0))
        theta = PrecisionMatrix(
            [[1.0, coupling, 0, 0], [coupling, down, 0, 0], [0, 0, 1.0, coupling], [0, 0, coupling, 1.0]]
        )
        assert conditional_mutual_info(theta, 0, 1) == conditional_mutual_info(theta, 2, 3)
        arr = theta.matrix
        assert arr[0, 1] ** 2 / (arr[0, 0] * arr[1, 1]) > arr[2, 3] ** 2 / (arr[2, 2] * arr[3, 3])
        assert weakest_edge(theta) == (0, 1)

    @pytest.mark.parametrize("dimensions, trials, scale", [
        ((2,), 13, 0.25),                 # no rest block
        (tuple(range(3, 11)), 13, 0.25),  # a trial count that is not a multiple of 4
        ((12, 40), 9, 0.25),              # at p=40 the KL trace takes two blocks
        (tuple(range(3, 11)), 13, 20.0),  # candidates that fail to factor and halve their step
        ((3, 6), 9, 1e20),                # candidates that never factor: the projection is kept
    ])
    def test_stacked_trials_keep_the_bits_of_one_trial_at_a_time(self, dimensions, trials, scale):
        cfg = ExperimentConfig(base_seed=4242, trials=trials, dimensions=dimensions, perturbation_scale=scale)
        expected, halvings = lower_bound_trial_by_trial(cfg)
        report = run_lower_bound_experiment(cfg)
        assert report.to_json().encode() == expected.to_json().encode()
        assert report.to_csv().encode() == expected.to_csv().encode()
        perturbed = sum(r["method"] == "perturbed_reprojection" for r in report.records)
        if scale == 1e20:
            assert halvings == 60 * perturbed
        else:
            assert (halvings > 0) == (scale > 1.0)

    def test_each_perturbed_candidate_is_factored_once_and_never_projected(self, monkeypatch):
        cfg = ExperimentConfig(base_seed=4242, trials=13, dimensions=(3, 6), perturbation_scale=20.0)
        _, halvings = lower_bound_trial_by_trial(cfg)
        calls = {"_potrf": 0, "_sever": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(simulation, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(simulation, name, counted)
        report = run_lower_bound_experiment(cfg)
        perturbed = sum(r["method"] == "perturbed_reprojection" for r in report.records)
        assert halvings > 0
        # one stacked projection per p; one factor per candidate tried
        assert calls == {"_potrf": perturbed + halvings, "_sever": 2}

    def test_perturbed_candidates_keep_the_factor_precision_matrix_computes(self):
        rng = np.random.default_rng(8)
        base = np.stack([project_remove_edge(random_sparse_precision(6, rng), (0, 1)).matrix for _ in range(5)])
        noise = rng.standard_normal((5, 6, 6))
        noise = 0.5 * (noise + noise.swapaxes(-1, -2))
        noise[:, 0, 1] = noise[:, 1, 0] = 0.0
        done, candidates, factors = simulation._perturbed_candidates(base, noise, 20.0)
        assert done.size == 5
        for candidate, factor in zip(candidates, factors, strict=True):
            assert candidate[0, 1] == 0.0
            theta = PrecisionMatrix(candidate)
            assert np.array_equal(theta.matrix, candidate)
            assert np.array_equal(theta._factor, factor)

    def test_byte_identical_reruns(self):
        cfg = ExperimentConfig(base_seed=9, trials=8, dimensions=(4,))
        first = run_lower_bound_experiment(cfg)
        second = run_lower_bound_experiment(cfg)
        assert first.to_json() == second.to_json()
        assert first.to_csv() == second.to_csv()


class TestSelectionExperiment:
    def _config(self, **overrides):
        settings = dict(
            base_seed=3,
            trials=6,
            dimensions=(4,),
            sample_sizes=(60, 240),
            gamma=8.0,
            fit=FitOptions(max_iterations=2000),
        )
        settings.update(overrides)
        return ExperimentConfig(**settings)

    def test_small_run(self):
        report = run_selection_experiment(self._config())
        assert len(report.records) == 12
        assert len(report.aggregates) == 2
        for row in report.aggregates:
            assert 0.0 <= row["ci_low"] <= row["success_rate"] <= row["ci_high"] <= 1.0
            assert row["p"] == 4 and row["s"] == 3
        population = report.extras["population"]
        assert population["success"]
        assert population["min_gap"] >= math.log(report.extras["separation_constant"]) - 1e-6

    def test_unconverged_fits_are_counted(self, monkeypatch):
        real_fits = selection_module._fit_graphs

        def stalling_fits(sigma_hat, graphs, gamma, opts=FitOptions()):
            return [
                dataclasses.replace(r, converged=False, termination="stalled") if len(g) == 0 else r
                for g, r in zip(graphs, real_fits(sigma_hat, graphs, gamma, opts))
            ]

        # the p=2 chain has one rival, the empty graph, and only its fits stall
        monkeypatch.setattr(selection_module, "_fit_graphs", stalling_fits)
        report = run_selection_experiment(self._config(dimensions=(2,)))
        assert report.extras["unconverged_fits"] == 2 * 6 + 1
        assert run_selection_experiment(self._config()).extras["unconverged_fits"] == 0

    def test_corrected_covariance_not_worse_than_plain(self):
        plain = run_selection_experiment(self._config(sample_sizes=(60,)))
        corrected = run_selection_experiment(self._config(use_true_diagonal=True, sample_sizes=(60,)))
        assert len(corrected.records) == 6
        # exact variances can only help, up to Monte-Carlo noise
        assert (
            corrected.aggregates[0]["success_rate"]
            >= plain.aggregates[0]["success_rate"] - 0.35
        )

    def test_byte_identical_reruns(self):
        cfg = self._config(sample_sizes=(80,), include_population=False)
        assert run_selection_experiment(cfg).to_json() == run_selection_experiment(cfg).to_json()

    def test_gamma_must_admit_truth(self):
        with pytest.raises(InvalidParameters):
            run_selection_experiment(self._config(gamma=1.0))

    def test_chain_must_be_positive_definite(self):
        # raised NotPositiveDefinite, naming no key
        with pytest.raises(InvalidParameters, match="chain_coupling"):
            run_selection_experiment(self._config(chain_coupling=1.5))

    @pytest.mark.parametrize("coupling", [0.0, 1e-12, -1e-12])
    def test_chain_must_have_an_edge(self, coupling):
        # raised ValueError: min() arg is an empty sequence, naming no key
        with pytest.raises(InvalidParameters, match="chain_coupling"):
            run_selection_experiment(self._config(chain_coupling=coupling))

    def test_a_records_estimate_is_rebuilt_from_its_seed(self):
        # criterion 8's config: every record is select_graph on
        # sample_covariance(truth, n, record["seed"]), bit for bit
        cfg = ExperimentConfig(
            base_seed=17, trials=4, dimensions=(4,), sample_sizes=(80, 160), gamma=8.0,
        )
        truth = chain_precision(4)
        graph = edge_set_of(truth)
        collection = CandidateCollection((graph, *(graph.without(edge) for edge in sorted(graph))))
        report = run_selection_experiment(cfg)
        assert len(report.records) == 8
        for record in report.records:
            result = select_graph(collection, sample_covariance(truth, record["n"], record["seed"]), cfg.gamma, cfg.fit)
            assert result.selected_index == record["selected_index"]
            assert (min(result.scores[1:]) - result.scores[0]).hex() == record["score_margin"].hex()

    def test_the_driver_draws_no_sample_rows(self):
        # the O(n p) route of sample rows and their empirical covariance
        # must not come back into the selection driver
        tree = ast.parse(inspect.getsource(simulation.run_selection_experiment))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "sample_covariance" in names
        assert not {"sample", "empirical_covariance"} & names


class TestGridSkeleton:
    """What the lower-bound and selection drivers share: seeding, record
    order, one progress line per grid point, and the CSV columns."""

    CONFIG = ExperimentConfig(base_seed=41, trials=3, dimensions=(4, 3), sample_sizes=(40, 80), gamma=8.0)

    @pytest.mark.parametrize("driver, key, grid", [
        (run_lower_bound_experiment, "p", CONFIG.dimensions),
        (run_selection_experiment, "n", CONFIG.sample_sizes),
    ])
    def test_records_are_seeded_per_grid_index_and_trial(self, driver, key, grid):
        report = driver(self.CONFIG)
        expected = [(value, t, trial_seed(41, g, t)) for g, value in enumerate(grid) for t in range(3)]
        assert [(r[key], r["trial"], r["seed"]) for r in report.records] == expected
        assert [row[key] for row in report.aggregates] == list(grid)

    def test_progress_once_per_grid_point(self):
        lines = []
        run_lower_bound_experiment(self.CONFIG, progress=lines.append)
        assert lines == ["lower-bound: p=4 done (3 trials)", "lower-bound: p=3 done (3 trials)"]
        lines.clear()
        report = run_selection_experiment(self.CONFIG, progress=lines.append)
        successes = [sum(r["success"] for r in report.records if r["n"] == n) for n in (40, 80)]
        assert lines == [f"selection: n={n} done ({k}/3 successes)" for n, k in zip((40, 80), successes)]

    def test_csv_headers(self):
        headers = {
            "counterexample": "d,kl,bound,kl_deviation,within_tolerance,bound_le_kl",
            "lower-bound": "p,trials,min_slack,mean_kl,min_class_slack,max_class_bound",
            "selection": "n,p,s,success_rate,ci_low,ci_high,mean_gap",
        }
        reports = (
            run_counterexample_experiment([1, 2]),
            run_lower_bound_experiment(self.CONFIG),
            run_selection_experiment(self.CONFIG),
        )
        for report in reports:
            lines = report.to_csv().splitlines()
            assert lines[0] == headers[report.kind]
            assert len(lines) == 1 + len(report.aggregates)


def _per_cell_csv(aggregates):
    # the CSV as it was written before: one dumps call per cell
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(aggregates[0])
    writer.writerows([dumps(value) for value in row.values()] for row in aggregates)
    return buffer.getvalue()


_floats = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, 1e16, math.inf, -math.inf, math.nan]),
)
_cells = st.one_of(
    st.integers(), st.booleans(), st.none(), _floats,
    st.floats(allow_subnormal=True).map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.text(), st.text(st.sampled_from([",", '"', "\n", "\r", "\\", " ", "a", "é", "λ", "\u2028", "🙂"])),
)


class TestReportFiles:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda width: st.lists(
        st.lists(_cells, min_size=width, max_size=width), min_size=1, max_size=4)))
    def test_csv_is_the_per_cell_encoding(self, rows):
        aggregates = tuple({f"c{k}": value for k, value in enumerate(row)} for row in rows)
        report = ExperimentReport("k", {}, (), aggregates, {})
        assert report.to_csv() == _per_cell_csv(aggregates)

    @pytest.mark.parametrize("container", [[], [1.0, 2.0], {}, {"a": 1}, (3,)])
    def test_a_container_cell_names_its_column(self, container):
        report = ExperimentReport("k", {}, (), ({"n": 1, "gaps": container},), {})
        with pytest.raises(TypeError, match="'gaps'"):
            report.to_csv()

    def test_write_and_reparse(self, tmp_path):
        import json

        report = run_counterexample_experiment([1, 2])
        json_path, csv_path = report.write(tmp_path)
        assert json_path.exists() and csv_path.exists()
        parsed = json.loads(json_path.read_text())
        assert parsed["kind"] == "counterexample"
        assert len(parsed["records"]) == 2
        header = csv_path.read_text().splitlines()[0]
        assert header.split(",")[:3] == ["d", "kl", "bound"]

    def test_written_bytes_deterministic(self, tmp_path):
        cfg = ExperimentConfig(base_seed=11, trials=4, dimensions=(3,))
        first = run_lower_bound_experiment(cfg).write(tmp_path / "a")
        second = run_lower_bound_experiment(cfg).write(tmp_path / "b")
        assert first[0].read_bytes() == second[0].read_bytes()
        assert first[1].read_bytes() == second[1].read_bytes()

    def test_rewriting_a_longer_report_leaves_exactly_the_new_bytes(self, tmp_path):
        longer = run_lower_bound_experiment(ExperimentConfig(base_seed=11, trials=8, dimensions=(3, 4)))
        shorter = run_lower_bound_experiment(ExperimentConfig(base_seed=11, trials=4, dimensions=(3,)))
        longer.write(tmp_path)
        json_path, csv_path = shorter.write(tmp_path)
        assert json_path.read_text() == shorter.to_json()
        assert csv_path.read_text() == shorter.to_csv()
