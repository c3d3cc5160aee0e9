"""Sampling, model generators, and the three experiment drivers."""

import dataclasses
import math
import sys

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from ggmsep import (
    CovarianceMatrix,
    ExperimentConfig,
    FitOptions,
    InvalidDiagonal,
    InvalidParameters,
    PrecisionMatrix,
    SampleMatrix,
    chain_precision,
    corrected_covariance,
    counterexample_precision,
    edge_set_of,
    empirical_covariance,
    invert,
    omega_inf_lower_bound,
    one_edge_lower_bound,
    random_omega_inf_member,
    random_sparse_precision,
    run_counterexample_experiment,
    run_lower_bound_experiment,
    run_selection_experiment,
    sample,
    trial_seed,
)
from ggmsep import core
from ggmsep import selection as selection_module
from reference import in_omega_inf

HALF_LOG_2 = 0.5 * math.log(2.0)


class TestSample:
    def test_reproducible_bits(self):
        theta = counterexample_precision(2)
        a = sample(theta, 64, seed=99)
        b = sample(theta, 64, seed=99)
        assert np.array_equal(a.rows, b.rows)
        c = sample(theta, 64, seed=100)
        assert not np.array_equal(a.rows, c.rows)

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

    def test_shape(self):
        x = sample(PrecisionMatrix(np.eye(4)), 17, seed=3)
        assert (x.n, x.p) == (17, 4)
        assert x.rows.shape == (17, 4)


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
        # (base_seed=1.9 seeded as 1) or failed mid-run (trials=2.5)
        for bad in (
            {"dimensions": (3.7,)},
            {"base_seed": 1.9},
            {"trials": 2.5},
            {"sample_sizes": (250.0,)},
            {"trials": True},
            {"dimensions": (3, False)},
            {"base_seed": "1"},
        ):
            with pytest.raises(InvalidParameters):
                ExperimentConfig(**bad)
        cfg = ExperimentConfig(base_seed=np.int64(3), trials=np.int32(2), dimensions=(np.int64(3),),
                               sample_sizes=np.array([50, 60]))
        assert cfg.dimensions == (3,) and cfg.sample_sizes == (50, 60)
        assert run_lower_bound_experiment(cfg).to_json() == run_lower_bound_experiment(
            ExperimentConfig(base_seed=3, trials=2, dimensions=(3,), sample_sizes=(50, 60))
        ).to_json()

    def test_from_dict_roundtrip(self):
        cfg = ExperimentConfig(base_seed=7, trials=3, dimensions=(4,), sample_sizes=(50, 100))
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"trails": 5})

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
            with pytest.raises(ValueError, match="d_values"):
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
        # counts instead of timing: verify_separation finds the missing edge
        # with its own scan, and surgery, KL and CMI call LAPACK directly
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

        report = run_lower_bound_experiment(ExperimentConfig(base_seed=3, trials=4, dimensions=(7,)))
        assert len({r["method"] for r in report.records}) == 4
        assert calls == ["edge_set_of"] * 4

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
            fit=FitOptions(gradient_tolerance=1e-7, max_iterations=2000),
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
        real_fit = selection_module.fit_graph_mle

        def stalling_fit(sigma_hat, graph, gamma, opts=FitOptions()):
            result = real_fit(sigma_hat, graph, gamma, opts)
            if len(graph) == 0:
                return dataclasses.replace(result, converged=False, termination="stalled")
            return result

        # the p=2 chain has one rival, the empty graph, and only its fits stall
        monkeypatch.setattr(selection_module, "fit_graph_mle", stalling_fit)
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


class TestReportFiles:
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
