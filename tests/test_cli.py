"""Command-line interface: subcommands, file formats, exit codes."""

import csv
import json
import math
import os
import warnings

import numpy as np
import pytest

from ggmsep import (
    CovarianceMatrix,
    EdgeSet,
    chain_precision,
    counterexample_precision,
    edge_set_of,
    empirical_covariance,
    invert,
    project_remove_star,
    random_sparse_precision,
    sample,
)
from ggmsep.cli import main
from ggmsep.simulation import (
    ExperimentConfig,
    run_counterexample_experiment,
    run_lower_bound_experiment,
    run_selection_experiment,
)
from ggmsep.serialization import dumps, edge_set_doc, matrix_doc, write_json

HALF_LOG_2 = 0.5 * math.log(2.0)
HALF_LOG_4_3 = 0.5 * math.log(4.0 / 3.0)


def _no_constant(token):
    raise AssertionError(f"non-strict JSON constant {token}")


@pytest.fixture
def theta_d2_path(tmp_path):
    return write_json(tmp_path / "theta_d2.json", matrix_doc(counterexample_precision(2)))


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKl:
    def test_identical_files(self, tmp_path, capsys, theta_d2_path):
        code, out, _ = run(capsys, "kl", theta_d2_path, theta_d2_path)
        assert code == 0
        assert json.loads(out) == {"kl": 0.0}

    def test_star_projection_value(self, tmp_path, capsys, theta_d2_path):
        theta = counterexample_precision(2)
        projected = project_remove_star(theta, 0, [1, 2])
        other = write_json(tmp_path / "projected.json", matrix_doc(projected))
        code, out, _ = run(capsys, "kl", theta_d2_path, other)
        assert code == 0
        assert abs(json.loads(out)["kl"] - HALF_LOG_2) < 1e-8

    def test_non_pd_input_exits_3(self, tmp_path, capsys):
        bad = write_json(tmp_path / "bad.json", {"p": 2, "entries": [1.0, 2.0, 2.0, 1.0]})
        code, out, err = run(capsys, "kl", bad, bad)
        assert code == 3
        assert out == ""
        assert "NotPositiveDefinite" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "kl", tmp_path / "nope.json", tmp_path / "nope.json")
        assert code == 2
        assert err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "kl", path, path)
        assert code == 2


class TestBounds:
    def test_values(self, capsys, theta_d2_path):
        code, out, _ = run(capsys, "bounds", theta_d2_path)
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["c_star"] - 4.0 / 3.0) < 1e-12
        assert abs(doc["bound"] - HALF_LOG_4_3) < 1e-12
        assert "omega_inf_bound" not in doc

    def test_with_class_parameters(self, capsys, theta_d2_path):
        code, out, _ = run(capsys, "bounds", theta_d2_path, "--alpha", "1", "--h", "2")
        assert code == 0
        assert abs(json.loads(out)["omega_inf_bound"] - HALF_LOG_4_3) < 1e-12

    def test_alpha_without_h_exits_2(self, capsys, theta_d2_path):
        code, _, _ = run(capsys, "bounds", theta_d2_path, "--alpha", "1")
        assert code == 2

    @pytest.mark.parametrize("flags, named", [
        (["--alpha", "5", "--h", "1"], "--alpha/--h"),
        (["--alpha", "nan", "--h", "1"], "--alpha/--h"),
    ])
    def test_flag_out_of_range_exits_2_naming_it(self, capsys, theta_d2_path, flags, named):
        code, out, err = run(capsys, "bounds", theta_d2_path, *flags)
        assert code == 2
        assert out == ""
        assert named in err

    def test_zero_tol_is_an_unknown_flag(self, capsys, theta_d2_path):
        # the edge rule is fixed at |entry| > 1e-12
        with pytest.raises(SystemExit) as exc:
            main(["bounds", str(theta_d2_path), "--zero-tol", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --zero-tol 0" in captured.err

    def test_diagonal_matrix_exits_3(self, tmp_path, capsys):
        path = write_json(tmp_path / "diag.json", {"p": 2, "entries": [1.0, 0.0, 0.0, 2.0]})
        code, _, err = run(capsys, "bounds", path)
        assert code == 3
        assert "NoEdges" in err


class TestProject:
    def test_edge_roundtrip(self, tmp_path, capsys, theta_d2_path):
        out_path = tmp_path / "projected.json"
        code, out, _ = run(capsys, "project", theta_d2_path, "--edge", 0, 1, "--out", out_path)
        assert code == 0
        assert out == ""
        doc = json.loads(out_path.read_text())
        arr = np.array(doc["entries"]).reshape(3, 3)
        assert arr[0, 1] == 0.0
        # written text re-parses and re-serializes to identical bytes
        assert dumps(doc) + "\n" == out_path.read_text()

    def test_out_may_be_a_device(self, capsys, theta_d2_path):
        # a path that is not a regular file takes the write as a file does
        code, out, err = run(capsys, "project", theta_d2_path, "--edge", 0, 1, "--out", os.devnull)
        assert (code, out, err) == (0, "", "")

    def test_star_to_stdout(self, capsys, theta_d2_path):
        code, out, _ = run(capsys, "project", theta_d2_path, "--star", 0, "1,2")
        assert code == 0
        doc = json.loads(out)
        arr = np.array(doc["entries"]).reshape(3, 3)
        assert np.all(arr[0, 1:] == 0.0)

    def test_same_vertex_exits_3(self, capsys, theta_d2_path):
        code, _, err = run(capsys, "project", theta_d2_path, "--edge", 1, 1)
        assert code == 3
        assert "SameVertex" in err


class TestFitAndSelect:
    def test_fit_converges(self, tmp_path, capsys):
        theta = random_sparse_precision(4, np.random.default_rng(2))
        sigma_path = write_json(tmp_path / "sigma.json", matrix_doc(invert(theta)))
        graph_path = write_json(tmp_path / "graph.json", edge_set_doc(edge_set_of(theta)))
        code, out, _ = run(capsys, "fit", sigma_path, graph_path, "--gamma", "inf")
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        fitted = np.array(doc["theta_hat"]["entries"]).reshape(4, 4)
        assert np.max(np.abs(fitted - theta.matrix)) < 1e-5

    def test_fit_not_converged_exits_4_but_writes(self, tmp_path, capsys):
        theta = random_sparse_precision(5, np.random.default_rng(3))
        sigma_path = write_json(tmp_path / "sigma.json", matrix_doc(invert(theta)))
        # the 5-cycle is not chordal, so the fit iterates and one step cannot converge
        cycle = EdgeSet(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        graph_path = write_json(tmp_path / "graph.json", edge_set_doc(cycle))
        out_path = tmp_path / "fit.json"
        code, _, _ = run(capsys, "fit", sigma_path, graph_path,
                         "--gamma", "inf", "--max-iterations", "1", "--out", out_path)
        assert code == 4
        assert json.loads(out_path.read_text())["converged"] is False

    def test_select_with_unconverged_candidate_exits_4_but_writes(self, tmp_path, capsys):
        theta = random_sparse_precision(5, np.random.default_rng(3))
        sigma_path = write_json(tmp_path / "sigma.json", matrix_doc(invert(theta)))
        cycle = EdgeSet(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        candidates = [cycle, EdgeSet(5)]
        cand_path = write_json(tmp_path / "candidates.json", [edge_set_doc(g) for g in candidates])
        out_path = tmp_path / "select.json"
        code, _, _ = run(capsys, "select", sigma_path, cand_path,
                         "--gamma", "inf", "--max-iterations", "1", "--out", out_path)
        assert code == 4
        assert json.loads(out_path.read_text())["unconverged"] == [0]

    def test_select_with_sigma_of_another_order_exits_3(self, tmp_path, capsys):
        theta = random_sparse_precision(4, np.random.default_rng(3))
        sigma_path = write_json(tmp_path / "sigma.json", matrix_doc(invert(theta)))
        candidates = [EdgeSet(3), EdgeSet.complete(3)]
        cand_path = write_json(tmp_path / "candidates.json", [edge_set_doc(g) for g in candidates])
        code, out, err = run(capsys, "select", sigma_path, cand_path, "--gamma", "10")
        assert code == 3
        assert out == ""
        assert "DimensionMismatch" in err and "orders differ" in err

    @pytest.mark.parametrize("command", ["fit", "select"])
    def test_fit_flag_out_of_range_exits_2_naming_it(self, tmp_path, capsys, command):
        sigma_path = write_json(tmp_path / "sigma.json", {"p": 2, "entries": [1.0, 0.0, 0.0, 1.0]})
        graph = {"p": 2, "edges": []}
        graph_path = write_json(tmp_path / "graph.json", graph if command == "fit" else [graph])
        code, out, err = run(capsys, command, sigma_path, graph_path, "--gamma", "inf", "--max-iterations", "0")
        assert code == 2
        assert out == ""
        assert "max_iterations" in err

    @pytest.mark.parametrize("command", ["fit", "select"])
    @pytest.mark.parametrize("value", ["inf", "nan", "0", "1e-8"])
    def test_gradient_tolerance_is_an_unknown_flag(self, tmp_path, capsys, command, value):
        # every fit stops on its duality gap, which takes no tolerance
        sigma_path = write_json(tmp_path / "sigma.json", {"p": 2, "entries": [1.0, 0.0, 0.0, 1.0]})
        graph = {"p": 2, "edges": []}
        graph_path = write_json(tmp_path / "graph.json", graph if command == "fit" else [graph])
        with pytest.raises(SystemExit) as exc:
            main([command, str(sigma_path), str(graph_path), "--gamma", "inf", "--gradient-tolerance", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --gradient-tolerance {value}" in captured.err

    @pytest.mark.parametrize("scale", [1e9, 1e10, 1e11])
    def test_fit_in_large_units_converges(self, tmp_path, capsys, scale):
        # exited 4: an absolute gradient tolerance could not be met in
        # these units, though the fit was exact
        sigma_path = write_json(tmp_path / "sigma.json", matrix_doc(CovarianceMatrix(scale * np.eye(3))))
        graph_path = write_json(tmp_path / "graph.json", edge_set_doc(EdgeSet(3)))
        code, out, _ = run(capsys, "fit", sigma_path, graph_path, "--gamma", "inf")
        assert code == 0
        doc = json.loads(out, parse_constant=_no_constant)
        assert doc["converged"] is True and doc["termination"] == "closed_form"
        assert doc["theta_hat"]["entries"][0] == 1.0 / scale

    @pytest.mark.parametrize("command", ["fit", "select"])
    @pytest.mark.parametrize("gamma", ["-1", "0", "nan"])
    def test_gamma_out_of_range_exits_2_naming_it(self, tmp_path, capsys, command, gamma):
        sigma_path = write_json(tmp_path / "sigma.json", {"p": 2, "entries": [1.0, 0.0, 0.0, 1.0]})
        graph = {"p": 2, "edges": []}
        graph_path = write_json(tmp_path / "graph.json", graph if command == "fit" else [graph])
        code, out, err = run(capsys, command, sigma_path, graph_path, "--gamma", gamma)
        assert code == 2
        assert out == ""
        assert "--gamma" in err

    @pytest.mark.parametrize("command", ["fit", "select"])
    @pytest.mark.parametrize("corner, gamma", [(1e-310, "10"), (1e300, "1e-30"), (1.0, "1e-310"), (1.0, "1e-200")])
    def test_infeasible_start_exits_3_without_a_warning(self, tmp_path, capsys, command, corner, gamma):
        # a 1e-310 diagonal entry exited 2 ("precision matrix has non-finite
        # entries") after an overflow warning
        sigma_path = write_json(tmp_path / "sigma.json", {"p": 3, "entries": [corner, 0, 0, 0, 1, 0, 0, 0, 1]})
        graph = {"p": 3, "edges": [[0, 1], [1, 2]]}
        graph_path = write_json(tmp_path / "graph.json", graph if command == "fit" else [graph, {"p": 3, "edges": []}])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, command, sigma_path, graph_path, "--gamma", gamma)
        assert code == 3
        assert out == ""
        assert "InfeasibleStart" in err and "RuntimeWarning" not in err
        assert caught == []

    @pytest.mark.parametrize("command, gamma, expected", [("fit", "10", 0), ("select", "10", 0), ("fit", "inf", 4)])
    def test_singular_conditioning_block_fits_instead_of_exiting_2(self, tmp_path, capsys, command, gamma, expected):
        # one draw at p=3: K3's closed form meets an exactly singular block
        # ("error: Singular matrix", exit 2, before); Newton fits it inside
        # the ball, and without one the likelihood is unbounded, so the fit
        # does not converge (exit 4)
        sigma = empirical_covariance(sample(chain_precision(3), 1, 3))
        sigma_path = write_json(tmp_path / "sigma.json", matrix_doc(sigma))
        complete = edge_set_doc(EdgeSet.complete(3))
        graphs = complete if command == "fit" else [edge_set_doc(EdgeSet(3, [(0, 1), (1, 2)])), complete]
        graph_path = write_json(tmp_path / "graphs.json", graphs)
        code, out, err = run(capsys, command, sigma_path, graph_path, "--gamma", gamma)
        assert code == expected
        assert "error" not in err
        assert json.loads(out)

    def test_select_prefers_true_graph(self, tmp_path, capsys):
        theta = counterexample_precision(2)
        sigma_path = write_json(tmp_path / "sigma.json", matrix_doc(invert(theta)))
        true_graph = edge_set_of(theta)
        candidates = [true_graph, true_graph.without((0, 1)), true_graph.without((0, 2))]
        cand_path = write_json(tmp_path / "candidates.json", [edge_set_doc(g) for g in candidates])
        code, out, _ = run(capsys, "select", sigma_path, cand_path, "--gamma", "10")
        assert code == 0
        doc = json.loads(out)
        assert doc["selected_index"] == 0
        assert len(doc["scores"]) == 3


class TestExperiment:
    def test_counterexample_files(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", {"d_values": [1, 2, 3]})
        out_dir = tmp_path / "results"
        code, out, _ = run(capsys, "experiment", "counterexample", config, "--out", out_dir)
        assert code == 0
        paths = json.loads(out)
        report = json.loads((out_dir / "counterexample_report.json").read_text())
        assert report["extras"]["all_within_tolerance"] is True
        csv_lines = (out_dir / "counterexample_aggregates.csv").read_text().splitlines()
        assert csv_lines[0].startswith("d,kl,bound")
        assert len(csv_lines) == 4
        kl_column = [float(line.split(",")[1]) for line in csv_lines[1:]]
        assert all(abs(v - HALF_LOG_2) < 1e-8 for v in kl_column)
        assert paths["report"].endswith("counterexample_report.json")

    def test_lower_bound_with_seed_override(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json",
                            {"base_seed": 1, "trials": 4, "dimensions": [3]})
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        code_a, _, _ = run(capsys, "experiment", "lower-bound", config,
                           "--out", out_a, "--seed", "77", "--quiet")
        code_b, _, _ = run(capsys, "experiment", "lower-bound", config,
                           "--out", out_b, "--seed", "77", "--quiet")
        assert code_a == code_b == 0
        assert (out_a / "lower-bound_report.json").read_bytes() == (out_b / "lower-bound_report.json").read_bytes()

    def test_selection_files(self, tmp_path, capsys):
        config = write_json(
            tmp_path / "config.json",
            {"trials": 3, "dimensions": [4], "sample_sizes": [60], "gamma": 8.0,
             "fit": {"max_iterations": 5000}},
        )
        out_dir = tmp_path / "results"
        code, _, _ = run(capsys, "experiment", "selection", config, "--out", out_dir, "--quiet")
        assert code == 0
        header = (out_dir / "selection_aggregates.csv").read_text().splitlines()[0]
        assert header == "n,p,s,success_rate,ci_low,ci_high,mean_gap"
        report = json.loads((out_dir / "selection_report.json").read_text())
        assert report["extras"]["population"]["success"] is True

    @pytest.mark.parametrize("doc, named", [
        ({"fit": {"bogus": 1}}, "bogus"),
        ({"fit": {"armijo_constant": 1e-4}}, "armijo_constant"),
        ({"gamma": "inf"}, "gamma"),
        ({"trials": 2.5}, "trials"),
        ({"fit": {"max_iterations": 2.0}}, "max_iterations"),
        ({"fit": {"max_iterations": True}}, "max_iterations"),
    ])
    def test_invalid_selection_config_exits_2_naming_the_key(self, tmp_path, capsys, doc, named):
        config = write_json(tmp_path / "config.json", doc)
        code, _, err = run(capsys, "experiment", "selection", config, "--out", tmp_path / "o", "--quiet")
        assert code == 2
        assert named in err

    def test_counterexample_d_values_not_a_list_exits_2(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", {"d_values": 3})
        code, _, err = run(capsys, "experiment", "counterexample", config, "--out", tmp_path / "o")
        assert code == 2
        assert "d_values" in err

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2"])
    def test_counterexample_d_value_not_an_integer_exits_2(self, tmp_path, capsys, value):
        config = write_json(tmp_path / "config.json", {"d_values": [1, value]})
        code, _, err = run(capsys, "experiment", "counterexample", config, "--out", tmp_path / "o")
        assert code == 2
        assert repr(value) in err
        assert not (tmp_path / "o").exists()

    def test_unknown_kind_exits_2_naming_it(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", {"d_values": [1]})
        code, out, err = run(capsys, "experiment", "bogus-kind", config, "--out", tmp_path / "o", "--quiet")
        assert code == 2
        assert "bogus-kind" in err and "counterexample" in err
        assert out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("doc", [[1, 2], "d_values", 3, None])
    def test_config_that_is_not_a_json_object_exits_2(self, tmp_path, capsys, doc):
        config = write_json(tmp_path / "config.json", doc)
        code, out, err = run(capsys, "experiment", "counterexample", config, "--out", tmp_path / "o")
        assert code == 2
        assert "JSON object" in err
        assert out == ""
        assert not (tmp_path / "o").exists()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", {"d_values": [1], "bogus": 3})
        code, _, _ = run(capsys, "experiment", "counterexample", config, "--out", tmp_path / "o")
        assert code == 2

    @pytest.mark.parametrize("kind", ["selection", "lower-bound"])
    @pytest.mark.parametrize("value", [1e-8, math.inf, math.nan])
    def test_gradient_tolerance_is_an_unknown_fit_key(self, tmp_path, capsys, kind, value):
        config = write_json(tmp_path / "config.json", {"fit": {"gradient_tolerance": value}})
        code, out, err = run(capsys, "experiment", kind, config, "--out", tmp_path / "o", "--quiet")
        assert code == 2
        assert out == ""
        assert "unknown fit keys: ['gradient_tolerance']" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, doc, named", [
        ("lower-bound", {"trials": 0}, "trials"),
        ("lower-bound", {"base_seed": -1}, "base_seed"),
        ("lower-bound", {"dimensions": []}, "dimensions"),
        ("selection", {"sample_sizes": [0]}, "sample_sizes"),
        ("selection", {"gamma": 0}, "gamma"),
        ("lower-bound", {"perturbation_scale": -1}, "perturbation_scale"),
        ("selection", {"fit": {"max_iterations": 0}}, "max_iterations"),
        ("counterexample", {"d_values": [0]}, "d_values"),
        ("counterexample", {"d_values": []}, "d_values"),
        ("selection", {"gamma": 1.0, "dimensions": [4]}, "gamma"),
        ("selection", {"chain_coupling": 1.5, "dimensions": [4]}, "chain_coupling"),
        ("selection", {"chain_coupling": 0, "dimensions": [4]}, "chain_coupling"),
        ("selection", {"chain_coupling": -1e-12, "dimensions": [4]}, "chain_coupling"),
        ("selection", {"chain_diagonal": math.nan}, "chain_diagonal"),
        ("lower-bound", {"trials": 4, "dimensions": [4], "perturbation_scale": math.nan}, "perturbation_scale"),
        ("lower-bound", {"trials": 4, "dimensions": [4], "perturbation_scale": math.inf}, "perturbation_scale"),
    ])
    def test_out_of_range_config_value_exits_2_naming_the_key(self, tmp_path, capsys, kind, doc, named):
        config = write_json(tmp_path / "config.json", doc)
        code, out, err = run(capsys, "experiment", kind, config, "--out", tmp_path / "o", "--quiet")
        assert code == 2
        assert named in err
        assert out == ""
        assert not (tmp_path / "o").exists()

    def test_seed_is_refused_for_counterexample(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", {"d_values": [1, 2]})
        code, out, err = run(capsys, "experiment", "counterexample", config, "--out", tmp_path / "o", "--seed", "7")
        assert code == 2
        # the message blames the flag, not a config key the user never wrote
        assert "--seed" in err
        assert "base_seed" not in err
        assert out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, doc, in_process", [
        ("counterexample", {"d_values": [1, 2, 3]}, lambda: run_counterexample_experiment([1, 2, 3])),
        ("lower-bound", {"base_seed": 5, "trials": 4, "dimensions": [3, 4]},
         lambda: run_lower_bound_experiment(ExperimentConfig(base_seed=5, trials=4, dimensions=(3, 4)))),
        ("selection",
         {"base_seed": 5, "trials": 3, "dimensions": [4], "sample_sizes": [40, 80], "gamma": 8.0,
          "use_true_diagonal": True},
         lambda: run_selection_experiment(ExperimentConfig(
             base_seed=5, trials=3, dimensions=(4,), sample_sizes=(40, 80), gamma=8.0, use_true_diagonal=True))),
    ])
    def test_files_match_the_in_process_report(self, tmp_path, capsys, kind, doc, in_process):
        config = write_json(tmp_path / "config.json", doc)
        code, _, err = run(capsys, "experiment", kind, config, "--out", tmp_path / "o")
        assert code == 0
        report = in_process()
        assert (tmp_path / "o" / f"{kind}_report.json").read_bytes() == report.to_json().encode()
        assert (tmp_path / "o" / f"{kind}_aggregates.csv").read_bytes() == report.to_csv().encode()
        # one progress line per grid point (counterexample reports none)
        assert len(err.splitlines()) == (0 if kind == "counterexample" else 2)


class TestRoundTrip:
    def test_written_matrices_reparse_bit_identical(self, tmp_path, capsys):
        theta = random_sparse_precision(5, np.random.default_rng(5))
        src = write_json(tmp_path / "theta.json", matrix_doc(theta))
        out_path = tmp_path / "projected.json"
        run(capsys, "project", src, "--edge", 0, 1, "--out", out_path)
        first = out_path.read_text()
        reparsed = json.loads(first)
        assert dumps(reparsed) + "\n" == first


class TestStrictJson:
    def test_every_emitted_file_is_strict_json(self, tmp_path, capsys, theta_d2_path):
        # a fit with no likelihood maximizer has an infinite duality gap, and
        # a gamma of inf is echoed in the report's config: both were written
        # as the bare tokens Infinity, which a strict parser rejects
        out = tmp_path / "out"
        sigma = empirical_covariance(sample(chain_precision(3), 1, 3))
        sigma_path = write_json(tmp_path / "sigma.json", matrix_doc(sigma))
        graph_path = write_json(tmp_path / "graph.json", edge_set_doc(EdgeSet.complete(3)))
        cand_path = write_json(tmp_path / "candidates.json", [edge_set_doc(g) for g in (EdgeSet(3), EdgeSet.complete(3))])
        selection = write_json(tmp_path / "selection.json",
                               {"trials": 2, "dimensions": [4], "sample_sizes": [60], "gamma": math.inf})
        lower = write_json(tmp_path / "lower.json", {"trials": 2, "dimensions": [3, 4]})
        counter = write_json(tmp_path / "counter.json", {"d_values": [1, 2]})
        calls = [
            (0, "kl", theta_d2_path, theta_d2_path),
            (0, "bounds", theta_d2_path, "--alpha", "0.5", "--h", "2.0"),
            (0, "project", theta_d2_path, "--edge", "0", "1"),
            (0, "project", theta_d2_path, "--star", "0", "1,2"),
            (4, "fit", sigma_path, graph_path, "--gamma", "inf"),
            (4, "select", sigma_path, cand_path, "--gamma", "inf"),
            (0, "experiment", "selection", selection, "--quiet"),
            (0, "experiment", "lower-bound", lower, "--quiet"),
            (0, "experiment", "counterexample", counter),
        ]
        out.mkdir()
        for index, (expected, *argv) in enumerate(calls):
            # every document goes to stdout and to a file (experiments write
            # their reports, and only their paths to stdout)
            target = out / (argv[0] if argv[0] == "experiment" else f"{index}.json")
            for extra in ([], ["--out", target]) if argv[0] != "experiment" else (["--out", target],):
                code, stdout, _ = run(capsys, *argv, *extra)
                assert code == expected
                if stdout:
                    json.loads(stdout, parse_constant=_no_constant)
        files = sorted(out.rglob("*.*"))
        assert len(files) == 6 + 6
        for path in files:
            if path.suffix == ".csv":
                for row in csv.reader(path.read_text().splitlines()[1:]):
                    [json.loads(cell, parse_constant=_no_constant) for cell in row]
            else:
                json.loads(path.read_text(), parse_constant=_no_constant)
        fit = json.loads((out / "4.json").read_text())
        assert fit["converged"] is False and fit["duality_gap"] == "Infinity"
        report = json.loads((out / "experiment" / "selection_report.json").read_text())
        assert report["config"]["gamma"] == "Infinity"
        assert ExperimentConfig.from_dict(report["config"]).gamma == math.inf
