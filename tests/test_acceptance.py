"""Acceptance suite: every stated guarantee at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``) and
then asserts, so the printed verdict always matches the pytest outcome.
"""

import math
import time

import numpy as np
import pytest

from ggmsep import (
    EdgeSet,
    ExperimentConfig,
    block_conditional_mutual_info,
    conditional_mutual_info,
    fit_graph_mle,
    invert,
    kl_gaussian,
    nll,
    nll_gradient,
    omega_inf_lower_bound,
    one_edge_lower_bound,
    project_remove_edge,
    project_remove_star,
    random_omega_inf_member,
    random_sparse_precision,
    run_counterexample_experiment,
    run_lower_bound_experiment,
    run_selection_experiment,
    PrecisionMatrix,
)
from reference import in_omega_inf, schur_complement

HALF_LOG_2 = 0.5 * math.log(2.0)
HALF_LOG_4_3 = 0.5 * math.log(4.0 / 3.0)


def _line(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {number}: {name} ({detail})")


def test_criterion_1_flat_kl_family():
    start = time.perf_counter()
    report = run_counterexample_experiment(range(1, 9))
    elapsed = time.perf_counter() - start

    kl_devs = [abs(r["kl"] - HALF_LOG_2) for r in report.records]
    bounds = {r["d"]: r["bound"] for r in report.records}
    bound_devs_d2_up = [abs(bounds[d] - HALF_LOG_4_3) for d in range(2, 9)]
    bounds_hold = all(r["bound_le_kl"] for r in report.records)

    ok = max(kl_devs) < 1e-8 and max(bound_devs_d2_up) < 1e-12 and bounds_hold and elapsed < 1.0
    _line(
        1,
        "star-deletion KL flat at log(2)/2 for d=1..8",
        ok,
        f"max KL dev {max(kl_devs):.2e}, max bound dev (d>=2) {max(bound_devs_d2_up):.2e}, {elapsed:.2f}s",
    )
    assert max(kl_devs) < 1e-8
    assert max(bound_devs_d2_up) < 1e-12
    assert bounds_hold
    assert elapsed < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="the d=1 member's only edge has entries (2, 1, -1), so its one-edge "
    "bound is log(2)/2, not log(4/3)/2; the constant-bound claim starts at d=2",
)
def test_criterion_1_bound_constant_including_d1():
    report = run_counterexample_experiment(range(1, 9))
    bounds = {r["d"]: r["bound"] for r in report.records}
    deviation = max(abs(bounds[d] - HALF_LOG_4_3) for d in range(1, 9))
    _line(1, "bound equals log(4/3)/2 for every d including 1", deviation < 1e-12, f"max dev {deviation:.2e}")
    assert deviation < 1e-12


def test_criterion_2_closed_form_cmi_matches_conditional_covariance_path():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(1000):
        p = 3 + trial % 10
        theta = random_sparse_precision(p, rng)
        i, j = sorted(rng.choice(p, size=2, replace=False).tolist())
        closed = conditional_mutual_info(theta, i, j)
        # 0.5 * log(c_ii c_jj / det c) for c = Cov(X_i, X_j | rest), a
        # Schur complement of the covariance: independent of theta's entries
        cond = schur_complement(invert(theta), [i, j])
        entropy_path = 0.5 * math.log(cond[0, 0] * cond[1, 1] / np.linalg.det(cond))
        worst = max(worst, abs(closed - entropy_path))
    elapsed = time.perf_counter() - start

    ok = worst < 1e-9 and elapsed < 10.0
    _line(2, "pairwise CMI: closed form vs entropy/Schur path, 1000 instances", ok,
          f"max |diff| {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_3_projection_equalities():
    start = time.perf_counter()
    rng = np.random.default_rng(314)

    worst_edge = 0.0
    for _ in range(500):
        p = int(rng.integers(3, 11))
        theta = random_sparse_precision(p, rng)
        i, j = sorted(rng.choice(p, size=2, replace=False).tolist())
        gap = abs(
            kl_gaussian(theta, project_remove_edge(theta, (i, j)))
            - conditional_mutual_info(theta, i, j)
        )
        worst_edge = max(worst_edge, gap)

    worst_star = 0.0
    for _ in range(500):
        p = int(rng.integers(4, 11))
        theta = random_sparse_precision(p, rng)
        v = int(rng.integers(p))
        others = [u for u in range(p) if u != v]
        size = int(rng.integers(1, p - 1))  # |N| from 1 up to p-2
        neighbors = sorted(rng.choice(others, size=size, replace=False).tolist())
        gap = abs(
            kl_gaussian(theta, project_remove_star(theta, v, neighbors))
            - block_conditional_mutual_info(theta, v, neighbors)
        )
        worst_star = max(worst_star, gap)

    elapsed = time.perf_counter() - start
    ok = worst_edge < 1e-8 and worst_star < 1e-8 and elapsed < 30.0
    _line(3, "projection KL equals (block) CMI, 500 instances each", ok,
          f"edge {worst_edge:.2e}, star {worst_star:.2e}, {elapsed:.2f}s")
    assert worst_edge < 1e-8
    assert worst_star < 1e-8
    assert elapsed < 30.0


def test_criterion_4_missing_edge_slack_never_negative():
    start = time.perf_counter()
    cfg = ExperimentConfig(base_seed=777, trials=1250, dimensions=(3, 4, 5, 6, 7, 8, 9, 10))
    report = run_lower_bound_experiment(cfg)
    elapsed = time.perf_counter() - start

    assert len(report.records) == 10_000
    violations = sum(1 for r in report.records if r["slack"] < -1e-9)
    min_slack = report.extras["min_slack"]
    ok = violations == 0 and elapsed < 60.0
    _line(4, "one-edge bound slack >= -1e-9 on 10^4 random pairs", ok,
          f"min slack {min_slack:.2e}, violations {violations}, {elapsed:.2f}s")
    assert violations == 0
    assert min_slack >= -1e-9
    assert elapsed < 60.0


def test_criterion_5_entrywise_class_bound():
    rng = np.random.default_rng(55)
    grid = [(0.3, 1.0), (0.6, 1.0), (0.9, 1.0), (0.5, 2.0), (1.2, 2.0), (1.9, 2.0), (0.8, 3.0), (2.0, 3.0)]
    worst_slack = math.inf
    worst_equality = 0.0
    checked = 0
    for alpha, h in grid:
        for k in range(125):
            extremal = k % 5 == 0
            theta = random_omega_inf_member(7, alpha, h, rng, extremal=extremal)
            assert in_omega_inf(theta, alpha, h)
            gap = one_edge_lower_bound(theta) - omega_inf_lower_bound(alpha, h)
            worst_slack = min(worst_slack, gap)
            if extremal:
                worst_equality = max(worst_equality, abs(gap))
            checked += 1
    assert checked == 1000

    ok = worst_slack >= -1e-12 and worst_equality < 1e-10
    _line(5, "class bound dominated by per-matrix bound; equality at extremal pairs", ok,
          f"min slack {worst_slack:.2e}, max equality dev {worst_equality:.2e}")
    assert worst_slack >= -1e-12
    assert worst_equality < 1e-10


def test_criterion_6_optimizer_correctness():
    rng = np.random.default_rng(66)
    traces = []

    # (a) analytic gradient vs central finite differences
    worst_grad = 0.0
    for _ in range(5):
        theta = random_sparse_precision(5, rng)
        sigma = invert(random_sparse_precision(5, rng))
        grad = nll_gradient(theta, sigma)
        step = 1e-5
        for i in range(5):
            for j in range(i, 5):
                bump = np.zeros((5, 5))
                bump[i, j] = bump[j, i] = step
                numeric = (
                    nll(PrecisionMatrix(theta.matrix + bump), sigma)
                    - nll(PrecisionMatrix(theta.matrix - bump), sigma)
                ) / (2 * step)
                analytic = grad[i, j] if i == j else grad[i, j] + grad[j, i]
                worst_grad = max(worst_grad, abs(numeric - analytic))

    # (b) unconstrained MLE recovery
    worst_full = 0.0
    for _ in range(5):
        theta = random_sparse_precision(5, rng)
        sigma = invert(theta)
        result = fit_graph_mle(sigma, EdgeSet.complete(5), math.inf)
        traces.append(result.objective_trace)
        worst_full = max(worst_full, float(np.max(np.abs(result.theta_hat.matrix - theta.matrix))))

    # (c) single-edge deletion converges to the covariance-surgery projection
    worst_edge = 0.0
    edge_converged = 0
    for _ in range(5):
        theta = random_sparse_precision(6, rng)
        sigma = invert(theta)
        i, j = sorted(rng.choice(6, size=2, replace=False).tolist())
        result = fit_graph_mle(sigma, EdgeSet.complete(6).without((i, j)), math.inf)
        traces.append(result.objective_trace)
        edge_converged += result.converged
        projected = project_remove_edge(theta, (i, j))
        worst_edge = max(worst_edge, float(np.max(np.abs(result.theta_hat.matrix - projected.matrix))))

    # (d) every recorded objective sequence is monotone non-increasing; the
    # 6-cycle is not chordal, so its fits take Newton steps
    newton_fits = 0
    for _ in range(5):
        theta = random_sparse_precision(6, rng)
        for graph in (EdgeSet(6, [(0, 1), (1, 2), (3, 4)]), EdgeSet(6, [(k, (k + 1) % 6) for k in range(6)])):
            result = fit_graph_mle(invert(theta), graph, 3.0)
            traces.append(result.objective_trace)
            newton_fits += result.termination == "tolerance" and result.iterations > 0
    monotone = all(
        all(later <= earlier + 1e-12 for earlier, later in zip(t, t[1:])) for t in traces
    )

    ok = (worst_grad < 1e-5 and worst_full < 1e-6 and worst_edge < 1e-6 and edge_converged == 5
          and monotone and newton_fits > 0)
    _line(6, "optimizer: gradient, MLE recovery, projection cross-check, monotone", ok,
          f"grad {worst_grad:.2e}, full {worst_full:.2e}, edge {worst_edge:.2e} "
          f"({edge_converged}/5 converged), monotone {monotone} ({newton_fits} Newton fits)")
    assert worst_grad < 1e-5
    assert worst_full < 1e-6
    assert worst_edge < 1e-6
    assert edge_converged == 5
    assert monotone
    assert newton_fits > 0


def test_criterion_7_selection_sample_complexity():
    """The selection driver on the p=8 chain, 200 trials at each of n =
    250, 1000 and 4000.

    Its rivals are the chain's single-edge deletions, nested in the truth:
    each rival's feasible set lies inside the truth's, so the truth never
    scores worse than a rival, and success is 1.0 at every n by
    construction. The rate trend and the 0.95 threshold cannot fail, and
    this is no test of a sample-size transition. What it checks is the
    margins of the truth over its rivals (the population pass selects the
    truth, and each of its score gaps is at least log c), that every fit
    converged, and the run time. That the driver's report, per-trial
    margins included, is reproducible byte for byte is criterion 8's check.
    """
    start = time.perf_counter()
    cfg = ExperimentConfig(
        base_seed=2025,
        trials=200,
        dimensions=(8,),
        sample_sizes=(250, 1000, 4000),
        gamma=10.0,
    )
    report = run_selection_experiment(cfg)
    elapsed = time.perf_counter() - start

    rows = list(report.aggregates)
    rates = [r["success_rate"] for r in rows]
    # non-decreasing within overlapping 95% binomial intervals
    trend_ok = all(rows[k + 1]["ci_high"] >= rows[k]["ci_low"] for k in range(len(rows) - 1))
    reaches = any(r["success_rate"] >= 0.95 and r["n"] <= 100_000 for r in rows)

    population = report.extras["population"]
    log_c = math.log(report.extras["separation_constant"])
    gaps_ok = population["success"] and all(g >= log_c - 1e-6 for g in population["score_gaps"])

    unconverged = report.extras["unconverged_fits"]

    ok = trend_ok and reaches and gaps_ok and unconverged == 0 and elapsed < 600.0
    _line(7, "chain-model selection: rate trend, 0.95 threshold, population gaps", ok,
          f"rates {['%.3f' % r for r in rates]}, min pop gap {population['min_gap']:.3f} "
          f">= log c {log_c:.3f}, {unconverged} unconverged fits, {elapsed:.1f}s")
    assert trend_ok
    assert reaches
    assert population["success"]
    assert all(g >= log_c - 1e-6 for g in population["score_gaps"])
    assert unconverged == 0
    assert elapsed < 600.0


def test_criterion_8_experiment_determinism():
    counter_a = run_counterexample_experiment([1, 2, 3, 4])
    counter_b = run_counterexample_experiment([1, 2, 3, 4])

    lb_cfg = ExperimentConfig(base_seed=31, trials=8, dimensions=(3, 5))
    lower_a = run_lower_bound_experiment(lb_cfg)
    lower_b = run_lower_bound_experiment(lb_cfg)

    sel_cfg = ExperimentConfig(
        base_seed=17, trials=4, dimensions=(4,), sample_sizes=(80, 160), gamma=8.0,
    )
    sel_a = run_selection_experiment(sel_cfg)
    sel_b = run_selection_experiment(sel_cfg)

    same = (
        counter_a.to_json() == counter_b.to_json()
        and lower_a.to_json() == lower_b.to_json()
        and sel_a.to_json() == sel_b.to_json()
        and counter_a.to_csv() == counter_b.to_csv()
        and lower_a.to_csv() == lower_b.to_csv()
        and sel_a.to_csv() == sel_b.to_csv()
    )
    _line(8, "byte-identical reports on rerun for all three experiments", same,
          f"json bytes {len(sel_a.to_json())}")
    assert same
