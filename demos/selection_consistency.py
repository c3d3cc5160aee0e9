#!/usr/bin/env python3
"""How many samples does likelihood-based graph selection need?

A chain model competes against rivals that each miss one true edge. Two
candidate designs behave very differently:

  * plain deletions are nested inside the truth, so the truth's score can
    never exceed theirs; selection succeeds at any sample size, and the
    margin between the scores is what shrinks with noise;
  * swap rivals (drop a true edge, add a decoy) can chase sampling noise,
    so small samples produce real mistakes and the success rate climbs
    with n.

The sufficient sample size scales like (p + s) log p over the squared
separation constant; the sweep below shows the empirical side of that
story, plus the population limit where selection must always succeed.

Run: python3 demos/selection_consistency.py
"""

import math

from ggmsep import (
    CandidateCollection,
    EdgeSet,
    ExperimentConfig,
    c_theta_star,
    chain_precision,
    edge_set_of,
    empirical_covariance,
    run_selection_experiment,
    sample,
    sample_size_bound,
    select_graph,
    trial_seed,
)


def swap_candidates(p: int, coupling: float) -> tuple:
    theta = chain_precision(p, 2.0, coupling)
    truth = edge_set_of(theta)
    non_edges = [(i, j) for i in range(p) for j in range(i + 1, p) if (i, j) not in truth]
    rivals = []
    for k, edge in enumerate(sorted(truth)):
        kept = set(truth.without(edge).edges)
        kept.add(non_edges[k % len(non_edges)])
        rivals.append(EdgeSet(p, kept))
    return theta, CandidateCollection((truth, *rivals))


def main() -> None:
    print("Nested deletions (p=8 chain, couplings 1.0): driver sweep")
    cfg = ExperimentConfig(
        base_seed=42, trials=60, dimensions=(8,), sample_sizes=(50, 200, 800), gamma=10.0,
    )
    report = run_selection_experiment(cfg)
    for row in report.aggregates:
        print(f"  n={row['n']:>4}: success {row['success_rate']:.3f} "
              f"[{row['ci_low']:.3f}, {row['ci_high']:.3f}], mean margin {row['mean_gap']:.4f}")
    population = report.extras["population"]
    print(f"  population limit: success={population['success']}, "
          f"min score gap {population['min_gap']:.4f} >= log c = "
          f"{math.log(report.extras['separation_constant']):.4f}")

    print()
    print("Swap rivals (p=6 chain, couplings 0.6): errors at small n")
    theta, collection = swap_candidates(6, 0.6)
    gamma = 8.0
    trials = 50
    for grid_index, n in enumerate((20, 80, 320, 1280)):
        wins = 0
        for trial in range(trials):
            draws = sample(theta, n, trial_seed(7, grid_index, trial))
            result = select_graph(collection, empirical_covariance(draws), gamma)
            wins += result.selected_index == 0
        print(f"  n={n:>5}: success {wins / trials:.2f}")

    print()
    c = c_theta_star(theta)
    needed = sample_size_bound(C=1.0, gamma=gamma, c_star=c, lambda_max=2.0, p=6, s=5)
    print(f"separation constant {c:.4f}; the sufficient-sample formula with "
          f"C=1 suggests n >= {needed:.0f}")
    print("(the universal constant C is not pinned down, so the formula gives "
          "scaling, not a sharp threshold)")


if __name__ == "__main__":
    main()
