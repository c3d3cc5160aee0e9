#!/usr/bin/env python3
"""Two routes to the KL-closest model without an edge, meeting in the middle.

Route one is covariance surgery: replace Cov(X_i, X_j) by the value that
zeroes the partial covariance given the rest and keep everything else (the
library does it as a rank-2 update of the precision, without forming the
covariance). Route two is numerical: minimize the Gaussian negative log
likelihood over precision matrices whose support omits the edge. They must
agree, and the KL paid must equal the conditional mutual information of
the severed edge. (The complete graph minus one edge is chordal, so the
fit is exact in closed form; on a non-chordal support it takes Newton steps.) The same story holds for severing a whole star.

Run: python3 demos/projection_and_fitting.py
"""

import math

import numpy as np

from ggmsep import (
    EdgeSet,
    block_conditional_mutual_info,
    conditional_mutual_info,
    edge_set_of,
    fit_graph_mle,
    invert,
    kl_gaussian,
    nll,
    project_remove_edge,
    project_remove_star,
    random_sparse_precision,
)


def main() -> None:
    rng = np.random.default_rng(8)
    theta = random_sparse_precision(6, rng)
    sigma = invert(theta)
    edge = sorted(edge_set_of(theta))[0]

    surgery = project_remove_edge(theta, edge)
    fit = fit_graph_mle(sigma, EdgeSet.complete(6).without(edge), math.inf)
    print(f"edge {edge}: |surgery - optimizer| = "
          f"{np.max(np.abs(surgery.matrix - fit.theta_hat.matrix)):.2e} "
          f"(optimizer: termination={fit.termination}, converged={fit.converged})")

    kl = kl_gaussian(theta, surgery)
    cmi = conditional_mutual_info(theta, *edge)
    print(f"KL paid {kl:.10f} vs conditional mutual information {cmi:.10f}")

    print()
    vertex, neighbors = 0, [2, 3]
    star = project_remove_star(theta, vertex, neighbors)
    kl_star = kl_gaussian(theta, star)
    bcmi = block_conditional_mutual_info(theta, vertex, neighbors)
    print(f"star at {vertex} over {neighbors}: KL {kl_star:.10f} vs block CMI {bcmi:.10f}")
    print(f"severed entries in the result: {star.matrix[vertex, neighbors]}")

    print()
    print("Likelihood bridge at the population covariance:")
    score_true = nll(theta, sigma)
    score_cut = fit.objective
    print(f"  score(without {edge}) - score(truth) = {score_cut - score_true:.10f}")
    print(f"  2 * KL                               = {2 * kl:.10f}")

    print()
    # K_p minus one edge is chordal, so the fit above was closed-form; a
    # 6-cycle is not, and its fit takes damped Newton steps
    cycle = EdgeSet(6, [(k, (k + 1) % 6) for k in range(6)])
    iterative = fit_graph_mle(sigma, cycle, math.inf)
    trace = iterative.objective_trace
    drops = [trace[k] - trace[k + 1] for k in range(min(5, len(trace) - 1))]
    print(f"6-cycle fit: termination={iterative.termination} after {iterative.iterations} iterations")
    print(f"objective is non-increasing up to rounding; first drops: {['%.3e' % d for d in drops]}")


if __name__ == "__main__":
    main()
