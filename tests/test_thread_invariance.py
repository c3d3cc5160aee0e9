"""Results do not depend on the BLAS thread count.

Each case runs in two fresh interpreters, with OpenBLAS, OpenMP and MKL
limited to one thread and then to two, and the bytes they print must be
equal. Two threads only: the point is that a threaded LAPACK routine takes
a different path, not how it scales.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Prints one line per case: what must not change, then the evidence that
# the case exercises what it is meant to (Newton fits, a second KL from the
# same truth on the covariance the first kept, stacked lower-bound trials).
SCRIPT = r"""
import hashlib, math
import numpy as np
from ggmsep import (EdgeSet, edge_set_of, empirical_covariance, fit_graph_mle, kl_gaussian,
                    project_remove_edge, project_remove_star, random_sparse_precision, sample)
from ggmsep import projection
from ggmsep.simulation import ExperimentConfig, run_lower_bound_experiment, run_selection_experiment

def digest(*parts):
    return hashlib.sha256(b"".join(parts)).hexdigest()

newton = []
original = projection._newton_fit
def counting(*args, **kwargs):
    newton.append(1)
    return original(*args, **kwargs)
projection._newton_fit = counting

report = run_selection_experiment(ExperimentConfig(
    base_seed=2025, trials=5, dimensions=(8,), sample_sizes=(250,), gamma=10.0,
    use_true_diagonal=True, include_population=False))
print("selection", digest(report.to_json().encode(), report.to_csv().encode()), "newton fits", len(newton))

rows, cols = 5, 6
p = rows * cols
lattice = EdgeSet(p, [(v, v + 1) for v in range(p) if (v + 1) % cols] + [(v, v + cols) for v in range(p - cols)])
truth = random_sparse_precision(p, np.random.default_rng(30), edge_probability=0.1)
fit = fit_graph_mle(empirical_covariance(sample(truth, 200, 31)), lattice, math.inf)
print("fit", digest(fit.theta_hat.matrix.tobytes(), repr((fit.objective, fit.iterations)).encode()),
      "iterations", fit.iterations)

p = 64
theta = random_sparse_precision(p, np.random.default_rng(64), edge_probability=0.1)
v, u = min(edge_set_of(theta))
star = [w for w in range(p) if w != v and theta.matrix[v, w] != 0.0]
values = [kl_gaussian(theta, project_remove_edge(theta, (v, u)))]
kept = theta._covariance
values.append(kl_gaussian(theta, project_remove_star(theta, v, star)))
print("kl", digest(repr(values).encode()), "reused", int(kept is not None and theta._covariance is kept))

report = run_lower_bound_experiment(ExperimentConfig(base_seed=777, trials=40, dimensions=(*range(3, 11), 40)))
print("lower-bound", digest(report.to_json().encode(), report.to_csv().encode()), "records", len(report.records))
"""


def run_with_threads(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return [line.split() for line in done.stdout.splitlines()]


@pytest.fixture(scope="module")
def runs():
    return run_with_threads(1), run_with_threads(2)


@pytest.mark.parametrize("case", ["selection", "fit", "kl", "lower-bound"])
def test_same_bits_at_one_and_two_blas_threads(runs, case):
    one, two = ({line[0]: line for line in run}[case] for run in runs)
    assert one == two
    # the case reaches the code it guards: Newton fits, a kept covariance
    # that the second KL reused, or every record of the stacked trials
    assert int(one[-1]) >= {"lower-bound": 360}.get(case, 1)
