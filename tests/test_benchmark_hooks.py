"""The benchmark's traced run (perfbench/tracing.py) wraps library names by
module and attribute; a refactor that moves or drops one of them breaks
``perfbench/run.py --trace 1`` without failing anything else."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import ggmsep
from ggmsep import core, divergence

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracing):
    for name, (module, attr) in tracing.TARGETS.items():
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{name}: {module}.{attr} is gone"


def test_kl_gaussian_reaches_factorize_through_its_module_global(tracing):
    assert divergence.factorize is core.factorize
    tracer = tracing.Tracer()
    theta = ggmsep.chain_precision(3)
    with tracing.installed(tracer):
        ggmsep.kl_gaussian(theta, theta)
    calls = {name: span["calls"] for name, span in tracer.summary().items()}
    # no linalg.cholesky span: both precisions carry their factor
    assert calls == {"divergence.kl_gaussian": 1, "core.factorize": 2}
    assert divergence.factorize is core.factorize


def test_a_name_read_through_the_package_under_tracing_is_the_original_after(tracing):
    # the package fetches names from their submodules and keeps none, so
    # restoring the submodules restores ggmsep.kl_gaussian too
    original = divergence.kl_gaussian
    with tracing.installed(tracing.Tracer()):
        assert ggmsep.kl_gaussian is divergence.kl_gaussian is not original
    assert ggmsep.kl_gaussian is original


def test_select_graph_fits_criterion_7s_collection_without_fit_graph_mle_spans(tracing):
    # One batched closed form serves all 8 candidates, with no numpy
    # Cholesky, and every fitted precision keeps its fit's own factor, so no
    # precision is built or factored through the public paths. Candidate fits are not projection.fit_graph_mle calls
    # any more, so the traced run shows no span or counter for them.
    theta = ggmsep.chain_precision(8)
    sigma = ggmsep.empirical_covariance(ggmsep.sample(theta, 250, ggmsep.trial_seed(2025, 0, 0)))
    truth = ggmsep.edge_set_of(theta)
    collection = ggmsep.CandidateCollection([truth, *(truth.without(e) for e in sorted(truth))])
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        result = ggmsep.select_graph(collection, sigma, 10.0)
    calls = {name: span["calls"] for name, span in tracer.summary().items()}
    assert calls == {"selection.select_graph": 1}
    assert "projection.fit_graph_mle" not in calls
    assert not tracer.counters
    assert [fit.termination for fit in result.fit_results] == ["closed_form"] * 8
