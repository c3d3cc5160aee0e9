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
