"""Tests for the benchmark's own machinery: spans, the tail rule, wrapper
install/restore, and span counts against call counts known from the code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import numpy  # noqa: E402
import pytest  # noqa: E402

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ggmsep import ExperimentConfig, core, simulation  # noqa: E402


def _ticks(*values_ms):
    it = iter(values_ms)
    return lambda: next(it) / 1e3


def test_self_time_subtracts_nested_children():
    # outer [0, 10] holds inner [1, 3] and inner [4, 7]; the second inner
    # holds leaf [5, 6]
    tracer = tracing.Tracer(clock=_ticks(0, 1, 3, 4, 5, 6, 7, 10))
    leaf = tracer.wrap("leaf", lambda: None)

    def inner_body(deep):
        if deep:
            leaf()

    inner = tracer.wrap("inner", inner_body)

    def outer_body():
        inner(False)
        inner(True)

    tracer.wrap("outer", outer_body)()
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "self_ms": pytest.approx(5.0)}
    assert summary["inner"] == {"calls": 2, "self_ms": pytest.approx(2.0 + 2.0)}
    assert summary["leaf"] == {"calls": 1, "self_ms": pytest.approx(1.0)}
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 2]


def test_span_closes_when_the_call_raises():
    tracer = tracing.Tracer(clock=_ticks(0, 4))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.summary()["boom"] == {"calls": 1, "self_ms": pytest.approx(4.0)}
    assert tracer._open == []


@pytest.mark.parametrize(
    "n, expected",
    [
        (100, (90.0, 90.0, 100)),   # 10 samples (91..100) beyond the 90th percentile
        (1000, (990.0, 99.0, 1000)),
        (20, (10.0, 50.0, 20)),     # smallest n whose tail is not below the median
        (19, None),
        (10, None),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    values = [float(v) for v in range(n, 0, -1)]
    assert measure.tail(values) == expected
    if expected is not None:
        assert sum(v > expected[0] for v in values) == measure.TAIL_BEYOND


def _snapshot() -> dict:
    names = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "ggmsep" or mod_name.startswith("ggmsep.")):
            for key, value in vars(mod).items():
                if callable(value):
                    names[(mod_name, key)] = value
    names[("numpy.linalg", "cholesky")] = numpy.linalg.cholesky
    names[("ggmsep.core", "PrecisionMatrix.__init__")] = core.PrecisionMatrix.__init__
    return names


def _changed(before: dict, after: dict) -> set:
    return {key for key in before if after.get(key) is not before[key]}


def test_traced_run_wraps_every_holder_and_restores_all():
    before = _snapshot()
    with tracing.installed(tracing.Tracer()):
        during = _snapshot()
        core.PrecisionMatrix([[2.0, 1.0], [1.0, 2.0]])
    changed = _changed(before, during)
    # re-exports and by-name imports are wrapped too, not only the defining module
    for key in [("ggmsep.core", "factorize"), ("ggmsep.divergence", "factorize"),
                ("ggmsep", "kl_gaussian"), ("ggmsep.simulation", "kl_gaussian"),
                ("ggmsep.cli", "main"), ("numpy.linalg", "cholesky"),
                ("ggmsep.core", "PrecisionMatrix.__init__")]:
        assert key in changed
    wrapped_names = {attr.split(".")[0] for _, attr in tracing.TARGETS.values()}
    assert {key for _, key in changed} <= wrapped_names | {"PrecisionMatrix.__init__"}
    assert _changed(before, _snapshot()) == set()


class _Probe(workloads.Workload):
    """Records the namespaces as seen from inside a timed call."""

    name, unit, primary = "probe", "calls", "probe"

    def __init__(self, tmp: Path) -> None:
        super().__init__(0, tmp, ROOT)
        self.seen = []

    def tasks(self):
        while True:
            yield workloads.Task("probe", 1, 1, lambda: self.seen.append(_snapshot()), lambda _: (1, 0, 0))


def test_untraced_run_calls_the_original_objects(tmp_path):
    before = _snapshot()
    probe = _Probe(tmp_path)
    run.end_to_end(probe, 0.01, [{"wall_s": 1.0, "cpu_s": 1.0, "reference_cpu_s": 0.01}])
    assert probe.seen and all(_changed(before, seen) == set() for seen in probe.seen)


def test_unconverged_fits_are_counted_apart_from_failures(tmp_path):
    probe = _Probe(tmp_path)
    tally = run.Tally()
    tally.run(probe, workloads.Task("probe", 1, 1, lambda: None, lambda _: (3, 0, 2)))
    tally.run(probe, workloads.Task("probe", 1, 1, lambda: None, lambda _: (1, 1, 0)))
    assert (tally.attempted, tally.failed, tally.unconverged) == (4, 1, 2)


def test_selection_counter_is_the_only_untraced_substitution(tmp_path):
    before = _snapshot()
    work = workloads.Selection(0, tmp_path, ROOT)
    try:
        assert _changed(before, _snapshot()) == {("ggmsep.simulation", "select_graph")}
    finally:
        work.close()
    assert _changed(before, _snapshot()) == set()


def _traced(call):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        call()
    return tracer.summary(), tracer.counters


def test_span_calls_match_known_counts_on_a_tiny_selection_config():
    # chain p=4: the truth plus its 3 single-edge deletions; 2 sample sizes
    # x 2 trials, plus one population pass
    cfg = ExperimentConfig(base_seed=17, trials=2, dimensions=(4,), sample_sizes=(80, 160), gamma=8.0)
    spans, counters = _traced(lambda: simulation.run_selection_experiment(cfg))
    calls = {name: s["calls"] for name, s in spans.items()}
    assert calls["simulation.run_selection_experiment"] == 1
    assert calls["simulation.sample"] == 4
    assert calls["simulation.empirical_covariance"] == 4
    assert calls["selection.select_graph"] == 5
    assert calls["projection.fit_graph_mle"] == 20
    assert calls["core.invert"] == 1           # sigma_star
    assert calls["core.factorize"] == 1 + 4    # invert, then one per sample draw
    # one per fit result plus chain_precision; invert yields a covariance
    assert calls["core.PrecisionMatrix"] == 20 + 1
    assert counters["projection.fit_graph_mle.iterations"] >= 20


def test_span_calls_match_known_counts_on_the_counterexample_family():
    spans, counters = _traced(lambda: simulation.run_counterexample_experiment([1, 2, 3]))
    calls = {name: s["calls"] for name, s in spans.items()}
    assert calls["projection.project_remove_star"] == 3
    assert calls["divergence.kl_gaussian"] == 3
    # per d: invert(theta1) and invert(surgered covariance), two in kl_gaussian
    assert calls["core.invert"] == 2 * 3
    assert calls["core.factorize"] == 4 * 3
    # per d: the family member, the inverted covariance, the returned projection
    assert calls["core.PrecisionMatrix"] == 3 * 3
    # one per PrecisionMatrix, one per factorize; the star leaves nothing to condition on
    assert calls["linalg.cholesky"] == 3 * 3 + 4 * 3
    assert "serialization.dumps" not in calls and counters == {}


def test_benchmark_json_lists_exactly_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_report_bytes_are_compared_per_repetition(tmp_path):
    work = workloads.LowerBound(0, tmp_path, ROOT)
    report, json_path = work._run(1)
    assert work.check(1, (report, json_path)) == (len(report.records), 0, 0)
    assert work.check(1, work._run(1)) == (len(report.records), 0, 0)
    assert work.failures == []
    json_path.write_text(json_path.read_text() + " ")
    work.check(1, (report, json_path))
    assert work.failures == ["lower-bound rep 1: report bytes differ between runs of one config"]
