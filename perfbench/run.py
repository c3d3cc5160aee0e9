"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the library is imported from
``./src``, never from an installed copy. With ``--trace 0`` it measures
the end-to-end metrics with no wrappers installed; with ``--trace 1`` it
repeats a fixed pass of the workload's work, alternately untraced and
traced, and reports the per-layer metrics and the tracing overhead.
The last line of stdout is the JSON result; the exit code is 0 only when
every correctness gate held.
"""

from __future__ import annotations

import os
import sys
import time

START = time.perf_counter()

import measure  # noqa: E402  (stdlib only; must run before numpy loads)

measure.pin_threads(os.environ)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("lower-bound", "selection", "large-p", "cli")
SETUP_PROBES = 3
# setup_s rescales each probe's set-up CPU seconds to a host on which one
# call of the default Reference takes REFERENCE_NOMINAL_S of CPU (about
# what it takes on the 2-vCPU guest the bounds were set on), timing the
# Reference SETUP_REFERENCE_REPS times in the probe right after set-up.
REFERENCE_NOMINAL_S = 0.010
SETUP_REFERENCE_REPS = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cost_per_unit": "ref",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    import tracing

    units = {}
    for name in tracing.TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units["projection.fit_graph_mle.iterations"] = "count"
    units["projection.fit_graph_mle.unconverged"] = "count"
    units["serialization.dumps.bytes"] = "bytes"
    units["cli.import_ms"] = "ms"
    units["cli.interpreter_ms"] = "ms"
    units["trace.untraced_pass_ms"] = "ms"
    units["trace.traced_pass_ms"] = "ms"
    units["trace.overhead_ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    return units


def reference_cpu_s(reference, reps: int) -> float:
    """CPU seconds of one call of ``reference``, averaged over ``reps`` calls."""
    start = measure.cpu_clock()
    for _ in range(reps):
        reference()
    return (measure.cpu_clock() - start) / reps


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, metavar="FILE",
                        help="build inputs and warm up, write set-up and Reference CPU "
                             "seconds to FILE as JSON, and exit (one setup_s probe)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


class Tally:
    """Wall and CPU seconds of every timed call, by task kind."""

    def __init__(self, reference: bool = False) -> None:
        self.reference = reference
        self.wall: dict[str, list[float]] = defaultdict(list)
        self.cpu: dict[str, list[float]] = defaultdict(list)
        self.cost: list[float] = []
        self.units: dict[str, int] = defaultdict(int)
        self.attempted = 0
        self.failed = 0
        self.unconverged = 0

    def run(self, workload, task) -> None:
        wall, cpu = time.perf_counter(), measure.cpu_clock()
        try:
            result = task.call()
        except Exception as exc:  # a raising call is a failed operation, not a crash
            self.attempted += task.ops
            self.failed += task.ops
            workload.fail(f"{task.kind} raised {type(exc).__name__}: {exc}")
            return
        self.cpu[task.kind].append(measure.cpu_clock() - cpu)
        self.wall[task.kind].append(time.perf_counter() - wall)
        self.units[task.kind] += task.units
        if self.reference and task.kind == workload.primary:
            per_call = reference_cpu_s(workload.reference, workload.reference_reps)
            self.cost.append(self.cpu[task.kind][-1] / per_call)
        attempted, failed, unconverged = task.check(result)
        self.attempted += attempted
        self.failed += failed
        self.unconverged += unconverged


def _setup_probes(args, workdir: Path) -> list[dict]:
    """Fresh processes that only set the workload up: for each, its wall
    seconds, its set-up CPU seconds and its Reference CPU seconds."""
    probes = []
    for index in range(SETUP_PROBES):
        out, err = workdir / f"probe-{index}.json", workdir / "probe.err"
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only", str(out)]
        code, wall, _ = measure.run_child(argv, dict(os.environ), err)
        if code != 0:
            sys.stderr.write(err.read_text())
            raise SystemExit(f"setup probe exited with {code}")
        probes.append({"wall_s": wall, **json.loads(out.read_text())})
    return probes


def _timing(values_s: list[float], tail: bool) -> dict:
    ms = [1e3 * v for v in values_s]
    out = {"p50": {"value": measure.median(ms), "unit": "ms", "samples": len(ms)}}
    if tail:
        found = measure.tail(ms)
        out["tail"] = (
            {"value": found[0], "unit": "ms", "percentile": found[1], "samples": found[2]}
            if found else {"value": None, "unit": "ms", "samples": len(ms),
                           "note": f"fewer than {2 * measure.TAIL_BEYOND} samples"}
        )
    return out


def end_to_end(workload, seconds: float, probes: list[dict]):
    tally = Tally(reference=True)
    deadline = time.perf_counter() + seconds
    for task in workload.tasks():
        tally.run(workload, task)
        if time.perf_counter() >= deadline:
            break
    kind = workload.primary
    if not tally.cpu[kind]:
        raise SystemExit("no operation completed")
    units = tally.units[kind]
    metrics = {
        "setup_s": measure.median(
            [p["cpu_s"] * REFERENCE_NOMINAL_S / p["reference_cpu_s"] for p in probes]),
        "peak_rss_mb": workload.peak_rss_mb(),
        "cost_per_unit": sum(tally.cost) / units,
    }
    named = {
        "cost_p50": {"value": measure.median(tally.cost), "unit": "ref", "samples": len(tally.cost)},
        f"{workload.unit}_per_s": {"value": units / sum(tally.wall[kind]), "unit": "1/s"},
        f"{workload.unit}_per_cpu_s": {"value": units / sum(tally.cpu[kind]), "unit": "1/s"},
        "reference_cpu_p50_ms": {"value": 1e3 * measure.median(
            [c / r for c, r in zip(tally.cpu[kind], tally.cost)]), "unit": "ms"},
        "setup_cpu_s": {"value": measure.median([p["cpu_s"] for p in probes]), "unit": "s"},
        "setup_wall_s": {"value": measure.median([p["wall_s"] for p in probes]), "unit": "s"},
        "failed_share": {"value": tally.failed / max(tally.attempted, 1), "unit": "share",
                         "failed": tally.failed, "attempted": tally.attempted},
        "unconverged_share": {"value": tally.unconverged / max(tally.attempted, 1), "unit": "share",
                              "unconverged": tally.unconverged, "attempted": tally.attempted},
    }
    for kind in sorted(tally.wall):
        for stat, value in _timing(tally.wall[kind], tail=True).items():
            named[f"{kind}_{stat}_ms"] = value
        named[f"{kind}_cpu_p50_ms"] = _timing(tally.cpu[kind], tail=False)["p50"]
    return metrics, named, tally


def _pass(workload, tasks, tally: Tally) -> float:
    start = time.perf_counter()
    for task in tasks:
        tally.run(workload, task)
    return time.perf_counter() - start


def traced(workload, seconds: float):
    import tracing

    tasks = workload.trace_tasks()
    tally = Tally()
    untraced_ms, traced_ms, summaries = [], [], []
    deadline = time.perf_counter() + seconds
    pair = 0
    while True:
        # alternate which side runs first, so drift does not favour one
        for with_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            if with_trace:
                tracer = tracing.Tracer()
                with tracing.installed(tracer):
                    traced_ms.append(1e3 * _pass(workload, tasks, tally))
                summaries.append((tracer.summary(), dict(tracer.counters)))
            else:
                untraced_ms.append(1e3 * _pass(workload, tasks, tally))
        pair += 1
        if time.perf_counter() >= deadline:
            break

    first_spans, first_counters = summaries[0]
    for spans, counters in summaries[1:]:
        if {k: v["calls"] for k, v in spans.items()} != {k: v["calls"] for k, v in first_spans.items()} \
                or counters != first_counters:
            workload.fail("traced passes over identical inputs made different calls")
            break
    metrics = {}
    for name in tracing.TARGETS:
        metrics[f"{name}.calls"] = first_spans.get(name, {}).get("calls", 0)
        metrics[f"{name}.self_ms"] = measure.median(
            [spans.get(name, {}).get("self_ms", 0.0) for spans, _ in summaries]
        )
    for name in tracing.COUNTER_NAMES:
        metrics[name] = first_counters.get(name, 0)
    metrics.update(measure.startup_ms(ROOT / "src", workload.workdir / "startup.err"))
    plain, with_trace = measure.median(untraced_ms), measure.median(traced_ms)
    metrics["trace.untraced_pass_ms"] = plain
    metrics["trace.traced_pass_ms"] = with_trace
    metrics["trace.overhead_ms"] = with_trace - plain
    metrics["trace.overhead_pct"] = 100.0 * (with_trace - plain) / plain
    named = {"passes": {"value": len(summaries), "unit": "count", "tasks_per_pass": len(tasks)}}
    return metrics, named, tally


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "ggmsep" / "__init__.py").is_file():
        print(f"error: no library sources at {src.relative_to(ROOT)}/ggmsep; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        probes = [] if args.setup_only or args.trace else _setup_probes(args, workdir)
        import ggmsep
        import workloads

        if Path(ggmsep.__file__).resolve().parent != (src / "ggmsep").resolve():
            print(f"error: imported ggmsep from {ggmsep.__file__}, not from {src}", file=sys.stderr)
            return 2
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir / "data", ROOT)
        setup_in_process = time.perf_counter() - START
        try:
            if args.setup_only:
                cpu = measure.cpu_clock()
                reference = workloads.Reference(*workloads.Workload.reference_mix)
                args.setup_only.write_text(json.dumps({
                    "cpu_s": cpu, "reference_cpu_s": reference_cpu_s(reference, SETUP_REFERENCE_REPS),
                }))
                return 0
            if args.trace:
                metrics, named, tally = traced(workload, args.seconds)
                units = per_layer_units()
            else:
                metrics, named, tally = end_to_end(workload, args.seconds, probes)
                units = END_TO_END_UNITS
            failures = list(workload.failures)
            info = {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "environment": measure.environment(ROOT),
                "setup": {"probes": probes, "in_process_wall_s": setup_in_process},
                "reports": workload.info(),
                "failures": failures,
            }
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only once no other run is using it

    for name, value in sorted(named.items()):
        extra = {k: v for k, v in value.items() if k not in ("value", "unit")}
        print(f"{args.workload} {name} = {value['value']} {value['unit']} {json.dumps(extra) if extra else ''}")
    for name in units:
        print(f"{args.workload} {name} = {metrics[name]} {units[name]}")
    print(json.dumps({"info": info}, sort_keys=True))
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
