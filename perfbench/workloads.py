"""The benchmark's four workloads, each a closed loop with one caller.

A workload builds its inputs from the run seed, warms up, and then yields
``Task`` objects: ``call`` is the timed call into the library, ``check``
verifies its output afterwards (untimed) and returns how many operations
were attempted, how many failed and how many returned an unconverged fit.
An operation fails when it raises or returns a wrong result; a check that
finds a wrong result also appends to ``failures``, which fails the whole
run. A fit that returns ``converged=False`` is the library's correct
report of a stalled optimizer (ROADMAP item 1), so it is counted apart,
as unconverged, not as failed.

Library functions are looked up on their modules at call time (never
imported by name here), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import resource
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
from scipy.linalg import cho_solve

from ggmsep import cli, core, divergence, projection, selection, serialization, simulation

import measure

# Correctness limits, as stated by the acceptance criteria they come from.
SLACK_TOL = 1e-9        # one-edge and class-bound slack (criterion 4)
TIGHT_TOL = 1e-8        # slack at the separation-attaining edge (criterion 3)
GAP_TOL = 1e-6          # population score gaps against log c (criterion 7)
KL_CMI_TOL = 1e-8       # KL of a projection against its (block) CMI (criterion 3)


@dataclass
class Task:
    kind: str                              # timing population: rep, query, fit or invoke
    units: int                             # units of work that cost_per_unit divides by
    ops: int                               # operations at stake if the call raises
    call: Callable[[], object]
    check: Callable[[object], tuple[int, int, int]]   # attempted, failed, unconverged


def derived_seed(seed: int, *key: int) -> int:
    """A 32-bit seed mixed from the run seed and a position in the run."""
    state = np.random.SeedSequence(entropy=int(seed), spawn_key=key).generate_state(1)
    return int(state[0])


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Reference:
    """A fixed computation that uses no ggmsep code, a few ms of CPU: a loop
    of interpreted Python, Cholesky factors of an 8x8 matrix, and dense
    Cholesky solves at p=200, in a mix chosen per workload.

    On a host shared with other tenants, their load slows every CPU-bound
    step by a common factor that drifts over seconds (on a 2-vCPU KVM guest
    the same work took 84 to 142 ms of CPU within 30 s). Timing this next to each task and reporting task
    cost in units of it cancels most of that factor.
    """

    def __init__(self, python_loops: int, small_choleskys: int, large_solves: int) -> None:
        self.python_loops = python_loops
        self.small_choleskys = small_choleskys
        self.large_solves = large_solves
        rng = np.random.default_rng(12345)
        small = rng.standard_normal((8, 8))
        big = rng.standard_normal((200, 200))
        self.small = small @ small.T + 8.0 * np.eye(8)
        self.big = big @ big.T + 200.0 * np.eye(200)
        self.eye = np.eye(200)

    def __call__(self) -> float:
        acc = 0.0
        table: dict[int, float] = {}
        for i in range(self.python_loops):
            table[i & 127] = acc
            acc += (i % 7) * 0.5
        for _ in range(self.small_choleskys):
            acc += float(np.sum(np.linalg.cholesky(self.small)))
        for _ in range(self.large_solves):
            lower = np.linalg.cholesky(self.big)
            acc += float(cho_solve((lower, True), self.eye)[0, 0])
        return acc


class Workload:
    name = ""
    unit = ""                        # the unit of work cost_per_unit is per
    primary = ""                     # the task kind cost_per_unit measures
    pass_tasks = 1                   # tasks in one traced pass
    reference_reps = 1               # Reference calls timed after each primary task
    reference_mix = (20000, 500, 0)  # Python and small numpy, like most workloads

    def __init__(self, seed: int, workdir: Path, root: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.failures: list[str] = []
        self.reference = Reference(*self.reference_mix)
        workdir.mkdir(parents=True, exist_ok=True)

    def tasks(self) -> Iterator[Task]:
        raise NotImplementedError

    def trace_tasks(self) -> list[Task]:
        """The fixed prefix of work that one traced or untraced pass repeats."""
        return list(itertools.islice(self.tasks(), self.pass_tasks))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def info(self) -> dict:
        return {}

    def close(self) -> None:
        pass

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)


class DriverWorkload(Workload):
    """One task runs an experiment driver and writes its report; repetition k
    uses a base seed mixed from (run seed, k). The warm-up runs repetition
    0. Every later write of a repetition must reproduce the bytes of its
    first write."""

    primary = "rep"
    units_per_rep = 1   # instances or trials in one repetition
    ops_per_rep = 1     # operations counted by failed/attempted in one

    def __init__(self, seed: int, workdir: Path, root: Path) -> None:
        super().__init__(seed, workdir, root)
        self.report_sha256: dict[int, str] = {}   # repetition -> sha256 of its first report
        self.check(0, self._run(0))

    def config(self, rep: int) -> simulation.ExperimentConfig:
        raise NotImplementedError

    def run_driver(self, cfg: simulation.ExperimentConfig) -> simulation.ExperimentReport:
        raise NotImplementedError

    def check_report(self, rep: int, report: simulation.ExperimentReport) -> tuple[int, int, int]:
        raise NotImplementedError

    def _run(self, rep: int) -> tuple[simulation.ExperimentReport, Path]:
        report = self.run_driver(self.config(rep))
        json_path, _ = report.write(self.workdir)
        return report, json_path

    def check(self, rep: int, result: tuple) -> tuple[int, int, int]:
        report, json_path = result
        digest = sha256_file(json_path)
        if self.report_sha256.setdefault(rep, digest) != digest:
            self.fail(f"{self.name} rep {rep}: report bytes differ between runs of one config")
        return self.check_report(rep, report)

    def tasks(self) -> Iterator[Task]:
        for rep in itertools.count():
            yield Task(
                "rep", self.units_per_rep, self.ops_per_rep,
                call=lambda rep=rep: self._run(rep),
                check=lambda result, rep=rep: self.check(rep, result),
            )

    def info(self) -> dict:
        return {"report_sha256": {"config": self.config(0).to_dict(), "sha256": self.report_sha256[0]}}


class LowerBound(DriverWorkload):
    """run_lower_bound_experiment over p = 3..10 with every generation
    method, then ExperimentReport.write."""

    name = "lower-bound"
    unit = "instances"
    pass_tasks = 4
    reference_reps = 2
    dimensions = tuple(range(3, 11))
    trials = 12          # 4 methods x 3 extremal signal ratios per p
    units_per_rep = ops_per_rep = trials * len(dimensions)

    def config(self, rep: int) -> simulation.ExperimentConfig:
        return simulation.ExperimentConfig(
            base_seed=derived_seed(self.seed, rep), trials=self.trials, dimensions=self.dimensions
        )

    def run_driver(self, cfg: simulation.ExperimentConfig) -> simulation.ExperimentReport:
        return simulation.run_lower_bound_experiment(cfg)

    def check_report(self, rep: int, report: simulation.ExperimentReport) -> tuple[int, int, int]:
        bad = [r for r in report.records if r["slack"] < -SLACK_TOL or r["class_slack"] < -SLACK_TOL]
        if bad:
            self.fail(f"lower-bound rep {rep}: {len(bad)} instances with slack < -{SLACK_TOL}")
        tight = report.extras["max_tight_slack"]
        if tight is not None and tight > TIGHT_TOL:
            self.fail(f"lower-bound rep {rep}: max_tight_slack {tight:.3g} > {TIGHT_TOL}")
        return len(report.records), len(bad), 0


class FitCounter:
    """Counting pass-through on simulation.select_graph.

    Counts every candidate fit the selection driver makes, those that
    raised (select_graph records them as None) and those that returned
    converged=False. It times nothing, and it calls
    selection.select_graph by attribute so a traced wrapper still sees
    each call.
    """

    def __init__(self) -> None:
        self.attempted = self.raised = self.unconverged = 0
        self._original = simulation.select_graph
        simulation.select_graph = self

    def __call__(self, *args, **kwargs):
        result = selection.select_graph(*args, **kwargs)
        for fit in result.fit_results:
            self.attempted += 1
            self.raised += fit is None
            self.unconverged += fit is not None and not fit.converged
        return result

    def take(self) -> tuple[int, int, int]:
        counts = (self.attempted, self.raised, self.unconverged)
        self.attempted = self.raised = self.unconverged = 0
        return counts

    def close(self) -> None:
        simulation.select_graph = self._original


class Selection(DriverWorkload):
    """run_selection_experiment on the p=8 chain against its single-edge
    deletions, at criterion 7's shape with one trial per n, then write."""

    name = "selection"
    unit = "trials"
    pass_tasks = 1
    reference_reps = 10
    sample_sizes = (250, 1000, 4000)
    gamma = 10.0
    units_per_rep = len(sample_sizes)
    ops_per_rep = (len(sample_sizes) + 1) * 8   # candidate fits, population pass included

    def __init__(self, seed: int, workdir: Path, root: Path) -> None:
        self.counter = FitCounter()
        super().__init__(seed, workdir, root)

    def config(self, rep: int) -> simulation.ExperimentConfig:
        return simulation.ExperimentConfig(
            base_seed=derived_seed(self.seed, rep),
            trials=1,
            dimensions=(8,),
            sample_sizes=self.sample_sizes,
            gamma=self.gamma,
        )

    def run_driver(self, cfg: simulation.ExperimentConfig) -> simulation.ExperimentReport:
        return simulation.run_selection_experiment(cfg)

    def check_report(self, rep: int, report: simulation.ExperimentReport) -> tuple[int, int, int]:
        population = report.extras["population"]
        log_c = math.log(report.extras["separation_constant"])
        if not population["success"]:
            self.fail(f"selection rep {rep}: population pass selected index {population['selected_index']}")
        low = [g for g in population["score_gaps"] if g < log_c - GAP_TOL]
        if low:
            self.fail(f"selection rep {rep}: population gap {min(low):.6g} < log c {log_c:.6g}")
        return self.counter.take()

    def close(self) -> None:
        self.counter.close()


def lattice_precision(side: int, rng: np.random.Generator) -> core.PrecisionMatrix:
    """Diagonally dominant precision on a side x side grid graph (non-chordal
    for side >= 2), with couplings drawn like random_sparse_precision's."""
    p = side * side
    arr = np.zeros((p, p))
    for v in range(p):
        for u in (v + 1 if (v + 1) % side else None, v + side if v + side < p else None):
            if u is not None:
                magnitude = rng.uniform(0.3, 1.0)
                arr[v, u] = arr[u, v] = magnitude if rng.uniform() < 0.5 else -magnitude
    arr[np.diag_indices(p)] = np.sum(np.abs(arr), axis=1) + rng.uniform(0.3, 1.2, size=p)
    return core.PrecisionMatrix(arr)


class LargeP(Workload):
    """Queries on a p=200 sparse model, each an edge and a star projection
    checked against their KL = (block) CMI identities, interleaved with
    constrained fits on non-chordal supports at p=100 (half unconstrained,
    half with the ball binding).

    Only queries feed cost_per_unit. The current fit's run time is
    heavy-tailed (a p=100 fit can crawl to max_iterations, tens of
    seconds), so fits are reported beside the gated metrics, not in them.
    """

    name = "large-p"
    unit = "queries"
    primary = "query"
    query_p = 200
    fit_side = 10         # 10 x 10 lattice, p = 100
    fit_samples = 1000
    queries_per_fit = 4
    reference_mix = (2000, 50, 2)   # queries are dense p=200 factorizations
    pass_tasks = 4 * (queries_per_fit + 1)   # covers all four fit kinds

    def __init__(self, seed: int, workdir: Path, root: Path) -> None:
        super().__init__(seed, workdir, root)
        rng = np.random.default_rng(derived_seed(seed, 0))
        self.theta = simulation.random_sparse_precision(self.query_p, rng, edge_probability=0.02)
        self.edges = sorted(core.edge_set_of(self.theta))
        self.neighbors: dict[int, list[int]] = {}
        for i, j in self.edges:
            self.neighbors.setdefault(i, []).append(j)
            self.neighbors.setdefault(j, []).append(i)
        self.hubs = sorted(self.neighbors)
        warm = self.query_task(0)
        warm.check(warm.call())

    def query_task(self, index: int) -> Task:
        rng = np.random.default_rng(derived_seed(self.seed, 1, index))
        theta = self.theta
        edge = self.edges[int(rng.integers(len(self.edges)))]
        vertex = self.hubs[int(rng.integers(len(self.hubs)))]
        star = sorted(self.neighbors[vertex])

        def call():
            by_edge = projection.project_remove_edge(theta, edge)
            by_star = projection.project_remove_star(theta, vertex, star)
            return [
                (f"edge {edge}", divergence.kl_gaussian(theta, by_edge),
                 divergence.conditional_mutual_info(theta, *edge)),
                (f"star at {vertex} ({len(star)} neighbors)", divergence.kl_gaussian(theta, by_star),
                 divergence.block_conditional_mutual_info(theta, vertex, star)),
            ]

        def check(result):
            wrong = [(what, abs(kl - cmi)) for what, kl, cmi in result if abs(kl - cmi) > KL_CMI_TOL]
            for what, gap in wrong:
                self.fail(f"large-p {what}: |KL - CMI| = {gap:.3g} > {KL_CMI_TOL}")
            return 1, int(bool(wrong)), 0

        return Task("query", 1, 1, call, check)

    def fit_task(self, index: int) -> Task:
        rng = np.random.default_rng(derived_seed(self.seed, 2, index))
        if index % 2 == 0:
            truth = lattice_precision(self.fit_side, rng)
        else:
            truth = simulation.random_sparse_precision(self.fit_side**2, rng, edge_probability=0.04)
        graph = core.edge_set_of(truth)
        draws = simulation.sample(truth, self.fit_samples, derived_seed(self.seed, 3, index))
        sigma_hat = simulation.empirical_covariance(draws)
        # the ball binds: the truth, and so the unconstrained fit, lies outside it
        gamma = math.inf if (index // 2) % 2 == 0 else 0.9 * float(np.linalg.norm(truth.matrix))

        def check(result):
            return 1, 0, int(not result.converged)

        return Task("fit", 1, 1, lambda: projection.fit_graph_mle(sigma_hat, graph, gamma), check)

    def tasks(self) -> Iterator[Task]:
        for cycle in itertools.count():
            for q in range(self.queries_per_fit):
                yield self.query_task(cycle * self.queries_per_fit + q)
            yield self.fit_task(cycle)


class Cli(Workload):
    """Sequential `python -m ggmsep` subprocesses on p=8 JSON files, each
    output compared byte for byte with the in-process result."""

    name = "cli"
    unit = "invocations"
    primary = "invoke"
    reference_reps = 5
    gamma = 10.0

    def __init__(self, seed: int, workdir: Path, root: Path) -> None:
        super().__init__(seed, workdir, root)
        self.env = measure.library_env(root / "src")
        self.child_rss_kib = 0
        self.commands = self._write_inputs()
        self.pass_tasks = len(self.commands)
        warm = next(self.tasks())
        warm.check(warm.call())

    def _write_inputs(self) -> list[tuple[str, list[str], dict, int]]:
        rng = np.random.default_rng(derived_seed(self.seed, 0))
        inputs = self.workdir / "inputs"
        out = self.workdir / "out"
        inputs.mkdir(exist_ok=True)
        out.mkdir(exist_ok=True)

        def put(name: str, doc: object) -> str:
            path = inputs / name
            serialization.write_json(path, doc)
            return str(path)

        theta1 = simulation.random_sparse_precision(8, rng)
        theta2 = simulation.random_sparse_precision(8, rng)
        t1 = put("theta1.json", serialization.matrix_doc(theta1))
        t2 = put("theta2.json", serialization.matrix_doc(theta2))
        theta1 = serialization.load_precision(t1)
        theta2 = serialization.load_precision(t2)
        edges = sorted(core.edge_set_of(theta1))
        edge = edges[int(rng.integers(len(edges)))]
        vertex = edge[0]
        star = sorted({j for e in edges if vertex in e for j in e} - {vertex})
        arr = theta1.matrix
        alpha = min(abs(float(arr[i, j])) for i, j in edges)
        h = float(np.max(np.diag(arr)))

        chain = simulation.chain_precision(8)
        draws = simulation.sample(chain, 1000, derived_seed(self.seed, 1))
        sig = put("sigma.json", serialization.matrix_doc(simulation.empirical_covariance(draws)))
        truth = core.edge_set_of(chain)
        graph = put("graph.json", serialization.edge_set_doc(truth))
        cands = put(
            "candidates.json",
            [serialization.edge_set_doc(g) for g in (truth, *(truth.without(e) for e in sorted(truth)))],
        )
        d_values = list(range(1, 9))
        cfg = put("counterexample.json", {"d_values": d_values})
        sigma = serialization.load_covariance(sig)
        fit = projection.fit_graph_mle(sigma, serialization.load_edge_set(graph), self.gamma)
        chosen = selection.select_graph(
            selection.CandidateCollection(serialization.load_candidates(cands)), sigma, self.gamma
        )
        report = simulation.run_counterexample_experiment(d_values)

        def text(doc: object) -> str:
            return serialization.dumps(doc) + "\n"

        gamma = repr(self.gamma)
        commands = [
            ("kl", [t1, t2], {"kl": divergence.kl_gaussian(theta1, theta2)}),
            ("bounds", [t1, "--alpha", repr(alpha), "--h", repr(h)], {
                "c_star": divergence.c_theta_star(theta1),
                "bound": divergence.one_edge_lower_bound(theta1),
                "omega_inf_bound": divergence.omega_inf_lower_bound(alpha, h),
            }),
            ("project", [t1, "--edge", str(edge[0]), str(edge[1])],
             serialization.matrix_doc(projection.project_remove_edge(theta1, edge))),
            ("project", [t1, "--star", str(vertex), ",".join(map(str, star))],
             serialization.matrix_doc(projection.project_remove_star(theta1, vertex, star))),
            ("fit", [sig, graph, "--gamma", gamma], fit.to_dict()),
            ("select", [sig, cands, "--gamma", gamma], chosen.to_dict()),
        ]
        specs = []
        for index, (command, args, doc) in enumerate(commands):
            target = out / f"{index}-{command}.json"
            exit_code = 4 if command == "fit" and not fit.converged else 0
            specs.append((command, [command, *args, "--out", str(target)], {target: text(doc)}, exit_code))
        exp_dir = out / "experiment"
        specs.append((
            "experiment",
            ["experiment", "counterexample", cfg, "--out", str(exp_dir)],
            {exp_dir / "counterexample_report.json": report.to_json(),
             exp_dir / "counterexample_aggregates.csv": report.to_csv()},
            0,
        ))
        self.counterexample_sha256 = hashlib.sha256(report.to_json().encode()).hexdigest()
        return specs

    def _task(self, spec: tuple, call: Callable[[], int]) -> Task:
        command, argv, expected, exit_code = spec

        def check(code: int) -> tuple[int, int, int]:
            wrong = [p.name for p, body in expected.items() if not p.is_file() or p.read_text() != body]
            if wrong or code != exit_code:
                self.fail(f"cli {command}: exit {code} (expected {exit_code}), output differs: {wrong}")
            for path in expected:
                # the next call of this command must write its output afresh
                path.unlink(missing_ok=True)
            # `fit` exits 4 when its fit does not converge, as the in-process
            # fit predicts: that is unconverged, not failed
            return 1, int(bool(wrong) or code != exit_code), int(exit_code == 4)

        return Task("invoke", 1, 1, call, check)

    def _spawn(self, argv: list[str]) -> int:
        code, _, usage = measure.run_child(
            [sys.executable, "-m", "ggmsep", *argv], self.env, self.workdir / "child.err"
        )
        self.child_rss_kib = max(self.child_rss_kib, usage.ru_maxrss)
        return code

    def tasks(self) -> Iterator[Task]:
        for spec in itertools.cycle(self.commands):
            yield self._task(spec, lambda argv=spec[1]: self._spawn(argv))

    def trace_tasks(self) -> list[Task]:
        """In-process cli.main on the same argument lists (warm, traceable)."""
        return [self._task(spec, lambda argv=spec[1]: _main_quietly(argv)) for spec in self.commands]

    def peak_rss_mb(self) -> float:
        return self.child_rss_kib / 1024.0

    def info(self) -> dict:
        return {"report_sha256": {"config": {"d_values": list(range(1, 9))}, "sha256": self.counterexample_sha256}}


def _main_quietly(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


WORKLOADS = {w.name: w for w in (LowerBound, Selection, LargeP, Cli)}


