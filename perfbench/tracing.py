"""In-memory spans around the library's public functions, for the traced run.

A ``Tracer`` records one span per call of a wrapped function: name, start,
end and the index of the enclosing span. ``installed`` swaps each target
for a recording wrapper in every ``ggmsep.*`` namespace that holds it
(modules import functions by name, so patching the defining module alone
would miss most calls) and puts the originals back on exit. Nothing is
wrapped outside that context, so the untraced run calls the library's own
objects.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Iterator

# Span name -> (module, attribute). "core.PrecisionMatrix" wraps the
# constructor; "linalg.cholesky" is numpy's, counted wherever it is called.
TARGETS = {
    "core.PrecisionMatrix": ("ggmsep.core", "PrecisionMatrix.__init__"),
    "core.factorize": ("ggmsep.core", "factorize"),
    "core.invert": ("ggmsep.core", "invert"),
    "linalg.cholesky": ("numpy.linalg", "cholesky"),
    "divergence.kl_gaussian": ("ggmsep.divergence", "kl_gaussian"),
    "divergence.conditional_mutual_info": ("ggmsep.divergence", "conditional_mutual_info"),
    "divergence.block_conditional_mutual_info": ("ggmsep.divergence", "block_conditional_mutual_info"),
    "divergence.verify_separation": ("ggmsep.divergence", "verify_separation"),
    "projection.project_remove_edge": ("ggmsep.projection", "project_remove_edge"),
    "projection.project_remove_star": ("ggmsep.projection", "project_remove_star"),
    "projection.fit_graph_mle": ("ggmsep.projection", "fit_graph_mle"),
    "selection.select_graph": ("ggmsep.selection", "select_graph"),
    "simulation.sample": ("ggmsep.simulation", "sample"),
    "simulation.empirical_covariance": ("ggmsep.simulation", "empirical_covariance"),
    "simulation.random_sparse_precision": ("ggmsep.simulation", "random_sparse_precision"),
    "simulation.random_omega_inf_member": ("ggmsep.simulation", "random_omega_inf_member"),
    "simulation.run_lower_bound_experiment": ("ggmsep.simulation", "run_lower_bound_experiment"),
    "simulation.run_selection_experiment": ("ggmsep.simulation", "run_selection_experiment"),
    "serialization.dumps": ("ggmsep.serialization", "dumps"),
    "serialization.load_precision": ("ggmsep.serialization", "load_precision"),
    "serialization.load_covariance": ("ggmsep.serialization", "load_covariance"),
    "serialization.load_edge_set": ("ggmsep.serialization", "load_edge_set"),
    "serialization.load_candidates": ("ggmsep.serialization", "load_candidates"),
    "cli.main": ("ggmsep.cli", "main"),
}


def _fit_counters(counters: dict, result: object) -> None:
    counters["projection.fit_graph_mle.iterations"] += result.iterations
    counters["projection.fit_graph_mle.unconverged"] += 0 if result.converged else 1


def _dumps_counters(counters: dict, result: object) -> None:
    counters["serialization.dumps.bytes"] += len(result.encode())


# Counters taken from a wrapped call's return value.
RESULT_COUNTERS: dict[str, Callable[[dict, object], None]] = {
    "projection.fit_graph_mle": _fit_counters,
    "serialization.dumps": _dumps_counters,
}

COUNTER_NAMES = (
    "projection.fit_graph_mle.iterations",
    "projection.fit_graph_mle.unconverged",
    "serialization.dumps.bytes",
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        on_result = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = [name, self.clock(), None, parent]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._open.pop()
            if on_result is not None:
                on_result(self.counters, result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and self time in ms.

        Self time is a span's duration minus the part of it that its
        child spans cover.
        """
        children: dict[int, list[int]] = defaultdict(list)
        for index, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(index)
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_ms": 0.0})
        for index, (name, start, end, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for child in children.get(index, ()):
                c_start, c_end = self.spans[child][1], self.spans[child][2]
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[name]["calls"] += 1
            out[name]["self_ms"] += 1e3 * (end - start - covered)
        return dict(out)


def _resolve(module: str, attr: str) -> tuple[object, str, Callable]:
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target while the context is open; restore on exit."""
    swapped: list[tuple[object, str, object]] = []
    try:
        for name, (module, attr) in TARGETS.items():
            owner, leaf, original = _resolve(module, attr)
            wrapper = tracer.wrap(name, original)
            holders = [(owner, leaf)]
            if module.startswith("ggmsep") and "." not in attr:
                holders = [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod is not None and (mod_name == "ggmsep" or mod_name.startswith("ggmsep."))
                    for key, value in list(vars(mod).items())
                    if value is original
                ]
            for holder, key in holders:
                setattr(holder, key, wrapper)
                swapped.append((holder, key, original))
        yield tracer
    finally:
        for holder, key, original in reversed(swapped):
            setattr(holder, key, original)
