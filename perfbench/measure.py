"""Timing statistics, child-process timing and the environment record.

Nothing here imports numpy, so ``run.py`` can load it before the BLAS
thread variables take effect.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional, Sequence

# Environment variables that fix BLAS/OpenMP to one thread. They must be
# set before numpy is first imported, in this process and in every child.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10

# A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 60.0

# Fresh interpreters timed per start-up figure; the median is reported.
STARTUP_REPEATS = 3


def pin_threads(env: dict) -> dict:
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Optional[tuple[float, float, int]]:
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    With n sorted samples, the k-th smallest is the 100*k/n percentile and
    has n - k samples beyond it, so k = n - TAIL_BEYOND. Returns
    (value, percentile, n), or None when there are too few samples for the
    tail to lie above the median.
    """
    n = len(values)
    k = n - TAIL_BEYOND
    if k < (n + 1) // 2 or k < 1:
        return None
    ordered = sorted(values)
    return float(ordered[k - 1]), 100.0 * k / n, n


def run_child(argv: Sequence[str], env: dict, stderr_path: Path) -> tuple[int, float, object]:
    """Start a child with stdout discarded and stderr kept in a file, wait
    for it, and return (exit code, wall seconds, its resource usage).

    Exit code -9 means the child overran ``CHILD_TIMEOUT_S`` and was killed.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], list(argv), env, file_actions=actions)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage


def cpu_seconds(usage) -> float:
    """User plus system CPU time of a resource-usage record."""
    return usage.ru_utime + usage.ru_stime


def cpu_clock() -> float:
    """CPU seconds used by this process and by the children it has reaped."""
    return time.process_time() + cpu_seconds(resource.getrusage(resource.RUSAGE_CHILDREN))


def library_env(src: Path) -> dict:
    """This process's environment, with threads pinned and the library on the path."""
    return pin_threads({**os.environ, "PYTHONPATH": str(src)})


def startup_ms(src: Path, stderr_path: Path) -> dict[str, float]:
    """Median wall time of a bare interpreter and of one importing the CLI."""
    out = {}
    for key, code in (("cli.interpreter_ms", "pass"), ("cli.import_ms", "import ggmsep.cli")):
        walls = []
        for _ in range(STARTUP_REPEATS):
            exit_code, wall, _ = run_child([sys.executable, "-c", code], library_env(src), stderr_path)
            if exit_code != 0:
                raise RuntimeError(f"`python -c {code!r}` exited {exit_code}: {stderr_path.read_text()}")
            walls.append(1e3 * wall)
        out[key] = median(walls)
    return out


def _git_commit(root: Path) -> Optional[str]:
    """HEAD of the checkout, or None outside a git repository or without git.

    The ceiling and config variables keep git from reading above the
    checkout or the user's and system's config files.
    """
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent),
           "GIT_CONFIG_NOSYSTEM": "1", "GIT_CONFIG_GLOBAL": os.devnull}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root: Path) -> dict:
    """Interpreter, library and BLAS versions, thread settings, CPUs and commit."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "executable": Path(sys.executable).name,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(root),
    }
