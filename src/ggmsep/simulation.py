"""Gaussian sampling, model generators, and reproducible experiment drivers.

The three ``run_*_experiment`` functions numerically exercise the package's
guarantees: the flat-KL family (deleting a whole star costs 0.5*log 2 no
matter how many edges go), the randomized one-edge separation bound, and
the sample-size behavior of likelihood-based graph selection.
``run_experiment`` runs any of them from a JSON config document.

The lower-bound and selection drivers are each a trial function (grid
value, trial index, seed) -> record fields and an aggregate function (grid
value, records) -> row fields, run by one skeleton, ``_run_grid``, that owns
the loop, seeding, record layout and progress. Reproducibility contract:
trial t at grid index g draws from a generator seeded by ``trial_seed(
base_seed, g, t)`` and records come in grid-then-trial order, so identical
configurations produce byte-identical reports.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

import numpy as np
from scipy.linalg import solve_triangular

from .core import CovarianceMatrix, PrecisionMatrix, _upper_pairs, edge_set_of, factorize, invert
from .divergence import (
    c_theta_star,
    conditional_mutual_info,
    kl_gaussian,
    omega_inf_lower_bound,
    one_edge_lower_bound,
    verify_separation,
)
from .errors import (
    InvalidCandidates,
    InvalidDiagonal,
    InvalidParameters,
    NotPositiveDefinite,
)
from .projection import FitOptions, project_remove_edge, project_remove_star
from .selection import CandidateCollection, select_graph
from .serialization import dumps

__all__ = [
    "SampleMatrix",
    "ExperimentConfig",
    "ExperimentReport",
    "trial_seed",
    "sample",
    "empirical_covariance",
    "corrected_covariance",
    "counterexample_precision",
    "chain_precision",
    "random_sparse_precision",
    "random_omega_inf_member",
    "run_counterexample_experiment",
    "run_lower_bound_experiment",
    "run_selection_experiment",
    "EXPERIMENT_KINDS",
    "run_experiment",
]

HALF_LOG_2 = 0.5 * math.log(2.0)

# |KL - 0.5 log 2| above this counts as a failed reproduction of the
# flat-KL family.
_COUNTEREXAMPLE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SampleMatrix:
    """n joint observations of a p-vector, one observation per row."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.rows, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"rows must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 2:
            raise ValueError(f"need n >= 1 rows of p >= 2 columns, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("rows contain non-finite values")
        arr.flags.writeable = False
        object.__setattr__(self, "rows", arr)

    @property
    def n(self) -> int:
        return int(self.rows.shape[0])

    @property
    def p(self) -> int:
        return int(self.rows.shape[1])


def _is_int(value: object) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _checked_size(name: str, value: object, minimum: int) -> int:
    """value as an int; InvalidParameters unless it is an integer (numpy
    integers too, never a bool or float) of at least minimum."""
    if not _is_int(value) or value < minimum:
        raise InvalidParameters(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def trial_seed(base_seed: int, grid_index: int, trial_index: int) -> int:
    """Fixed mixing of (base seed, grid position, trial index) into one
    64-bit seed; the single entry point for randomness in experiments."""
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=(int(grid_index), int(trial_index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def sample(theta: PrecisionMatrix, n: int, seed: int) -> SampleMatrix:
    """n i.i.d. draws from N(0, inv(theta)); identical arguments give
    identical bits.

    Standard normals from a seeded generator are pushed through the
    inverse transpose of theta's Cholesky factor: solving L^T x = z gives
    Cov(x) = inv(L L^T) = inv(theta).
    """
    n = _checked_size("n", n, 1)
    fact = factorize(theta)
    rng = np.random.default_rng(int(seed))
    z = rng.standard_normal((n, theta.p))
    rows = solve_triangular(fact.factor, z.T, lower=True, trans="T").T
    return SampleMatrix(rows=rows)


def empirical_covariance(x: SampleMatrix) -> CovarianceMatrix:
    """Known-zero-mean estimate (1/n) * sum of outer products, no mean
    subtraction. PSD always; singular whenever n < p."""
    return CovarianceMatrix(x.rows.T @ x.rows / x.n)


def corrected_covariance(sigma_hat: CovarianceMatrix, true_diag: Iterable[float]) -> CovarianceMatrix:
    """Replace the diagonal with exactly known variances, keeping every
    estimated off-diagonal entry."""
    diag = np.asarray(list(true_diag), dtype=float).ravel()
    if diag.shape != (sigma_hat.p,):
        raise InvalidDiagonal(f"need {sigma_hat.p} diagonal values, got {diag.shape}")
    if not np.all(np.isfinite(diag)) or np.any(diag <= 0):
        raise InvalidDiagonal("diagonal values must be finite and strictly positive")
    out = np.array(sigma_hat.matrix)
    out[np.diag_indices_from(out)] = diag
    return CovarianceMatrix(out)


def counterexample_precision(d: int) -> PrecisionMatrix:
    """Precision of (X_1, ..., X_d, X_1 + ... + X_d + W) with all inputs
    independent standard normal.

    Order d + 1: diagonal 2 except the last entry 1, ones among the first
    d coordinates, and -1 down the last row and column. The last vertex is
    connected to everything, yet severing its whole star at the first
    vertex costs exactly 0.5 * log 2 in KL for every d.
    """
    p = _checked_size("d", d, 1) + 1
    arr = np.ones((p, p))
    arr[np.diag_indices(p)] = 2.0
    arr[-1, :] = -1.0
    arr[:, -1] = -1.0
    arr[-1, -1] = 1.0
    return PrecisionMatrix(arr)


def chain_precision(p: int, diagonal: float = 2.0, coupling: float = 1.0) -> PrecisionMatrix:
    """Path-graph precision: `diagonal` on the diagonal and `coupling` on
    the first off-diagonals. The default (2, 1) is positive definite for
    every p since the smallest eigenvalue is 2 - 2 cos(pi / (p + 1))."""
    p = _checked_size("p", p, 2)
    arr = np.diag(np.full(p, float(diagonal)))
    idx = np.arange(p - 1)
    arr[idx, idx + 1] = float(coupling)
    arr[idx + 1, idx] = float(coupling)
    return PrecisionMatrix(arr)


def random_sparse_precision(
    p: int,
    rng: np.random.Generator,
    *,
    edge_probability: float = 0.35,
    coupling_range: tuple[float, float] = (0.3, 1.0),
    margin_range: tuple[float, float] = (0.3, 1.2),
) -> PrecisionMatrix:
    """Random PD precision with random off-diagonal support.

    Couplings get uniform magnitudes and random signs on a Bernoulli edge
    set (at least one edge is forced); each diagonal is the absolute row
    sum plus a uniform positive margin, so the matrix is strictly
    diagonally dominant and therefore PD. Uniforms come as arrays: one per
    pair in row-major order, then a magnitude and a sign per chosen pair.
    """
    p = _checked_size("p", p, 2)
    arr = np.zeros((p, p))
    rows, cols = _upper_pairs(p)
    chosen = np.flatnonzero(rng.uniform(size=rows.size) < edge_probability)
    if not chosen.size:
        chosen = np.array([int(rng.integers(rows.size))])
    draws = rng.uniform(size=(chosen.size, 2))
    magnitude = coupling_range[0] + (coupling_range[1] - coupling_range[0]) * draws[:, 0]
    arr[rows[chosen], cols[chosen]] = np.where(draws[:, 1] < 0.5, magnitude, -magnitude)
    arr += arr.T
    row_sums = np.sum(np.abs(arr), axis=1)
    arr[np.diag_indices(p)] = row_sums + rng.uniform(*margin_range, size=p)
    return PrecisionMatrix(arr)


def random_omega_inf_member(
    p: int,
    alpha: float,
    h: float,
    rng: np.random.Generator,
    *,
    extremal: bool = False,
) -> PrecisionMatrix:
    """Random member of the entrywise class: diagonals <= h, every coupling
    magnitude >= alpha, PD through strict diagonal dominance.

    With extremal=True an isolated pair with diagonals exactly h and
    coupling exactly +/- alpha is embedded; since every other edge has
    magnitude >= alpha against diagonals <= h, that pair attains the
    class's worst-case one-edge bound exactly.
    """
    p = _checked_size("p", p, 2)
    if not (0.0 < alpha < h):
        raise InvalidParameters(f"requires 0 < alpha < h, got alpha={alpha}, h={h}")
    arr = np.zeros((p, p))
    row_sums = np.zeros(p)
    degrees = np.zeros(p, dtype=int)
    blocked: set[int] = set()
    if extremal:
        u, v = p - 2, p - 1
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        arr[u, v] = arr[v, u] = sign * alpha
        blocked = {u, v}

    high = max(alpha, min(1.25 * alpha, 0.45 * h))
    cap = max(1, min(3, int(0.9 * h / high)))
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p) if not blocked & {i, j}]
    order = rng.permutation(len(pairs)) if pairs else []
    target_edges = max(1, int(0.4 * p))
    placed = 0
    for k in order:
        if placed >= target_edges:
            break
        i, j = pairs[int(k)]
        magnitude = rng.uniform(alpha, high)
        if (
            degrees[i] < cap
            and degrees[j] < cap
            and row_sums[i] + magnitude <= 0.95 * h
            and row_sums[j] + magnitude <= 0.95 * h
        ):
            arr[i, j] = arr[j, i] = magnitude if rng.uniform() < 0.5 else -magnitude
            row_sums[i] += magnitude
            row_sums[j] += magnitude
            degrees[i] += 1
            degrees[j] += 1
            placed += 1
    if placed == 0 and not extremal:
        # couplings near h leave no room under the row-sum guard; one edge
        # with diagonals h is still strictly dominant because alpha < h
        arr[0, 1] = arr[1, 0] = alpha if rng.uniform() < 0.5 else -alpha
    row_sums = np.sum(np.abs(arr), axis=1)
    headroom = h - row_sums
    diag = row_sums + rng.uniform(0.2, 1.0, size=p) * headroom
    if extremal:
        diag[p - 2] = h
        diag[p - 1] = h
    arr[np.diag_indices(p)] = diag
    return PrecisionMatrix(arr)


def _checked_fields(what: str, doc: Mapping, defaults: object) -> dict:
    # Checks JSON values against the types of the defaults' fields: bool
    # for bool, integer for int, any number for float, and a list of
    # integers for a tuple. Nested objects are left to the caller.
    unknown = set(doc) - {f.name for f in dataclasses.fields(defaults)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in doc.items():
        default = getattr(defaults, key)
        if isinstance(default, bool):
            ok = isinstance(value, bool)
        elif isinstance(default, int):
            ok = _is_int(value)
        elif isinstance(default, float):
            ok = _is_int(value) or isinstance(value, float)
        elif isinstance(default, tuple):
            ok = isinstance(value, (list, tuple)) and all(_is_int(v) for v in value)
        else:
            ok = True
        if not ok:
            raise ValueError(f"{what} key {key!r} has a value of the wrong type: {value!r}")
    return dict(doc)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration for the randomized experiment drivers.

    dimensions is the p-grid for the lower-bound sweep and supplies the
    (single) model order for the selection sweep; sample_sizes is the
    n-grid for selection. Unused fields are ignored by a given driver.
    base_seed, trials and the grids take integers (numpy integers too,
    never bools or floats).
    """

    base_seed: int = 0
    trials: int = 100
    dimensions: tuple[int, ...] = (3, 5, 8)
    sample_sizes: tuple[int, ...] = (250, 1000, 4000)
    gamma: float = 10.0
    use_true_diagonal: bool = False
    include_population: bool = True
    perturbation_scale: float = 0.25
    chain_diagonal: float = 2.0
    chain_coupling: float = 1.0
    fit: FitOptions = field(default_factory=FitOptions)

    def __post_init__(self) -> None:
        if not all(map(_is_int, (self.base_seed, self.trials, *self.dimensions, *self.sample_sizes))):
            raise InvalidParameters("base_seed, trials, dimensions and sample_sizes take integers only")
        object.__setattr__(self, "dimensions", tuple(int(p) for p in self.dimensions))
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        if self.base_seed < 0:
            raise InvalidParameters("base_seed must be a nonnegative integer")
        if self.trials < 1:
            raise InvalidParameters("trials must be >= 1")
        if not self.dimensions or any(p < 2 for p in self.dimensions):
            raise InvalidParameters("dimensions must be a nonempty grid of integers >= 2")
        if not self.sample_sizes or any(n < 1 for n in self.sample_sizes):
            raise InvalidParameters("sample_sizes must be a nonempty grid of integers >= 1")
        if not self.gamma > 0:
            raise InvalidParameters("gamma must be positive")
        if not 0 <= self.perturbation_scale < math.inf:
            raise InvalidParameters("perturbation_scale must be finite and >= 0")

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ExperimentConfig":
        """Parse a JSON config document; ValueError names any unknown key or
        any value of the wrong type, InvalidParameters a value out of range."""
        kwargs = _checked_fields("config", doc, cls())
        if "fit" in kwargs:
            if not isinstance(kwargs["fit"], Mapping):
                raise ValueError("fit must be an object of fit options")
            kwargs["fit"] = FitOptions(**_checked_fields("fit", kwargs["fit"], FitOptions()))
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Per-trial records plus per-grid-point aggregates for one experiment.

    Serialization is deterministic (sorted keys, fixed float format), so a
    rerun with the same configuration reproduces the files byte for byte.
    The CSV has one row per aggregate, with the aggregate's keys as columns.
    """

    kind: str
    config: dict
    records: tuple
    aggregates: tuple
    extras: dict

    def to_json(self) -> str:
        # vars, not dataclasses.asdict, which deep-copies every record
        return dumps(vars(self)) + "\n"

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.aggregates[0])
        writer.writerows([dumps(value) for value in row.values()] for row in self.aggregates)
        return buffer.getvalue()

    def write(self, directory: Union[str, Path]) -> tuple[Path, Path]:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        json_path = directory / f"{self.kind}_report.json"
        csv_path = directory / f"{self.kind}_aggregates.csv"
        json_path.write_text(self.to_json())
        csv_path.write_text(self.to_csv())
        return json_path, csv_path


_Progress = Optional[Callable[[str], None]]


def _run_grid(
    kind: str, cfg: ExperimentConfig, key: str, values: tuple[int, ...],
    trial: Callable[[int, int, int], dict], aggregate: Callable[[int, list], dict],
    extras: Callable[[list], dict], progress: _Progress, tally: Callable[[list], str],
) -> ExperimentReport:
    """Seeded grid skeleton: trial t at values[g] gets the seed
    trial_seed(cfg.base_seed, g, t) and yields the record {key: value,
    "trial": t, "seed": seed, **trial(value, t, seed)}, in grid-then-trial
    order. Each grid value then gets the aggregate row {key: value,
    **aggregate(value, rows)} over its own records and one progress line
    ending in tally(rows); extras(records) runs last."""
    records: list = []
    aggregates: list = []
    for grid_index, value in enumerate(values):
        rows = []
        for index in range(cfg.trials):
            seed = trial_seed(cfg.base_seed, grid_index, index)
            rows.append({key: value, "trial": index, "seed": seed, **trial(value, index, seed)})
        records += rows
        aggregates.append({key: value, **aggregate(value, rows)})
        if progress is not None:
            progress(f"{kind}: {key}={value} done ({tally(rows)})")
    return ExperimentReport(kind, cfg.to_dict(), tuple(records), tuple(aggregates), extras(records))


def run_counterexample_experiment(d_values: Iterable[int]) -> ExperimentReport:
    """Sweep the flat-KL family: delete the whole star around the first
    vertex and record the exact divergence next to the one-edge bound.

    The divergence sits at 0.5 * log 2 for every d while the bound does
    not grow, evidence that KL separation does not scale with the number
    of discrepant edges. Failures are recorded in the report, never
    raised. A d that is not an integer (a float, bool or string) raises
    ValueError naming it.
    """
    ds = list(d_values)
    if not all(map(_is_int, ds)):
        raise ValueError(f"d_values must be integers, got {ds!r}")
    ds = [int(d) for d in ds]
    if not ds or any(d < 1 for d in ds):
        raise InvalidParameters(f"d_values must be a nonempty list of integers >= 1, got {ds}")
    records = []
    for d in ds:
        theta1 = counterexample_precision(d)
        theta2 = project_remove_star(theta1, 0, range(1, d + 1))
        kl = kl_gaussian(theta1, theta2)
        bound = one_edge_lower_bound(theta1)
        records.append(
            {
                "d": d,
                "kl": kl,
                "bound": bound,
                "kl_deviation": abs(kl - HALF_LOG_2),
                "within_tolerance": bool(abs(kl - HALF_LOG_2) < _COUNTEREXAMPLE_TOL),
                "bound_le_kl": bool(bound <= kl + 1e-12),
            }
        )
    extras = {
        "kl_reference": HALF_LOG_2,
        "max_kl_deviation": max(r["kl_deviation"] for r in records),
        "all_within_tolerance": all(r["within_tolerance"] for r in records),
        "all_bounds_hold": all(r["bound_le_kl"] for r in records),
    }
    return ExperimentReport("counterexample", {"d_values": ds}, tuple(records), tuple(records), extras)


_LOWER_BOUND_METHODS = (
    "project_random_edge",
    "project_argmin_edge",
    "perturbed_reprojection",
    "extremal_high_signal",
)

_EXTREMAL_SIGNAL_RATIOS = (0.9, 0.99, 0.999)


def _perturbed_missing_edge(
    theta_star: PrecisionMatrix,
    removed: tuple[int, int],
    rng: np.random.Generator,
    scale: float,
) -> PrecisionMatrix:
    """Random feasible perturbation of the edge-deleted projection,
    re-projected so the removed edge stays absent."""
    base = project_remove_edge(theta_star, removed)
    arr = np.array(base.matrix)
    noise = rng.standard_normal(arr.shape)
    noise = 0.5 * (noise + noise.T)
    noise[removed[0], removed[1]] = noise[removed[1], removed[0]] = 0.0
    step = scale * float(np.mean(np.abs(arr)))
    for _ in range(60):
        try:
            perturbed = PrecisionMatrix(arr + step * noise)
        except NotPositiveDefinite:
            step *= 0.5
            continue
        return project_remove_edge(perturbed, removed)
    return base


def run_lower_bound_experiment(cfg: ExperimentConfig, progress: _Progress = None) -> ExperimentReport:
    """Randomized verification that deleting any true edge costs at least
    half the log separation constant in KL.

    Four generation methods cycle per trial: delete a random true edge by
    projection, delete the edge attaining the separation constant (the
    slack is then ~0), perturb-and-reproject, and a high-signal member
    whose coupling sits close to its diagonal bound (the class bound grows
    without cap there). Each record carries the one-edge slack and, since
    every instance lies in an entrywise class measured from its own
    entries, the class-bound slack too.
    """

    def trial(p: int, index: int, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        method = _LOWER_BOUND_METHODS[index % len(_LOWER_BOUND_METHODS)]
        if method == "extremal_high_signal":
            ratio = _EXTREMAL_SIGNAL_RATIOS[(index // len(_LOWER_BOUND_METHODS)) % len(_EXTREMAL_SIGNAL_RATIOS)]
            h = float(rng.uniform(1.0, 3.0))
            theta_star = random_omega_inf_member(p, ratio * h, h, rng, extremal=True)
        else:
            theta_star = random_sparse_precision(p, rng)
        edges = sorted(edge_set_of(theta_star))
        argmin_edge = min(edges, key=lambda e: conditional_mutual_info(theta_star, *e))
        if method in ("project_argmin_edge", "extremal_high_signal"):
            removed = argmin_edge
        else:
            removed = edges[int(rng.integers(len(edges)))]
        if method == "perturbed_reprojection":
            theta = _perturbed_missing_edge(theta_star, removed, rng, cfg.perturbation_scale)
        else:
            theta = project_remove_edge(theta_star, removed)
        report = verify_separation(theta_star, theta)
        alpha_eff = min(abs(float(theta_star.matrix[edge])) for edge in edges)
        class_bound = omega_inf_lower_bound(alpha_eff, float(np.max(np.diag(theta_star.matrix))))
        return {
            "method": method,
            "removed_edge": list(removed),
            "removed_argmin": bool(removed == argmin_edge),
            "kl": report.kl_value,
            "bound": report.lower_bound,
            "slack": report.slack,
            "class_bound": class_bound,
            "class_slack": report.kl_value - class_bound,
        }

    def aggregate(p: int, rows: list) -> dict:
        return {
            "trials": len(rows),
            "min_slack": min(r["slack"] for r in rows),
            "mean_kl": float(np.mean([r["kl"] for r in rows])),
            "min_class_slack": min(r["class_slack"] for r in rows),
            "max_class_bound": max(r["class_bound"] for r in rows),
        }

    def extras(records: list) -> dict:
        # clean projection at the separation-attaining edge is exact equality;
        # perturbed trials can remove that edge too but pay extra KL
        tight = [
            abs(r["slack"])
            for r in records
            if r["removed_argmin"] and r["method"] != "perturbed_reprojection"
        ]
        return {
            "min_slack": min(r["slack"] for r in records),
            "min_class_slack": min(r["class_slack"] for r in records),
            "max_class_bound": max(r["class_bound"] for r in records),
            "max_tight_slack": max(tight) if tight else None,
        }

    return _run_grid(
        "lower-bound", cfg, "p", cfg.dimensions, trial, aggregate, extras, progress,
        lambda rows: f"{len(rows)} trials",
    )


def _wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    phat = successes / trials
    denominator = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denominator
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denominator
    return max(0.0, center - half), min(1.0, center + half)


def _selection_truth(cfg: ExperimentConfig) -> PrecisionMatrix:
    """The selection sweep's true chain, checked against the config."""
    p = cfg.dimensions[0]
    try:
        theta_star = chain_precision(p, cfg.chain_diagonal, cfg.chain_coupling)
    except (NotPositiveDefinite, ValueError):
        raise InvalidParameters(
            f"chain_diagonal={cfg.chain_diagonal} and chain_coupling={cfg.chain_coupling} "
            f"give no positive definite chain at p={p}"
        ) from None
    if float(np.linalg.norm(theta_star.matrix)) > cfg.gamma:
        raise InvalidParameters(
            f"gamma={cfg.gamma} excludes the true model (norm {np.linalg.norm(theta_star.matrix):.3f})"
        )
    return theta_star


def run_selection_experiment(cfg: ExperimentConfig, progress: _Progress = None) -> ExperimentReport:
    """Sample-size sweep of the likelihood selector on a chain model.

    The true model is a chain on p = dimensions[0] vertices; the rivals
    are its single-edge deletions, each missing exactly one true edge.
    Per (n, trial): draw a sample, estimate the covariance (optionally
    with the exact diagonal patched in), select the minimum-score graph,
    and record whether the truth won. Aggregates carry success rates with
    95% Wilson intervals and the mean score margin over the best rival;
    with include_population=True the sweep is repeated once against the
    exact covariance, where selection must succeed outright. Extras count
    the candidate fits that returned converged=False (unconverged_fits),
    population pass included. A chain that is not positive definite, or
    lies outside the gamma-ball, raises InvalidParameters naming the keys.
    """
    p = cfg.dimensions[0]
    theta_star = _selection_truth(cfg)
    true_graph = edge_set_of(theta_star)
    alternatives = [true_graph.without(edge) for edge in sorted(true_graph)]
    for alt in alternatives:
        if not true_graph.difference(alt):
            raise InvalidCandidates("an alternative candidate misses no true edge")
    collection = CandidateCollection((true_graph, *alternatives))
    sigma_star = invert(theta_star)
    unconverged = 0

    def trial(n: int, index: int, seed: int) -> dict:
        nonlocal unconverged
        sigma_hat = empirical_covariance(sample(theta_star, n, seed))
        if cfg.use_true_diagonal:
            sigma_hat = corrected_covariance(sigma_hat, np.diag(sigma_star.matrix))
        result = select_graph(collection, sigma_hat, cfg.gamma, cfg.fit)
        unconverged += len(result.unconverged)
        return {
            "selected_index": result.selected_index,
            "success": bool(result.selected_index == 0),
            "score_margin": min(result.scores[1:]) - result.scores[0],
        }

    def aggregate(n: int, rows: list) -> dict:
        successes = sum(1 for r in rows if r["success"])
        ci_low, ci_high = _wilson_interval(successes, len(rows))
        return {
            "p": p,
            "s": collection.s,
            "success_rate": successes / len(rows),
            "ci_low": ci_low,
            "ci_high": ci_high,
            "mean_gap": float(np.mean([r["score_margin"] for r in rows])),
        }

    def extras(records: list) -> dict:
        nonlocal unconverged
        doc: dict = {"separation_constant": c_theta_star(theta_star)}
        if cfg.include_population:
            population = select_graph(collection, sigma_star, cfg.gamma, cfg.fit)
            unconverged += len(population.unconverged)
            gaps = [s - population.scores[0] for s in population.scores[1:]]
            doc["population"] = {
                "selected_index": population.selected_index,
                "success": bool(population.selected_index == 0),
                "score_gaps": gaps,
                "min_gap": min(gaps),
            }
        doc["unconverged_fits"] = unconverged
        return doc

    return _run_grid(
        "selection", cfg, "n", cfg.sample_sizes, trial, aggregate, extras, progress,
        lambda rows: f"{sum(r['success'] for r in rows)}/{len(rows)} successes",
    )


EXPERIMENT_KINDS = ("counterexample", "lower-bound", "selection")


def run_experiment(kind: str, doc: Mapping, progress: _Progress = None) -> ExperimentReport:
    """Run one experiment of EXPERIMENT_KINDS from its JSON config document.

    counterexample takes {"d_values": [...]}, the other kinds the fields of
    ExperimentConfig. ValueError names an unknown kind or key and a value
    of the wrong type or out of range, including a selection chain that the
    chain keys or gamma rule out.
    """
    if kind not in EXPERIMENT_KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    try:
        if kind == "counterexample":
            if set(doc) != {"d_values"} or not isinstance(doc["d_values"], list):
                raise ValueError(f"counterexample config takes only d_values (integers), got keys {sorted(doc)}")
            return run_counterexample_experiment(doc["d_values"])
        cfg = ExperimentConfig.from_dict(doc)
        if kind == "selection":
            _selection_truth(cfg)
    except InvalidParameters as exc:
        raise ValueError(f"{kind} config value out of range: {exc}") from None
    driver = run_lower_bound_experiment if kind == "lower-bound" else run_selection_experiment
    return driver(cfg, progress)
