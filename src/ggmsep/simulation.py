"""Gaussian sampling, model generators, and reproducible experiment drivers.

``sample`` draws n rows from N(0, inv(theta)); ``sample_covariance``, which
the selection driver uses, draws their sample covariance from its Wishart law.

The three ``run_*_experiment`` functions numerically exercise the package's
guarantees: the flat-KL family (deleting a whole star costs 0.5*log 2 no
matter how many edges go), the randomized one-edge separation bound, and
the sample-size behavior of likelihood-based graph selection.
``run_experiment`` runs any of them from a JSON config document.

The lower-bound and selection drivers are each a trials function (grid
value, the seeds of its trials) -> record fields of every trial and an
aggregate function (grid value, records) -> row fields, run by one
skeleton, ``_run_grid``, that owns the loop, seeding, record layout and
progress, and calls the trials function once per grid value. The
selection driver runs its trials one by one; the lower-bound driver runs
the trials of one p as one stack of matrices. Reproducibility contract:
trial t at grid index g draws only from its own generator, seeded by
``trial_seed(base_seed, g, t)``, and records come in grid-then-trial
order, so identical configurations produce byte-identical reports.
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

from .core import (
    CovarianceMatrix,
    PrecisionMatrix,
    _check_adoptable,
    _checked_size,
    _cholesky_lower,
    _edge_mask,
    _is_real,
    _potrf,
    _spd_inverse,
    _trtrs,
    _upper_pairs,
    edge_set_of,
    invert,
)
from .divergence import (
    _kl_divergences,
    _pair_information,
    _separation_constants,
    c_theta_star,
    kl_gaussian,
    omega_inf_lower_bound,
    one_edge_lower_bound,
)
from .errors import (
    InvalidDiagonal,
    InvalidParameters,
    NoMissingEdge,
    NotPositiveDefinite,
)
from .projection import FitOptions, _sever, project_remove_star
from .selection import CandidateCollection, select_graph
from .serialization import dumps, number_from_doc

__all__ = [
    "SampleMatrix",
    "ExperimentConfig",
    "ExperimentReport",
    "trial_seed",
    "sample",
    "sample_covariance",
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

    @classmethod
    def _validated(cls, rows: np.ndarray) -> "SampleMatrix":
        """Sample over finite (n >= 1, p >= 2) rows, frozen but not copied."""
        rows.flags.writeable = False
        draws = cls.__new__(cls)
        object.__setattr__(draws, "rows", rows)
        return draws

    @property
    def n(self) -> int:
        return int(self.rows.shape[0])

    @property
    def p(self) -> int:
        return int(self.rows.shape[1])


def trial_seed(base_seed: int, grid_index: int, trial_index: int) -> int:
    """Fixed mixing of (base seed, grid position, trial index) into one
    64-bit seed; the single entry point for randomness in experiments.
    Each argument must be an integer >= 0 (InvalidParameters names it)."""
    key = (_checked_size("grid_index", grid_index, 0), _checked_size("trial_index", trial_index, 0))
    ss = np.random.SeedSequence(entropy=_checked_size("base_seed", base_seed, 0), spawn_key=key)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _draw_args(theta: object, n: object, seed: object) -> tuple[int, np.random.Generator]:
    # a covariance here would be drawn from as if it were a precision
    if not isinstance(theta, PrecisionMatrix):
        raise InvalidParameters(f"theta must be a PrecisionMatrix, got {type(theta).__name__}")
    return _checked_size("n", n, 1), np.random.default_rng(_checked_size("seed", seed, 0))


def sample(theta: PrecisionMatrix, n: int, seed: int) -> SampleMatrix:
    """n i.i.d. draws from N(0, inv(theta)); identical arguments give
    identical bits. theta must be a PrecisionMatrix, n an integer >= 1 and
    seed one >= 0; InvalidParameters names the argument that is not.

    Standard normals from a seeded generator are pushed through the
    inverse transpose of theta's Cholesky factor: solving L^T x = z gives
    Cov(x) = inv(L L^T) = inv(theta). A caller that needs only the sample
    covariance of the draws can take sample_covariance, whose cost does
    not grow with n.
    """
    n, rng = _draw_args(theta, n, seed)
    z = rng.standard_normal((n, theta.p))
    # z.T is Fortran-ordered, so dtrtrs solves these finite draws in place
    return SampleMatrix._validated(_trtrs(theta._factor.T, z.T, lower=False, overwrite_b=True).T)


def sample_covariance(theta: PrecisionMatrix, n: int, seed: int) -> CovarianceMatrix:
    """The known-zero-mean sample covariance of n i.i.d. draws from
    N(0, inv(theta)), drawn from its law in O(p^3) at every n; identical
    arguments give identical bits. theta, n and seed are checked as sample
    checks them.

    n times it is Wishart_p(n, inv(theta)) = L^-T R^T R L^-1 (Bartlett's
    decomposition; Muirhead 1982, Thm 3.2.14), where theta = L L^T and R,
    the min(n, p) x p R of the QR factorization of n x p standard normals,
    has N(0, 1) above its diagonal and R_ii = sqrt(chi2(n - i)) on it. The
    generator draws R's rows as a full normal block, then the chi-squares.
    The law is that of empirical_covariance(sample(...)), not the bits;
    for n < p the estimate is singular with rank n.
    """
    n, rng = _draw_args(theta, n, seed)
    m = min(n, theta.p)
    r = np.triu(rng.standard_normal((m, theta.p)))
    r[np.diag_indices(m)] = np.sqrt(rng.chisquare(n - np.arange(m)))
    # solve L^T v = R^T, as sample solves L^T x = z, so that V V^T = n * estimate
    v = _trtrs(theta._factor.T, r.T, lower=False, overwrite_b=True)
    return CovarianceMatrix._validated(v @ v.T / n)


def empirical_covariance(x: SampleMatrix) -> CovarianceMatrix:
    """Known-zero-mean estimate (1/n) * sum of outer products, no mean
    subtraction. PSD always; singular whenever n < p."""
    return CovarianceMatrix._validated(x.rows.T @ x.rows / x.n)


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
    return CovarianceMatrix._validated(out)


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
    return PrecisionMatrix._validated(arr)


def chain_precision(p: int, diagonal: float = 2.0, coupling: float = 1.0) -> PrecisionMatrix:
    """Path-graph precision: `diagonal` on the diagonal and `coupling` on
    the first off-diagonals. The default (2, 1) is positive definite for
    every p since the smallest eigenvalue is 2 - 2 cos(pi / (p + 1))."""
    p = _checked_size("p", p, 2)
    arr = np.diag(np.full(p, float(diagonal)))
    idx = np.arange(p - 1)
    arr[idx, idx + 1] = float(coupling)
    arr[idx + 1, idx] = float(coupling)
    return PrecisionMatrix._validated(arr)


def random_sparse_precision(
    p: int,
    rng: np.random.Generator,
    *,
    edge_probability: float = 0.35,
) -> PrecisionMatrix:
    """Random PD precision with random off-diagonal support.

    Couplings get uniform magnitudes in [0.3, 1.0) and random signs on a
    Bernoulli edge set (at least one edge is forced); each diagonal is the
    absolute row sum plus a uniform margin in [0.3, 1.2), so the matrix is
    strictly diagonally dominant and therefore PD. Uniforms come as arrays:
    one per pair in row-major order, then a magnitude and a sign per chosen
    pair.
    """
    p = _checked_size("p", p, 2)
    return PrecisionMatrix._validated(_sparse_precision_entries(p, [rng], edge_probability)[0])


def _sparse_precision_entries(p: int, rngs: list[np.random.Generator], edge_probability: float = 0.35) -> np.ndarray:
    # random_sparse_precision's entries, unvalidated, as a (len(rngs), p, p)
    # stack: each generator makes its own draws, and the stack is built from
    # them in one pass
    rows, cols = _upper_pairs(p)
    chosen, draws, margins = [], [], []
    for rng in rngs:
        pairs = np.flatnonzero(rng.uniform(size=rows.size) < edge_probability)
        if not pairs.size:
            pairs = np.array([int(rng.integers(rows.size))])
        chosen.append(pairs)
        draws.append(rng.uniform(size=(pairs.size, 2)))
        margins.append(rng.uniform(0.3, 1.2, size=p))
    chosen_pairs, drawn = np.concatenate(chosen), np.concatenate(draws)
    owner = np.repeat(np.arange(len(rngs)), [pairs.size for pairs in chosen])
    magnitude = 0.3 + 0.7 * drawn[:, 0]
    arr = np.zeros((len(rngs), p, p))
    arr[owner, rows[chosen_pairs], cols[chosen_pairs]] = np.where(drawn[:, 1] < 0.5, magnitude, -magnitude)
    arr += arr.swapaxes(-1, -2)
    diag = np.arange(p)
    arr[:, diag, diag] = np.sum(np.abs(arr), axis=-1) + np.stack(margins)
    return arr


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
    if not (0.0 < alpha < h < math.inf):
        raise InvalidParameters(f"requires 0 < alpha < h and a finite h, got alpha={alpha}, h={h}")
    return PrecisionMatrix._validated(_omega_inf_entries(p, alpha, h, rng, extremal))


def _omega_inf_entries(p: int, alpha: float, h: float, rng: np.random.Generator, extremal: bool) -> np.ndarray:
    # random_omega_inf_member's draws and entries, unvalidated
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
    return arr


def _known_keys(what: str, doc: Mapping, cls: type) -> dict:
    """doc as keyword arguments of the dataclass cls; ValueError names any
    key that is not one of its fields."""
    unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return dict(doc)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration for the randomized experiment drivers.

    dimensions is the p-grid for the lower-bound sweep and supplies the
    (single) model order for the selection sweep; sample_sizes is the
    n-grid for selection. Unused fields are ignored by a given driver.
    base_seed, trials and the grids take integers (numpy integers too, never
    bools or floats), the flags bools, the reals ints or floats, fit a
    FitOptions. Construction is the one check of every field, its type and
    its range: InvalidParameters names the field that fails.
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
        _checked_size("base_seed", self.base_seed, 0)
        _checked_size("trials", self.trials, 1)
        for name, minimum in (("dimensions", 2), ("sample_sizes", 1)):
            grid = getattr(self, name)
            try:
                grid = tuple(_checked_size(f"{name}[{k}]", v, minimum) for k, v in enumerate(grid))
            except TypeError:
                raise InvalidParameters(f"{name} must be a sequence of integers, got {grid!r}") from None
            if not grid:
                raise InvalidParameters(f"{name} must be a nonempty grid of integers >= {minimum}")
            object.__setattr__(self, name, grid)
        for name in ("use_true_diagonal", "include_population"):
            if not isinstance(getattr(self, name), bool):
                raise InvalidParameters(f"{name} must be a bool, got {getattr(self, name)!r}")
        for name in ("gamma", "perturbation_scale", "chain_diagonal", "chain_coupling"):
            if not _is_real(getattr(self, name)):
                raise InvalidParameters(f"{name} must be a real number, got {getattr(self, name)!r}")
        if not self.gamma > 0:
            raise InvalidParameters(f"gamma must be positive, got {self.gamma!r}")
        if not 0 <= self.perturbation_scale < math.inf:
            raise InvalidParameters(f"perturbation_scale must be finite and >= 0, got {self.perturbation_scale!r}")
        if not isinstance(self.fit, FitOptions):
            raise InvalidParameters(f"fit takes a FitOptions only, got {type(self.fit).__name__}")

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ExperimentConfig":
        """Parse a JSON config document (dumps' strings for non-finite
        floats read back). ValueError names an unknown key, in the config or
        its fit object, and a fit that is not an object; construction checks
        every value, so InvalidParameters names a bad type or range."""
        kwargs = {key: number_from_doc(value) for key, value in _known_keys("config", doc, cls).items()}
        if "fit" in kwargs:
            if not isinstance(kwargs["fit"], Mapping):
                raise ValueError("fit must be an object of fit options")
            kwargs["fit"] = FitOptions(**_known_keys("fit", kwargs["fit"], FitOptions))
        return cls(**kwargs)

    def to_dict(self) -> dict:
        # dataclasses.asdict's dict, without its recursive deep copy
        return {**vars(self), "fit": dict(vars(self.fit))}


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Per-trial records plus per-grid-point aggregates for one experiment.

    Serialization is deterministic (sorted keys, shortest-repr floats), so
    a rerun with the same configuration reproduces the files byte for byte.
    The CSV has one row per aggregate, the aggregate's keys as columns and
    a JSON scalar in every cell (a container raises TypeError naming its
    column).
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
        cells = []
        for row in self.aggregates:
            for column, value in row.items():
                if isinstance(value, (dict, list, tuple)):
                    raise TypeError(f"CSV column {column!r} holds a {type(value).__name__}, not a scalar")
                cells.append(value)
        # one encode of every cell: a scalar's JSON text holds no raw
        # newline, so the list's item separator splits it exactly
        texts = iter(dumps(cells)[len("[\n  "):-len("\n]")].split(",\n  "))
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.aggregates[0])
        writer.writerows([next(texts) for _ in row] for row in self.aggregates)
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
    trials: Callable[[int, list[int]], list[dict]], aggregate: Callable[[int, list], dict],
    extras: Callable[[list], dict], progress: _Progress, tally: Callable[[list], str],
) -> ExperimentReport:
    """Seeded grid skeleton: trial t at values[g] gets the seed
    trial_seed(cfg.base_seed, g, t). trials(value, seeds) returns the fields
    of every trial at that value, in trial order, and trial t's record is
    {key: value, "trial": t, "seed": seed, **fields[t]}, in grid-then-trial
    order. Each grid value then gets the aggregate row {key: value,
    **aggregate(value, rows)} over its own records and one progress line
    ending in tally(rows); extras(records) runs last."""
    records: list = []
    aggregates: list = []
    for grid_index, value in enumerate(values):
        seeds = [trial_seed(cfg.base_seed, grid_index, index) for index in range(cfg.trials)]
        rows = [
            {key: value, "trial": index, "seed": seed, **fields}
            for index, (seed, fields) in enumerate(zip(seeds, trials(value, seeds), strict=True))
        ]
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
    raised. An empty d_values, or a d that is not an integer >= 1 (a
    float, bool or string too), raises InvalidParameters naming it.
    """
    ds = [_checked_size(f"d_values[{k}]", d, 1) for k, d in enumerate(d_values)]
    if not ds:
        raise InvalidParameters("d_values must be a nonempty list of integers >= 1")
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

# step halvings a perturbed candidate gets before the plain projection is kept
_PERTURBATION_HALVINGS = 60


def _weakest_edges(arr: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """For each matrix of a (k, p, p) stack, the index into _upper_pairs of
    the first edge (edge is the (k, pairs) support mask) with the smallest
    conditional_mutual_info, as min(sorted edges, key=...) picks it.

    The information increases with t_ij^2 / (t_ii t_jj). One pass over that
    ratio keeps the edges within 1e-12 relative of each matrix's minimum, a
    margin far above rounding; their informations can round to a tie, so
    only they are ranked by the information itself.
    """
    rows, cols = _upper_pairs(arr.shape[-1])
    diag = np.diagonal(arr, axis1=-2, axis2=-1)
    ratio = np.where(edge, arr[:, rows, cols] ** 2 / (diag[:, rows] * diag[:, cols]), np.inf)
    near = ratio <= ratio.min(axis=1, keepdims=True) * (1.0 + 1e-12)
    weakest = np.argmax(near, axis=1)
    for k in np.flatnonzero(near.sum(axis=1) > 1):
        weakest[k] = min(np.flatnonzero(near[k]), key=lambda e: _pair_information(arr[k], rows[e], cols[e]))
    return weakest


def _perturbed_candidates(base: np.ndarray, noise: np.ndarray, scale: float) -> tuple[np.ndarray, ...]:
    """Random feasible points near a stack of edge-deleted projections that
    miss the deleted edge, with their lower Cholesky factors.

    Matrix t is moved by step * noise[t] (noise symmetric and exactly zero
    at the deleted edge, so the candidate is too) with step = scale * mean
    |base[t]|. A candidate is checked as PrecisionMatrix._validated adopts
    one: finite and exactly symmetric (_check_adoptable), then factored
    once by _potrf, and kept with that factor if it has finite entries.
    One that fails halves its step and tries again, at most
    _PERTURBATION_HALVINGS times, in a stack that shrinks as candidates
    pass. Returns the indices of the matrices whose candidate passed,
    those candidates and their factors; the others get none.
    """
    step = scale * np.mean(np.abs(base), axis=(-2, -1))
    pending = np.arange(len(base))
    passed, candidates, factors = [], [], []
    for _ in range(_PERTURBATION_HALVINGS):
        trial = base[pending] + step[pending, None, None] * noise[pending]
        _check_adoptable(trial)
        lower = [_potrf(matrix) for matrix in trial]
        ok = np.array([factor is not None and np.isfinite(factor).all() for factor in lower])
        passed.append(pending[ok])
        candidates.append(trial[ok])
        factors += [factor for factor, good in zip(lower, ok) if good]
        pending = pending[~ok]
        if not pending.size:
            break
        step[pending] *= 0.5
    return np.concatenate(passed), np.concatenate(candidates), np.array(factors).reshape(-1, *base.shape[1:])


def _lower_bound_trials(cfg: ExperimentConfig, p: int, seeds: list[int]) -> list[dict]:
    """The record fields of every lower-bound trial at one p, as one stack.

    Trial t draws from its own generator, seeded by seeds[t], in this
    order: the entries of theta_star, then the index of a random edge
    (random and perturbed trials), then the perturbation noise (perturbed
    trials). The stack is validated once, and the projections, bounds and
    divergences of all its matrices are computed together.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    methods = [_LOWER_BOUND_METHODS[t % len(_LOWER_BOUND_METHODS)] for t in range(len(seeds))]
    extremal = [t for t, method in enumerate(methods) if method == "extremal_high_signal"]
    sparse = [t for t, method in enumerate(methods) if method != "extremal_high_signal"]
    star = np.empty((len(seeds), p, p))
    star[sparse] = _sparse_precision_entries(p, [rngs[t] for t in sparse])
    for t in extremal:
        ratio = _EXTREMAL_SIGNAL_RATIOS[(t // len(_LOWER_BOUND_METHODS)) % len(_EXTREMAL_SIGNAL_RATIOS)]
        h = float(rngs[t].uniform(1.0, 3.0))
        star[t] = _omega_inf_entries(p, ratio * h, h, rngs[t], extremal=True)
    _check_adoptable(star)
    star_lower = _cholesky_lower(star)

    rows, cols = _upper_pairs(p)
    edge = _edge_mask(star)
    weakest = _weakest_edges(star, edge)
    removed = weakest.copy()
    for t, (method, rng) in enumerate(zip(methods, rngs)):
        if method in ("project_random_edge", "perturbed_reprojection"):
            choices = np.flatnonzero(edge[t])
            removed[t] = choices[int(rng.integers(choices.size))]
    v, u = rows[removed], cols[removed]
    theta, lower = _sever(star, v, u[:, None])

    perturbed = np.array([t for t, method in enumerate(methods) if method == "perturbed_reprojection"], dtype=int)
    if perturbed.size:
        noise = np.stack([rngs[t].standard_normal((p, p)) for t in perturbed])
        noise = 0.5 * (noise + noise.swapaxes(-1, -2))
        index = np.arange(perturbed.size)
        noise[index, v[perturbed], u[perturbed]] = noise[index, u[perturbed], v[perturbed]] = 0.0
        done, candidates, factors = _perturbed_candidates(theta[perturbed], noise, cfg.perturbation_scale)
        theta, lower = theta.copy(), lower.copy()
        theta[perturbed[done]], lower[perturbed[done]] = candidates, factors

    # verify_separation's check, bound and divergence, for every matrix
    if not (edge & ~_edge_mask(theta)).any(axis=1).all():
        raise NoMissingEdge("every edge of theta_star is present in theta")
    kls = _kl_divergences(star, np.stack([_spd_inverse(l) for l in star_lower]), star_lower, theta, lower)
    bounds = [0.5 * math.log(c) for c in _separation_constants(star, edge).tolist()]
    alphas = np.min(np.where(edge, np.abs(star[:, rows, cols]), np.inf), axis=1).tolist()
    heights = np.max(np.diagonal(star, axis1=-2, axis2=-1), axis=1).tolist()
    fields = []
    for t, method in enumerate(methods):
        kl, bound = kls[t], bounds[t]
        class_bound = omega_inf_lower_bound(alphas[t], heights[t])
        fields.append({
            "method": method,
            "removed_edge": [int(v[t]), int(u[t])],
            "removed_argmin": bool(removed[t] == weakest[t]),
            "kl": kl,
            "bound": bound,
            "slack": kl - bound,
            "class_bound": class_bound,
            "class_slack": kl - class_bound,
        })
    return fields


def _lower_bound_aggregate(p: int, rows: list) -> dict:
    return {
        "trials": len(rows),
        "min_slack": min(r["slack"] for r in rows),
        "mean_kl": float(np.mean([r["kl"] for r in rows])),
        "min_class_slack": min(r["class_slack"] for r in rows),
        "max_class_bound": max(r["class_bound"] for r in rows),
    }


def _lower_bound_extras(records: list) -> dict:
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


def run_lower_bound_experiment(cfg: ExperimentConfig, progress: _Progress = None) -> ExperimentReport:
    """Randomized verification that deleting any true edge costs at least
    half the log separation constant in KL.

    Four generation methods cycle per trial: delete a random true edge by
    projection, delete the edge attaining the separation constant (the
    slack is then ~0), a random feasible point near the random edge's
    projection that misses the same edge (method perturbed_reprojection),
    and a high-signal member whose coupling sits close to its diagonal
    bound (the class bound grows without cap there). Each record carries
    the one-edge slack and, since every instance lies in an entrywise class
    measured from its own entries, the class-bound slack too.

    The trials of one p run as one (trials, p, p) stack: each still draws
    from its own generator, so a record depends only on its seed, and the
    report has the bytes of running the trials one at a time through
    random_sparse_precision / random_omega_inf_member, project_remove_edge
    and verify_separation. Every theta_star, perturbed candidate and
    projection is checked as PrecisionMatrix._validated adopts one (finite,
    exactly symmetric, factorizable with finite pivots) and factored once,
    and NoMissingEdge is raised if a projection or candidate kept every
    true edge.
    """
    return _run_grid(
        "lower-bound", cfg, "p", cfg.dimensions,
        lambda p, seeds: _lower_bound_trials(cfg, p, seeds),
        _lower_bound_aggregate, _lower_bound_extras, progress,
        lambda rows: f"{len(rows)} trials",
    )


def _wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    phat = successes / trials
    denominator = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denominator
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denominator
    return max(0.0, center - half), min(1.0, center + half)


def run_selection_experiment(cfg: ExperimentConfig, progress: _Progress = None) -> ExperimentReport:
    """Sample-size sweep of the likelihood selector on a chain model.

    The true model is a chain on p = dimensions[0] vertices; the rivals
    are its single-edge deletions, each missing exactly one true edge.
    They are nested in the truth, so the truth never scores worse than a
    rival and success is 1.0 at every n: the sweep checks score margins
    and the population gaps, not a sample-size transition.
    Per (n, trial): draw the sample covariance of n draws from its Wishart
    law, sample_covariance(theta_star, n, seed) with the record's seed
    (optionally with the exact diagonal patched in), select the
    minimum-score graph, and record whether the truth won. Aggregates
    carry success rates with 95% Wilson intervals and the mean score
    margin over the best rival; with include_population=True the sweep is
    repeated once against the exact covariance, where selection must
    succeed outright. Extras count the candidate fits that returned
    converged=False (unconverged_fits), population pass included. A chain that is not positive definite, has
    no edge (|chain_coupling| <= 1e-12) or lies outside the gamma-ball
    raises InvalidParameters naming the keys.
    """
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
    true_graph = edge_set_of(theta_star)
    if not len(true_graph):
        raise InvalidParameters(f"chain_coupling={cfg.chain_coupling} gives a chain with no edge at p={p}")
    alternatives = [true_graph.without(edge) for edge in sorted(true_graph)]
    collection = CandidateCollection((true_graph, *alternatives))
    sigma_star = invert(theta_star)
    unconverged = 0

    def trial(n: int, seed: int) -> dict:
        nonlocal unconverged
        sigma_hat = sample_covariance(theta_star, n, seed)
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
        "selection", cfg, "n", cfg.sample_sizes,
        lambda n, seeds: [trial(n, seed) for seed in seeds], aggregate, extras, progress,
        lambda rows: f"{sum(r['success'] for r in rows)}/{len(rows)} successes",
    )


def _counterexample_from_doc(doc: Mapping, progress: _Progress) -> ExperimentReport:
    if set(doc) != {"d_values"} or not isinstance(doc["d_values"], list):
        raise ValueError(f"counterexample config takes only d_values (integers), got keys {sorted(doc)}")
    return run_counterexample_experiment(doc["d_values"])


_DRIVERS: dict[str, Callable[[Mapping, _Progress], ExperimentReport]] = {
    "counterexample": _counterexample_from_doc,
    "lower-bound": lambda doc, progress: run_lower_bound_experiment(ExperimentConfig.from_dict(doc), progress),
    "selection": lambda doc, progress: run_selection_experiment(ExperimentConfig.from_dict(doc), progress),
}
EXPERIMENT_KINDS = tuple(_DRIVERS)


def run_experiment(kind: str, doc: Mapping, progress: _Progress = None) -> ExperimentReport:
    """Run one experiment of EXPERIMENT_KINDS from its JSON config document.

    counterexample takes {"d_values": [...]}, the other kinds the fields of
    ExperimentConfig. ValueError names an unknown kind or key and an invalid
    config value: one of the wrong type or out of range, including a
    selection chain that the chain keys or gamma rule out. Each value is
    checked once, where the config or the driver first uses it, and every
    InvalidParameters that the run raises becomes that ValueError.
    """
    if kind not in _DRIVERS:
        raise ValueError(f"unknown experiment kind {kind!r}; the kinds are {', '.join(EXPERIMENT_KINDS)}")
    try:
        return _DRIVERS[kind](doc, progress)
    except InvalidParameters as exc:
        raise ValueError(f"invalid {kind} config value: {exc}") from None
