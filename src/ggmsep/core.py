"""Core matrix types and dense SPD linear algebra.

Matrix wrappers freeze their arrays at construction (exactly symmetric,
read-only), so instances are safe to share across threads; every operation
here is a pure function of its arguments. A PrecisionMatrix also keeps the
read-only lower Cholesky factor that validated it, so factorize, and the
log-determinants, solves, inverses and samples built on it, never factor a
precision again.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

import numpy as np
from scipy.linalg import lapack

from .errors import (
    DimensionMismatch,
    EmptySet,
    IndexOutOfRange,
    IndexOverlap,
    InvalidParameters,
    NotPositiveDefinite,
    SameVertex,
)

__all__ = [
    "PrecisionMatrix",
    "CovarianceMatrix",
    "SpdFactorization",
    "EdgeSet",
    "factorize",
    "invert",
    "edge_set_of",
]

# Largest relative asymmetry accepted at construction; anything below is
# averaged away so the stored entries are bit-for-bit symmetric.
_ASYMMETRY_RTOL = 1e-8
# Largest magnitude whose doubling cannot overflow.
_HALF_MAX = 0.5 * float(np.finfo(float).max)


def _is_int(value: object) -> bool:
    """Whether value is an integer: a Python or numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _vertex(p: int, v: object) -> int:
    """v as a vertex of {0, ..., p-1}; IndexOutOfRange unless it is an
    integer (_is_int: never a float or a bool) in that range."""
    if not _is_int(v) or not 0 <= v < p:
        raise IndexOutOfRange(f"vertex {v!r} is not an integer in [0, {p})")
    return int(v)


def _vertex_pair(p: int, i: object, j: object) -> tuple[int, int]:
    """(i, j) as two distinct vertices; SameVertex when they coincide."""
    i, j = _vertex(p, i), _vertex(p, j)
    if i == j:
        raise SameVertex(f"i == j == {i}")
    return i, j


def _vertex_star(p: int, v: object, others: Iterable[object]) -> tuple[int, list[int]]:
    """v and the sorted distinct vertices of `others`, which must be nonempty
    (EmptySet) and exclude v (IndexOverlap)."""
    v = _vertex(p, v)
    s = sorted({_vertex(p, u) for u in others})
    if not s:
        raise EmptySet("the set of other vertices is empty")
    if v in s:
        raise IndexOverlap(f"vertex {v} appears among the other vertices")
    return v, s


def _check_zero_tol(zero_tol: float) -> None:
    if not 0.0 <= zero_tol < math.inf:
        raise InvalidParameters(f"zero_tol must be finite and >= 0, got {zero_tol!r}")


def _cholesky_lower(arr: np.ndarray) -> np.ndarray:
    """Read-only lower Cholesky factor of a matrix or of a stack of them (one
    stacked call, whose factors have the bits of factoring each alone),
    raising NotPositiveDefinite if any fails. A factor that succeeds has
    strictly positive pivots."""
    try:
        lower = np.linalg.cholesky(arr)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky factorization failed: {exc}") from None
    if not np.all(np.isfinite(lower)):
        raise NotPositiveDefinite("Cholesky factor has non-finite pivots")
    lower.flags.writeable = False
    return lower


def _frozen_symmetric(entries: object, what: str) -> np.ndarray:
    """_symmetrize_in_place on a float copy of square `entries`, order >= 2."""
    arr = np.array(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{what} must be square, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise ValueError(f"{what} must have order >= 2, got {arr.shape[0]}")
    return _symmetrize_in_place(arr, what)


def _symmetrize_in_place(arr: np.ndarray, what: str) -> np.ndarray:
    """Overwrite the float array `arr` the caller owns, one square matrix or
    a stack of them over its last two axes, with the mean of each matrix's
    two triangles and freeze it; ValueError unless every matrix is finite
    and symmetric to a relative 1e-8 of its own largest entry. Returns
    `arr`."""
    # Two temporaries of arr's size. The sum is halved after it is formed,
    # so subnormal entries survive; only in a matrix where it could overflow
    # are the entries halved first, which keeps finite input finite. Both
    # orders give the same bits on normal-range input.
    scratch = np.abs(arr)
    scale = scratch.max(axis=(-2, -1))
    largest = float(scale.max())
    if not math.isfinite(largest):
        raise ValueError(f"{what} has non-finite entries")
    halve_first = scale > _HALF_MAX
    mixed = largest > _HALF_MAX
    if mixed:
        arr *= np.where(halve_first, 0.5, 1.0)[..., None, None]
    mirror = arr.swapaxes(-1, -2).copy()
    gap = np.abs(np.subtract(arr, mirror, out=scratch), out=scratch).max(axis=(-2, -1))
    if mixed:
        gap *= np.where(halve_first, 2.0, 1.0)
    # every matrix's tolerance is at least _ASYMMETRY_RTOL
    if float(gap.max()) > _ASYMMETRY_RTOL and (gap > _ASYMMETRY_RTOL * np.maximum(1.0, scale)).any():
        raise ValueError(f"{what} is not symmetric: max |M - M^T| = {float(gap.max()):.3g}")
    arr += mirror
    if mixed:
        arr *= np.where(halve_first, 1.0, 0.5)[..., None, None]
    else:
        arr *= 0.5
    arr.flags.writeable = False
    return arr


def _factorizable(stack: np.ndarray) -> np.ndarray:
    """Whether each matrix of a (k, p, p) stack has a Cholesky factor with
    finite pivots. One stacked call; only when some matrix fails is each
    factored on its own, to find which."""
    try:
        _cholesky_lower(stack)
        return np.ones(len(stack), dtype=bool)
    except NotPositiveDefinite:
        pass
    ok = np.zeros(len(stack), dtype=bool)
    for k, matrix in enumerate(stack):
        try:
            ok[k] = np.isfinite(np.linalg.cholesky(matrix)).all()
        except np.linalg.LinAlgError:
            pass
    return ok


def _check_adoptable(arr: np.ndarray) -> None:
    """ValueError unless the matrix, or every matrix of a stack, is finite
    and exactly symmetric: the checks a fitted precision passes before
    PrecisionMatrix._validated keeps it."""
    if not np.isfinite(arr).all():
        raise ValueError("precision matrix has non-finite entries")
    if not (arr == arr.swapaxes(-1, -2)).all():
        raise ValueError("precision matrix is not exactly symmetric")


class PrecisionMatrix:
    """Inverse covariance of a zero-mean Gaussian: symmetric positive definite.

    Construction rejects anything not finite, square of order >= 2,
    symmetric (up to roundoff, then symmetrized exactly), and
    Cholesky-factorizable, and keeps that Cholesky factor, read-only, for
    factorize.

    A fitted precision (fit_graph_mle, select_graph) instead keeps the
    factor its fit computed to check that exact array, with scipy's LAPACK
    (dpotrf). numpy and scipy link separate LAPACK builds, so that factor
    can differ in the last bit from np.linalg.cholesky of the same matrix
    (28 of 120 sampled factors did).
    """

    __slots__ = ("matrix", "_factor")

    def __init__(self, entries: object) -> None:
        self.matrix = _frozen_symmetric(entries, "precision matrix")
        self._factor = _cholesky_lower(self.matrix)

    @classmethod
    def _validated(cls, arr: np.ndarray, lower: np.ndarray) -> "PrecisionMatrix":
        """Precision over a checked array and its lower Cholesky factor
        (upper triangle zero), both kept as they are and frozen, not copied:
        an array that _symmetrize_in_place froze and _cholesky_lower
        factored, or a fit's array that passed _check_adoptable with the
        factor that the fit's own potrf computed from it."""
        arr.flags.writeable = lower.flags.writeable = False
        theta = cls.__new__(cls)
        theta.matrix, theta._factor = arr, lower
        return theta

    @property
    def p(self) -> int:
        return int(self.matrix.shape[0])

    def __repr__(self) -> str:
        return f"PrecisionMatrix(p={self.p})"


class CovarianceMatrix:
    """Covariance of a zero-mean Gaussian, or an estimate of one.

    Construction enforces symmetry and finiteness only: empirical
    second-moment matrices from few samples are merely PSD, and
    diagonal-corrected estimates may even be slightly indefinite.
    Operations that need positive definiteness (factorize, invert) raise
    NotPositiveDefinite at the point of use.
    """

    __slots__ = ("matrix",)

    def __init__(self, entries: object) -> None:
        self.matrix = _frozen_symmetric(entries, "covariance matrix")

    @property
    def p(self) -> int:
        return int(self.matrix.shape[0])

    def __repr__(self) -> str:
        return f"CovarianceMatrix(p={self.p})"


MatrixLike = Union[PrecisionMatrix, CovarianceMatrix]


@dataclass(frozen=True, eq=False)
class SpdFactorization:
    """Read-only lower-triangular factor L and log det(L @ L.T) in nats."""

    factor: np.ndarray
    log_determinant: float


def factorize(m: MatrixLike) -> SpdFactorization:
    """Read-only Cholesky factor L of an SPD matrix and log det = 2 *
    sum(log diag(L)).

    A precision returns the factor its constructor kept; only a covariance
    is factored here, raising NotPositiveDefinite if it is not PD.
    """
    lower = m._factor if isinstance(m, PrecisionMatrix) else _cholesky_lower(m.matrix)
    return SpdFactorization(factor=lower, log_determinant=2.0 * float(np.sum(np.log(np.diag(lower)))))


def invert(m: MatrixLike) -> MatrixLike:
    """Invert a PD matrix; precision and covariance swap roles.

    Solves against the identity through the Cholesky factor (one LAPACK
    dpotrs call), so M @ invert(M) == I to ~1e-10 relative error for well
    conditioned input.
    """
    inverse, info = lapack.dpotrs(factorize(m).factor, np.eye(m.p), lower=1)
    if info:
        raise np.linalg.LinAlgError(f"dpotrs failed (info={info})")
    if isinstance(m, PrecisionMatrix):
        return CovarianceMatrix(inverse)
    return PrecisionMatrix(inverse)


def _normalized_edge(edge: object) -> tuple[int, int]:
    i, j = edge
    if not (_is_int(i) and _is_int(j)):
        raise ValueError(f"edge endpoints must be integers, got {edge!r}")
    i, j = int(i), int(j)
    if i == j:
        raise ValueError(f"self-loop ({i}, {i}) is not a valid edge")
    return (i, j) if i < j else (j, i)


class EdgeSet:
    """Undirected graph on {0, ..., p-1} as a set of off-diagonal pairs.

    Edges are stored normalized as (i, j) with i < j. The diagonal is never
    part of an edge set: diagonals of a PD precision matrix are always
    nonzero and stay free in every constrained fit.
    """

    __slots__ = ("p", "edges")

    def __init__(self, p: int, edges: Iterable[object] = ()) -> None:
        if not _is_int(p) or p < 2:
            raise ValueError(f"vertex count must be an integer >= 2, got {p!r}")
        p = int(p)
        normalized = set()
        for edge in edges:
            pair = _normalized_edge(edge)
            if pair[0] < 0 or pair[1] >= p:
                raise ValueError(f"edge {pair} out of range for p={p}")
            normalized.add(pair)
        self.p = p
        self.edges = frozenset(normalized)

    @classmethod
    def complete(cls, p: int) -> "EdgeSet":
        return cls(p, [(i, j) for i in range(p) for j in range(i + 1, p)])

    def without(self, *edges: object) -> "EdgeSet":
        dropped = {_normalized_edge(e) for e in edges}
        return EdgeSet(self.p, self.edges - dropped)

    def difference(self, other: "EdgeSet") -> frozenset:
        """Edges present here but absent from `other` (orders must match)."""
        if other.p != self.p:
            raise DimensionMismatch(f"vertex counts differ: {self.p} vs {other.p}")
        return frozenset(self.edges - other.edges)

    def is_subset_of(self, other: "EdgeSet") -> bool:
        if other.p != self.p:
            raise DimensionMismatch(f"vertex counts differ: {self.p} vs {other.p}")
        return self.edges <= other.edges

    def __contains__(self, edge: object) -> bool:
        try:
            return _normalized_edge(edge) in self.edges
        except (TypeError, ValueError):
            return False

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.edges))

    def __len__(self) -> int:
        return len(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeSet):
            return NotImplemented
        return self.p == other.p and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.p, self.edges))

    def __repr__(self) -> str:
        return f"EdgeSet(p={self.p}, edges={sorted(self.edges)})"


@functools.lru_cache(maxsize=64)
def _upper_pairs(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (rows, cols) of the strict upper triangle, in row-major order."""
    rows, cols = np.triu_indices(p, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def edge_set_of(theta: MatrixLike, zero_tol: float = 1e-12) -> EdgeSet:
    """Off-diagonal support: edge (i, j), i < j, iff |theta[i, j]| > zero_tol."""
    _check_zero_tol(zero_tol)
    arr = theta.matrix
    rows, cols = _upper_pairs(theta.p)
    mask = np.abs(arr[rows, cols]) > zero_tol
    return EdgeSet(theta.p, zip(rows[mask].tolist(), cols[mask].tolist()))
