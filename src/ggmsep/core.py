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
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

import numpy as np
from scipy.linalg import cho_solve

from .errors import DimensionMismatch, InvalidParameters, NotPositiveDefinite

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


def _cholesky_lower(arr: np.ndarray) -> np.ndarray:
    """Read-only lower Cholesky factor, raising NotPositiveDefinite on
    failure. A factor that succeeds has strictly positive pivots."""
    try:
        lower = np.linalg.cholesky(arr)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky factorization failed: {exc}") from None
    if not np.all(np.isfinite(lower)):
        raise NotPositiveDefinite("Cholesky factor has non-finite pivots")
    lower.flags.writeable = False
    return lower


def _frozen_symmetric(entries: object, what: str) -> np.ndarray:
    arr = np.array(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{what} must be square, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise ValueError(f"{what} must have order >= 2, got {arr.shape[0]}")
    # Two p x p temporaries; halving before the sum keeps finite input finite
    scratch = np.abs(arr)
    scale = float(np.max(scratch))
    if not np.isfinite(scale):
        raise ValueError(f"{what} has non-finite entries")
    arr *= 0.5
    mirror = arr.T.copy()
    gap = 2.0 * float(np.max(np.abs(np.subtract(arr, mirror, out=scratch), out=scratch)))
    if gap > _ASYMMETRY_RTOL * max(1.0, scale):
        raise ValueError(f"{what} is not symmetric: max |M - M^T| = {gap:.3g}")
    arr += mirror
    arr.flags.writeable = False
    return arr


class PrecisionMatrix:
    """Inverse covariance of a zero-mean Gaussian: symmetric positive definite.

    Construction rejects anything not finite, square of order >= 2,
    symmetric (up to roundoff, then symmetrized exactly), and
    Cholesky-factorizable, and keeps that Cholesky factor, read-only, for
    factorize.
    """

    __slots__ = ("matrix", "_factor")

    def __init__(self, entries: object) -> None:
        self.matrix = _frozen_symmetric(entries, "precision matrix")
        self._factor = _cholesky_lower(self.matrix)

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

    Solves against the identity through the Cholesky factor, so
    M @ invert(M) == I to ~1e-10 relative error for well conditioned input.
    """
    fact = factorize(m)
    inverse = cho_solve((fact.factor, True), np.eye(m.p))
    if isinstance(m, PrecisionMatrix):
        return CovarianceMatrix(inverse)
    return PrecisionMatrix(inverse)


def _normalized_edge(edge: object) -> tuple[int, int]:
    i, j = (int(v) for v in edge)
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
        p = int(p)
        if p < 2:
            raise ValueError(f"vertex count must be >= 2, got {p}")
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
    if zero_tol < 0.0:
        raise InvalidParameters("zero_tol must be >= 0")
    arr = theta.matrix
    rows, cols = _upper_pairs(theta.p)
    mask = np.abs(arr[rows, cols]) > zero_tol
    return EdgeSet(theta.p, zip(rows[mask].tolist(), cols[mask].tolist()))
