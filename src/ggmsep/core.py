"""Core matrix types and dense SPD linear algebra.

Matrix wrappers freeze their arrays at construction (exactly symmetric,
read-only), so instances are safe to share across threads; every operation
here is a pure function of its arguments. A PrecisionMatrix also keeps the
read-only lower Cholesky factor that validated it, so factorize, and the
log-determinants, solves, inverses and samples built on it, never factor a
precision again, and the covariance that a KL or invert first asks for (or
that its Newton fit already computed).

Matrices are validated once, at the API boundary. The public constructors
copy, check against a tolerance and symmetrize what they are given; what
the library builds itself, exactly symmetric by construction, the classes'
_validated adopt after _check_adoptable, without a copy.

It is also the library's one LAPACK boundary: only _potrf, _potrs, _trtrs
and _spd_inverse call LAPACK (scipy's f2py wrappers, see _load_lapack) or
read an info code, only _spd_inverse inverts an SPD matrix, and only
_log_det reduces a Cholesky factor's log-diagonal. Every factor the library
keeps is _potrf's (scipy's dpotrf), through _cholesky_lower or a fit's own
check; numpy's LAPACK serves only _solve_each's closed-form solves.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

import numpy as np

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
# The edge rule (_edge_mask): an entry of magnitude up to this is no edge.
_ZERO_TOL = 1e-12


def _is_int(value: object) -> bool:
    """Whether value is an integer: a Python or numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    """Whether value is a real number: an integer (_is_int) or a float."""
    return _is_int(value) or isinstance(value, float)


def _checked_size(name: str, value: object, minimum: int) -> int:
    """value as an int; InvalidParameters naming it unless it is an integer
    (_is_int: never a bool or float) of at least minimum."""
    if not _is_int(value) or value < minimum:
        raise InvalidParameters(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


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


def _load_lapack():
    """scipy.linalg._flapack from scipy's directory, without importing scipy;
    else scipy.linalg.lapack.

    Loading the extension module enters it in sys.modules before its
    package scipy.linalg exists, and a later import of scipy.linalg would
    take it from there without setting the package's _flapack attribute. So
    it is taken out again: that import then builds its module from the same
    loaded extension, whose routines are the very objects used here."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES if scipy else ():
        path = os.path.join(os.path.dirname(scipy.origin), "linalg", "_flapack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(name, None)
            return module
    return importlib.import_module("scipy.linalg.lapack")


lapack = _load_lapack()


def _potrf(a: np.ndarray, overwrite_a: bool = False) -> Optional[np.ndarray]:
    """dpotrf's lower Cholesky factor of a, upper triangle zero, or None if a
    is not positive definite; overwrite_a factors a Fortran-ordered a in place."""
    lower, info = lapack.dpotrf(a, lower=1, overwrite_a=overwrite_a)
    return None if info else lower


def _potrs(lower: np.ndarray, b: np.ndarray, overwrite_b: bool = False) -> np.ndarray:
    """x with A x = b, by dpotrs from A's lower Cholesky factor."""
    x, info = lapack.dpotrs(lower, b, lower=1, overwrite_b=overwrite_b)
    if info:
        raise np.linalg.LinAlgError(f"dpotrs failed (info={info})")
    return x


def _trtrs(a: np.ndarray, b: np.ndarray, lower: bool, trans: bool = False, overwrite_b: bool = False) -> np.ndarray:
    """x with a x = b (a^T x = b with trans), by dtrtrs on a's lower or upper
    triangle; overwrite_b solves a Fortran-ordered b in place."""
    x, info = lapack.dtrtrs(a, b, lower=lower, trans=trans, overwrite_b=overwrite_b)
    if info:
        raise np.linalg.LinAlgError(f"dtrtrs failed (info={info})")
    return x


def _spd_inverse(lower: np.ndarray) -> np.ndarray:
    """Read-only inv(L L^T) from a lower Cholesky factor L (upper triangle
    zero), the library's one SPD inverse (a precision's kept covariance,
    invert, and every fit's): dtrtri inverts U = L^T, then one numpy matmul
    forms U^-1 U^-T, exactly symmetric (numpy forms a product with its own
    transpose by dsyrk). O(p^3). Its bits are the same at one and two
    OpenBLAS threads up to p = 64, not at p = 200."""
    upper_inverse, info = lapack.dtrtri(lower.T, lower=0)
    if info:
        raise np.linalg.LinAlgError(f"dtrtri failed (info={info})")
    inverse = upper_inverse @ upper_inverse.T
    inverse.flags.writeable = False
    return inverse


def _log_det(lower: np.ndarray, magnitude: bool = False) -> Union[np.floating, np.ndarray]:
    """log det(L L^T) = 2 sum(log diag(L)) of a Cholesky factor L, or of
    each factor of a stack, or with magnitude=True 2 sum |log diag(L)|, the
    size of its terms; every member has the bits of its factor alone."""
    logs = np.log(np.diagonal(lower, axis1=-2, axis2=-1))
    return 2.0 * np.sum(np.abs(logs) if magnitude else logs, axis=-1)


def _cholesky_lower(arr: np.ndarray) -> np.ndarray:
    """Read-only lower Cholesky factor, upper triangle zero, of a symmetric
    matrix or of each matrix of a stack: _potrf on a C-ordered copy, each
    slot factored in place as its Fortran-ordered transpose (the same
    matrix), so every factor has the bits of _potrf of that matrix alone.
    Raises NotPositiveDefinite if any fails or has a non-finite entry; a
    factor that succeeds has strictly positive pivots."""
    work = np.array(arr, dtype=float, order="C")
    for slot in work.reshape(-1, *work.shape[-2:]):
        if _potrf(slot.T, overwrite_a=True) is None:
            raise NotPositiveDefinite("Cholesky factorization failed: the matrix is not positive definite")
    lower = work.swapaxes(-1, -2)
    if not np.isfinite(lower).all():
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


def _solve_each(blocks: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x with blocks[t] x[t] = rhs[t], shapes (n, k, k) and (n, k), by
    numpy's one stacked LU solve (dgesv), and which blocks solved: only when
    that call meets an exactly singular block is each solved alone, to find
    it, and its x left zero. Every x has the bits of its block solved alone."""
    try:
        return np.linalg.solve(blocks, rhs[:, :, None])[:, :, 0], np.ones(len(blocks), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    x, solved = np.zeros(rhs.shape), np.ones(len(blocks), dtype=bool)
    for t in range(len(blocks)):
        try:
            x[t] = np.linalg.solve(blocks[t], rhs[t, :, None])[:, 0]
        except np.linalg.LinAlgError:
            solved[t] = False
    return x, solved


def _check_adoptable(arr: np.ndarray, what: str = "precision matrix") -> None:
    """ValueError naming `what` unless the matrix, or every matrix of a
    stack, is finite and exactly symmetric: the checks a matrix the library
    built passes before a class's _validated adopts it. On such a matrix
    the public constructor's symmetrization changes no bit."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} has non-finite entries")
    if not (arr == arr.swapaxes(-1, -2)).all():
        raise ValueError(f"{what} is not exactly symmetric")


class PrecisionMatrix:
    """Inverse covariance of a zero-mean Gaussian: symmetric positive definite.

    Construction rejects anything not finite, square of order >= 2,
    symmetric (up to roundoff, then symmetrized exactly), and
    Cholesky-factorizable, and keeps that Cholesky factor, read-only, for
    factorize.

    It also has one slot for its covariance inv(matrix), empty until a KL
    from this precision, nll_gradient at it or invert of it first asks for
    it, then filled once by _spd_inverse and kept, read-only: p^2 more
    floats (320 KB at p=200) for as long as the precision lives. Two
    threads that ask at once may both compute it; they keep the same bits.

    A fitted precision (fit_graph_mle, select_graph) keeps the factor its
    fit computed to check that exact array, so it is not factored again; a
    Newton fit also keeps the covariance it computed from that factor, and
    a closed form fills its slot on first use, as any precision does. Every
    factor comes from _potrf (scipy's dpotrf), so a fitted precision keeps
    the bits that constructing a precision from its matrix would give.
    """

    __slots__ = ("matrix", "_factor", "_covariance")

    def __init__(self, entries: object) -> None:
        self.matrix = _frozen_symmetric(entries, "precision matrix")
        self._factor = _cholesky_lower(self.matrix)
        self._covariance = None

    @classmethod
    def _validated(
        cls, arr: np.ndarray, lower: Optional[np.ndarray] = None, covariance: Optional[np.ndarray] = None
    ) -> "PrecisionMatrix":
        """The internal adopt path: a precision over an array the library
        built and its lower Cholesky factor (upper triangle zero), both kept
        as they are and frozen, not copied, with the bits the public
        constructor gives arr. Without a factor, arr passes _check_adoptable
        and _cholesky_lower factors it. A caller that passes the factor has
        checked arr: built exactly symmetric and factored by _cholesky_lower
        (_sever), or passed by _check_adoptable with its fit's own potrf. A
        Newton fit also passes the covariance it computed, _spd_inverse of
        that factor (read-only)."""
        if lower is None:
            _check_adoptable(arr)
            lower = _cholesky_lower(arr)
        arr.flags.writeable = lower.flags.writeable = False
        theta = cls.__new__(cls)
        theta.matrix, theta._factor, theta._covariance = arr, lower, covariance
        return theta

    @property
    def _sigma(self) -> np.ndarray:
        """inv(matrix), read-only: _spd_inverse of the kept factor, computed
        on first use and kept."""
        if self._covariance is None:
            self._covariance = _spd_inverse(self._factor)
        return self._covariance

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

    @classmethod
    def _validated(cls, arr: np.ndarray) -> "CovarianceMatrix":
        """The internal adopt path, as PrecisionMatrix._validated: a
        covariance over an array of order >= 2 that the library built,
        checked by _check_adoptable and frozen, not copied, with the bits
        the public constructor gives arr."""
        _check_adoptable(arr, "covariance matrix")
        arr.flags.writeable = False
        sigma = cls.__new__(cls)
        sigma.matrix = arr
        return sigma

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
    return SpdFactorization(factor=lower, log_determinant=float(_log_det(lower)))


def invert(m: MatrixLike) -> MatrixLike:
    """Invert a PD matrix; precision and covariance swap roles.

    A precision returns the covariance it keeps; a covariance is inverted
    by _spd_inverse from its factor. Either result is adopted, not copied
    (_validated). M @ invert(M) == I to ~1e-10 relative error for well
    conditioned input.
    """
    if isinstance(m, PrecisionMatrix):
        return CovarianceMatrix._validated(m._sigma)
    return PrecisionMatrix._validated(_spd_inverse(factorize(m).factor))


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
        # the kept edges are normalized already; only the dropped ones are
        graph = EdgeSet.__new__(EdgeSet)
        graph.p, graph.edges = self.p, self.edges - {_normalized_edge(e) for e in edges}
        return graph

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


def _edge_mask(arr: np.ndarray) -> np.ndarray:
    """The library's one edge rule: which pairs of _upper_pairs(p) are edges
    of a (p, p) matrix, shape (pairs,), or of each matrix of a (k, p, p)
    stack, shape (k, pairs). (i, j) is an edge iff |arr[i, j]| > 1e-12."""
    rows, cols = _upper_pairs(arr.shape[-1])
    return np.abs(arr[..., rows, cols]) > _ZERO_TOL


def edge_set_of(theta: MatrixLike) -> EdgeSet:
    """Off-diagonal support: edge (i, j), i < j, iff |theta[i, j]| > 1e-12."""
    rows, cols = _upper_pairs(theta.p)
    mask = _edge_mask(theta.matrix)
    return EdgeSet(theta.p, zip(rows[mask].tolist(), cols[mask].tolist()))
