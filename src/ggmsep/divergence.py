"""Exact divergences, conditional mutual information, and separation bounds.

Natural logarithms throughout, so every divergence and mutual information
is in nats. All functions are pure and safe to call concurrently. Triangular
solves call LAPACK's dtrtrs directly, without scipy.linalg's wrapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from scipy.linalg import lapack

from .core import (
    PrecisionMatrix,
    _cholesky_lower,
    _upper_pairs,
    factorize,
)
from .errors import (
    DimensionMismatch,
    EmptySet,
    IndexOutOfRange,
    IndexOverlap,
    InvalidParameters,
    NoEdges,
    NoMissingEdge,
    NotPositiveDefinite,
    SameVertex,
)

__all__ = [
    "BoundReport",
    "kl_gaussian",
    "conditional_mutual_info",
    "block_conditional_mutual_info",
    "c_theta_star",
    "one_edge_lower_bound",
    "omega_inf_lower_bound",
    "verify_separation",
]

# Magnitudes below this are floating-point residue of identical inputs and
# round to exactly zero.
_KL_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """A divergence compared against its guaranteed lower bound."""

    kl_value: float
    lower_bound: float
    slack: float
    witness_edge: Optional[tuple[int, int]] = None

    def to_dict(self) -> dict:
        return {
            "kl": self.kl_value,
            "bound": self.lower_bound,
            "slack": self.slack,
            "witness_edge": list(self.witness_edge) if self.witness_edge is not None else None,
        }


def kl_gaussian(theta1: PrecisionMatrix, theta2: PrecisionMatrix) -> float:
    """KL(N(0, inv(theta1)) || N(0, inv(theta2))) in nats.

    Closed form for zero-mean Gaussians:
        0.5 * (tr(theta2 @ inv(theta1)) - p + log det theta1 - log det theta2).
    With Cholesky factors theta_k = L_k L_k^T the trace is
    ||inv(L1) L2||_F^2, one dtrtrs solve on the kept factors, so inv(theta1)
    is never formed. Asymmetric in its arguments; zero iff the matrices coincide.
    """
    if theta1.p != theta2.p:
        raise DimensionMismatch(f"orders differ: {theta1.p} vs {theta2.p}")
    f1 = factorize(theta1)
    f2 = factorize(theta2)
    # L1 is C-ordered, so LAPACK sees it as the upper factor L1^T
    half, info = lapack.dtrtrs(f1.factor.T, f2.factor, lower=0, trans=1)
    if info:
        raise np.linalg.LinAlgError(f"dtrtrs failed (info={info})")
    trace = float(np.sum(half * half))
    value = 0.5 * (trace - theta1.p + f1.log_determinant - f2.log_determinant)
    return 0.0 if abs(value) < _KL_ZERO_TOL else value


def conditional_mutual_info(theta: PrecisionMatrix, i: int, j: int) -> float:
    """I(X_i; X_j | all other coordinates) under N(0, inv(theta)), in nats.

    Depends only on the 2x2 block over (i, j):
        0.5 * log(t_ii t_jj / (t_ii t_jj - t_ij^2)),
    evaluated as -0.5 * log1p(-t_ij^2 / (t_ii t_jj)) so a zero coupling
    gives exactly 0.
    """
    i, j = int(i), int(j)
    if i == j:
        raise SameVertex(f"i == j == {i}")
    for v in (i, j):
        if not 0 <= v < theta.p:
            raise IndexOutOfRange(f"vertex {v} out of range for p={theta.p}")
    arr = theta.matrix
    a = arr[i, i] * arr[j, j]
    b = arr[i, j] ** 2
    if b >= a:
        raise NotPositiveDefinite(f"2x2 block over ({i}, {j}) is numerically singular")
    return -0.5 * math.log1p(-b / a)


def block_conditional_mutual_info(theta: PrecisionMatrix, i: int, subset: Iterable[int]) -> float:
    """I(X_i; X_subset | everything else) under N(0, inv(theta)), in nats.

    Depends only on the block over A = {i} + subset: by the entropy
    decomposition through conditional covariances it is
        0.5 * (log t_ii + log det theta_SS - log det theta_AA),
    evaluated as -0.5 * log1p(-b^T inv(theta_SS) b / t_ii) with b =
    theta[subset, i], from one Cholesky factor of theta_SS. A zero coupling
    gives exactly 0, and a one-element subset reduces to
    conditional_mutual_info. When A exhausts the vertices this is the plain
    mutual information I(X_i; X_subset).
    """
    p = theta.p
    i = int(i)
    s = sorted({int(v) for v in subset})
    if not s:
        raise EmptySet("subset is empty")
    if not 0 <= i < p or s[0] < 0 or s[-1] >= p:
        raise IndexOutOfRange(f"vertex indices must lie in [0, {p})")
    if i in s:
        raise IndexOverlap(f"vertex {i} appears in the subset")
    arr = theta.matrix
    lower = _cholesky_lower(arr[np.ix_(s, s)])
    whitened, info = lapack.dtrtrs(lower.T, arr[s, i], lower=0, trans=1)
    if info:
        raise np.linalg.LinAlgError(f"dtrtrs failed (info={info})")
    ratio = float(whitened @ whitened) / float(arr[i, i])
    if ratio >= 1.0:
        raise NotPositiveDefinite(f"block over vertex {i} and its subset is numerically singular")
    return -0.5 * math.log1p(-ratio)


def c_theta_star(theta: PrecisionMatrix, zero_tol: float = 1e-12) -> float:
    """Smallest edgewise ratio t_ii t_jj / (t_ii t_jj - t_ij^2) over the support.

    The minimum runs over strictly off-diagonal entries with magnitude
    above zero_tol; it is always > 1 for a PD matrix and equals
    exp(2 * min edgewise conditional mutual information).
    """
    if zero_tol < 0.0:
        raise InvalidParameters("zero_tol must be >= 0")
    arr = theta.matrix
    rows, cols = _upper_pairs(theta.p)
    off = arr[rows, cols]
    mask = np.abs(off) > zero_tol
    if not np.any(mask):
        raise NoEdges("matrix has no off-diagonal support")
    diag = np.diag(arr)
    a = diag[rows[mask]] * diag[cols[mask]]
    b = off[mask] ** 2
    return float(np.min(a / (a - b)))


def one_edge_lower_bound(theta_star: PrecisionMatrix, zero_tol: float = 1e-12) -> float:
    """Guaranteed KL gap (nats) when any single true edge is missing.

    Equal to 0.5 * log of the separation constant of theta_star; strictly
    positive whenever theta_star has at least one edge.
    """
    return 0.5 * math.log(c_theta_star(theta_star, zero_tol))


def omega_inf_lower_bound(alpha: float, h: float) -> float:
    """Worst-case one-edge KL gap over the entrywise class:
    0.5 * log(1 / (1 - alpha^2 / h^2)).

    Increasing in alpha for fixed h and unbounded as alpha approaches h.
    """
    if not (0.0 < alpha < h):
        raise InvalidParameters(f"requires 0 < alpha < h, got alpha={alpha}, h={h}")
    return -0.5 * math.log1p(-((alpha / h) ** 2))


def verify_separation(
    theta_star: PrecisionMatrix,
    theta: PrecisionMatrix,
    zero_tol: float = 1e-12,
) -> BoundReport:
    """Check KL(theta_star's Gaussian || theta's) against the one-edge bound.

    Requires that theta misses at least one edge of theta_star (otherwise
    theta could equal theta_star and the divergence would be zero). The
    returned slack is kl - bound and is nonnegative up to roundoff; the
    witness is the smallest missing pair, found in one scan of both matrices.
    """
    if theta_star.p != theta.p:
        raise DimensionMismatch(f"orders differ: {theta_star.p} vs {theta.p}")
    if zero_tol < 0.0:
        raise InvalidParameters("zero_tol must be >= 0")
    rows, cols = _upper_pairs(theta.p)
    missing = np.flatnonzero(
        (np.abs(theta_star.matrix[rows, cols]) > zero_tol) & (np.abs(theta.matrix[rows, cols]) <= zero_tol)
    )
    if not missing.size:
        raise NoMissingEdge("every edge of theta_star is present in theta")
    kl = kl_gaussian(theta_star, theta)
    bound = one_edge_lower_bound(theta_star, zero_tol)
    witness = (int(rows[missing[0]]), int(cols[missing[0]]))
    return BoundReport(kl_value=kl, lower_bound=bound, slack=kl - bound, witness_edge=witness)
