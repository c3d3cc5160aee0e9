"""Exact divergences, conditional mutual information, and separation bounds.

Natural logarithms throughout, so every divergence and mutual information
is in nats. All functions are pure and safe to call concurrently. Triangular
solves, the KL trace's by column blocks, call LAPACK's dtrtrs directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from scipy.linalg import lapack

from .core import (
    PrecisionMatrix,
    _check_zero_tol,
    _cholesky_lower,
    _upper_pairs,
    _vertex_pair,
    _vertex_star,
    factorize,
)
from .errors import (
    DimensionMismatch,
    InvalidParameters,
    NoEdges,
    NoMissingEdge,
    NotPositiveDefinite,
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
_KL_BLOCK = 32  # kl_gaussian's column block width, a multiple of OpenBLAS's row unrolls


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
    ||inv(L1) L2||_F^2 on the kept factors, so inv(theta1) is never formed;
    that product is lower triangular, so each block of its columns is solved
    (dtrtrs) from the trailing rows only. Asymmetric; zero iff equal inputs.
    """
    if theta1.p != theta2.p:
        raise DimensionMismatch(f"orders differ: {theta1.p} vs {theta2.p}")
    return _kl_divergences(factorize(theta1).factor[None], factorize(theta2).factor[None])[0]


def _kl_divergences(lower1: np.ndarray, lower2: np.ndarray) -> list[float]:
    """kl_gaussian for each pair of lower Cholesky factors of two (k, p, p)
    stacks: the log-determinants in one pass, with factorize's reduction,
    and each trace by its own blocked solve."""
    p = lower1.shape[-1]
    log_dets1, log_dets2 = (
        (2.0 * np.sum(np.log(np.diagonal(lower, axis1=-2, axis2=-1)), axis=-1)).tolist() for lower in (lower1, lower2)
    )
    values = []
    for l1, l2, log_det1, log_det2 in zip(lower1, lower2, log_dets1, log_dets2):
        half = np.zeros((p, p), order="F")
        # Blocks start at multiples of _KL_BLOCK; the last takes the rest, so
        # none is one column wide (a dtrsv path): every entry rounds as in one
        # solve.
        for j in range(0, p - 1, _KL_BLOCK):
            stop = j + _KL_BLOCK if j + _KL_BLOCK < p - 1 else p
            # L1 is C-ordered, so LAPACK sees it as the upper factor L1^T
            half[j:, j:stop], info = lapack.dtrtrs(l1[j:, j:].T, l2[j:, j:stop], lower=0, trans=1)
            if info:
                raise np.linalg.LinAlgError(f"dtrtrs failed (info={info})")
        trace = float(np.sum(np.square(half, out=half)))
        value = 0.5 * (trace - p + log_det1 - log_det2)
        values.append(0.0 if abs(value) < _KL_ZERO_TOL else value)
    return values


def conditional_mutual_info(theta: PrecisionMatrix, i: int, j: int) -> float:
    """I(X_i; X_j | all other coordinates) under N(0, inv(theta)), in nats.

    Depends only on the 2x2 block over (i, j):
        0.5 * log(t_ii t_jj / (t_ii t_jj - t_ij^2)),
    evaluated as -0.5 * log1p(-t_ij^2 / (t_ii t_jj)) so a zero coupling
    gives exactly 0.
    """
    return _pair_information(theta.matrix, *_vertex_pair(theta.p, i, j))


def _pair_information(arr: np.ndarray, i: int, j: int) -> float:
    # conditional_mutual_info on the entries of a precision, unchecked
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
    i, s = _vertex_star(theta.p, i, subset)
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
    _check_zero_tol(zero_tol)
    rows, cols = _upper_pairs(theta.p)
    mask = np.abs(theta.matrix[rows, cols]) > zero_tol
    if not np.any(mask):
        raise NoEdges("matrix has no off-diagonal support")
    return float(_separation_constants(theta.matrix[None], mask[None])[0])


def _separation_constants(arr: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """c_theta_star of each matrix of a (k, p, p) stack over the edges that
    the (k, pairs) mask marks among _upper_pairs(p), at least one each."""
    rows, cols = _upper_pairs(arr.shape[-1])
    diag = np.diagonal(arr, axis1=-2, axis2=-1)
    a = diag[:, rows] * diag[:, cols]
    return np.min(np.where(edge, a / (a - arr[:, rows, cols] ** 2), np.inf), axis=-1)


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
    _check_zero_tol(zero_tol)
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
