"""Exact divergences, conditional mutual information, and separation bounds.

Natural logarithms throughout, so every divergence and mutual information
is in nats. All functions are pure and safe to call concurrently; a KL
may fill the covariance its first argument keeps, which changes no result.
The KL trace is sum((theta2 - theta1) * inv(theta1)) with that covariance
(core's _spd_inverse, O(p^3) once per first argument, then O(p^2) per
KL); the block CMI's triangular solve calls LAPACK's dtrtrs through core's
boundary (_trtrs), and log-determinants come from core's _log_det.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .core import (
    PrecisionMatrix,
    _cholesky_lower,
    _edge_mask,
    _log_det,
    _trtrs,
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

    Closed form for zero-mean Gaussians, with Sigma1 = inv(theta1):
        0.5 * (sum_ij (theta2 - theta1)_ij (Sigma1)_ij
               + log det theta1 - log det theta2).
    The sum is tr(theta2 Sigma1) - p with the p subtracted before any
    rounding, so equal inputs give exactly 0. Sigma1 is the covariance
    theta1 keeps: the first KL from theta1 computes it from the kept
    factor in O(p^3), and every KL from theta1 then costs O(p^2). The
    log-determinants come from the kept factors (factorize). Asymmetric;
    zero iff equal inputs.
    """
    if theta1.p != theta2.p:
        raise DimensionMismatch(f"orders differ: {theta1.p} vs {theta2.p}")
    return _kl_divergences(
        theta1.matrix[None], theta1._sigma[None], factorize(theta1).factor[None],
        theta2.matrix[None], factorize(theta2).factor[None],
    )[0]


def _kl_divergences(
    theta1: np.ndarray, sigma1: np.ndarray, lower1: np.ndarray, theta2: np.ndarray, lower2: np.ndarray
) -> list[float]:
    """kl_gaussian for each pair of (k, p, p) stacks: precisions theta1 with
    their covariances sigma1 and lower Cholesky factors lower1, against
    precisions theta2 with factors lower2. Each value has the bits of
    kl_gaussian on its pair alone: the products are elementwise, and each
    trace is its own np.sum (never a BLAS dot, which may split a long sum
    across threads)."""
    log_dets1, log_dets2 = _log_det(lower1).tolist(), _log_det(lower2).tolist()
    weighted = np.subtract(theta2, theta1)
    weighted *= sigma1
    return [
        0.5 * (float(np.sum(terms)) + log_det1 - log_det2)
        for terms, log_det1, log_det2 in zip(weighted, log_dets1, log_dets2)
    ]


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
    whitened = _trtrs(lower.T, arr[s, i], lower=False, trans=True)
    ratio = float(whitened @ whitened) / float(arr[i, i])
    if ratio >= 1.0:
        raise NotPositiveDefinite(f"block over vertex {i} and its subset is numerically singular")
    return -0.5 * math.log1p(-ratio)


def c_theta_star(theta: PrecisionMatrix) -> float:
    """Smallest edgewise ratio t_ii t_jj / (t_ii t_jj - t_ij^2) over the support.

    The minimum runs over the edges of edge_set_of (off-diagonal entries
    with magnitude above 1e-12); it is > 1 for a PD matrix, up to rounding
    (an edge with t_ij^2 / (t_ii t_jj) below about 1e-16 gives exactly 1),
    and equals exp(2 * min edgewise conditional mutual information).
    """
    mask = _edge_mask(theta.matrix)
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


def one_edge_lower_bound(theta_star: PrecisionMatrix) -> float:
    """Guaranteed KL gap (nats) when any single true edge is missing.

    Equal to 0.5 * log of the separation constant of theta_star; positive
    whenever theta_star has at least one edge, up to the rounding that
    c_theta_star describes.
    """
    return 0.5 * math.log(c_theta_star(theta_star))


def omega_inf_lower_bound(alpha: float, h: float) -> float:
    """Worst-case one-edge KL gap over the entrywise class:
    0.5 * log(1 / (1 - alpha^2 / h^2)).

    Increasing in alpha for fixed h and unbounded as alpha approaches h.
    """
    if not (0.0 < alpha < h):
        raise InvalidParameters(f"requires 0 < alpha < h, got alpha={alpha}, h={h}")
    return -0.5 * math.log1p(-((alpha / h) ** 2))


def verify_separation(theta_star: PrecisionMatrix, theta: PrecisionMatrix) -> BoundReport:
    """Check KL(theta_star's Gaussian || theta's) against the one-edge bound.

    Requires that theta misses at least one edge of theta_star, by
    edge_set_of's rule (otherwise theta could equal theta_star and the
    divergence would be zero). The returned slack is kl - bound and is
    nonnegative up to roundoff; the witness is the smallest missing pair,
    found in one scan of both matrices.
    """
    if theta_star.p != theta.p:
        raise DimensionMismatch(f"orders differ: {theta_star.p} vs {theta.p}")
    missing = np.flatnonzero(_edge_mask(theta_star.matrix) & ~_edge_mask(theta.matrix))
    if not missing.size:
        raise NoMissingEdge("every edge of theta_star is present in theta")
    kl = kl_gaussian(theta_star, theta)
    bound = one_edge_lower_bound(theta_star)
    rows, cols = _upper_pairs(theta.p)
    witness = (int(rows[missing[0]]), int(cols[missing[0]]))
    return BoundReport(kl_value=kl, lower_bound=bound, slack=kl - bound, witness_edge=witness)
