"""Exact divergences, conditional mutual information, and separation bounds.

Natural logarithms throughout, so every divergence and mutual information
is in nats. All functions are pure and safe to call concurrently; a KL
may fill the covariance its first argument keeps, which changes no result.
The KL trace is sum((theta2 - theta1) * inv(theta1)) with that covariance
(core's _spd_inverse, O(p^3) once per first argument, then O(p^2) per
KL); the block CMI's triangular solve calls LAPACK's dtrtrs through core's
boundary (_trtrs), and log-determinants come from core's _log_det.
c_theta_star is the least of the edgewise _separation_ratios, and the
lower-bound driver deletes the first edge that attains it;
one_edge_lower_bound is the least edgewise conditional mutual
information, from the least _squared_partial_correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import _EXPORTS
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

__all__ = list(_EXPORTS["divergence"])


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
    i, j = _vertex_pair(theta.p, i, j)
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
    return float(_separation_ratios(theta.matrix[None], _edges(theta)).min())


def _edges(theta: PrecisionMatrix) -> np.ndarray:
    # the (1, pairs) edge mask of theta, which must have an edge
    mask = _edge_mask(theta.matrix)
    if not np.any(mask):
        raise NoEdges("matrix has no off-diagonal support")
    return mask[None]


def _separation_ratios(arr: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """The (k, pairs) ratios t_ii t_jj / (t_ii t_jj - t_ij^2) of a (k, p, p)
    stack over _upper_pairs(p), inf off the edges that the (k, pairs) mask
    marks: a row's minimum is its c_theta_star, and the first pair that
    attains it is the edge whose deletion meets the one-edge bound."""
    rows, cols = _upper_pairs(arr.shape[-1])
    diag = np.diagonal(arr, axis1=-2, axis2=-1)
    a = diag[:, rows] * diag[:, cols]
    return np.where(edge, a / (a - arr[:, rows, cols] ** 2), np.inf)


def _squared_partial_correlations(arr: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """The (k, pairs) ratios t_ij^2 / (t_ii t_jj) of a (k, p, p) stack over
    _upper_pairs(p), formed as conditional_mutual_info forms them, inf off
    the edges that the (k, pairs) mask marks: -0.5 * log1p(-x) of a row's
    least x is its least edgewise conditional mutual information."""
    rows, cols = _upper_pairs(arr.shape[-1])
    diag = np.diagonal(arr, axis1=-2, axis2=-1)
    return np.where(edge, arr[:, rows, cols] ** 2 / (diag[:, rows] * diag[:, cols]), np.inf)


def one_edge_lower_bound(theta_star: PrecisionMatrix) -> float:
    """Guaranteed KL gap (nats) when any single true edge is missing.

    Equal to 0.5 * log of the separation constant of theta_star, and
    computed as the least conditional_mutual_info over its edges, bit for
    bit: -0.5 * log1p(-x) for the least t_ij^2 / (t_ii t_jj) over the
    edges, so a weak edge's bound is not the log of a ratio rounded near
    1. NoEdges without an edge.
    """
    x = float(_squared_partial_correlations(theta_star.matrix[None], _edges(theta_star)).min())
    return -0.5 * math.log1p(-x)


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
