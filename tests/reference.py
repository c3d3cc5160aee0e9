"""Reference computations the tests check the library against.

Each one takes a route independent of the library code under test, so
agreement is evidence and not a restatement. The exceptions are the last
three, which pin bits: each is a library route as it was before it was
made cheaper, and the library must still return exactly its bits.
"""

import numpy as np
from scipy.linalg import cho_solve, lapack

from ggmsep import PrecisionMatrix, factorize


def schur_complement(m, keep):
    """A - B inv(D) B^T for the block over `keep` (A) against its complement (D).

    det(result) == det(M) / det(D). Applied to a covariance, the result is
    the conditional covariance of the kept coordinates given the rest.
    Raises numpy's LinAlgError when D is not positive definite.
    """
    arr = np.asarray(getattr(m, "matrix", m), dtype=float)
    keep = sorted(keep)
    comp = [k for k in range(arr.shape[0]) if k not in keep]
    b = arr[np.ix_(keep, comp)]
    d_lower = np.linalg.cholesky(arr[np.ix_(comp, comp)])
    s = arr[np.ix_(keep, keep)] - b @ cho_solve((d_lower, True), b.T)
    return 0.5 * (s + s.T)


def in_omega_inf(theta, alpha, h, zero_tol=1e-12):
    """Whether theta lies in the entrywise class: every diagonal <= h and
    every off-diagonal entry above zero_tol has magnitude >= alpha."""
    arr = theta.matrix
    off = np.abs(arr[np.triu_indices(theta.p, k=1)])
    return bool(np.all(np.diag(arr) <= h) and np.all(off[off > zero_tol] >= alpha))


def whitened_by_one_triangular_solve(theta1, theta2):
    """inv(L1) L2 for the kept Cholesky factors, by one dtrtrs solve of the
    whole p x p system (Fortran-ordered, as LAPACK returns it)."""
    half, info = lapack.dtrtrs(factorize(theta1).factor.T, factorize(theta2).factor, lower=0, trans=1)
    assert info == 0
    return half


def kl_by_one_triangular_solve(theta1, theta2):
    """kl_gaussian with the trace ||inv(L1) L2||_F^2 summed from one full
    triangular solve, as numpy sums the squared array."""
    trace = float(np.sum(np.square(whitened_by_one_triangular_solve(theta1, theta2))))
    value = 0.5 * (trace - theta1.p + factorize(theta1).log_determinant - factorize(theta2).log_determinant)
    return 0.0 if abs(value) < 1e-12 else value


def severed_by_validating_a_copy(theta, v, s):
    """The precision-side surgery of project_remove_edge/_star (vertex v,
    neighbours s), built with a separate sum and validated by
    PrecisionMatrix's public constructor on a copy."""
    arr = theta.matrix
    a = [*s, v]
    rest = [u for u in range(theta.p) if u not in a]
    lower = np.linalg.cholesky(arr[np.ix_(a, a)])
    coupling = arr[s, v]
    beta = float(lower[-1, :-1] @ lower[-1, :-1])
    basis = np.zeros((theta.p, 2))
    basis[s, 0] = coupling
    basis[v, 1] = 1.0
    if rest:
        regression, info = lapack.dpotrs(lower, arr[np.ix_(a, rest)], lower=1)
        assert info == 0
        basis[rest, 0] = coupling @ regression[:-1]
        basis[rest, 1] = regression[-1]
    gap = -np.array([[1.0 / float(arr[v, v]), 1.0], [1.0, beta]])
    theta2 = arr + basis @ gap @ basis.T
    theta2[v, s] = 0.0
    theta2[s, v] = 0.0
    return PrecisionMatrix(theta2)
