"""Reference computations the tests check the library against.

Each one takes a route independent of the library code under test, so
agreement is evidence and not a restatement.
"""

import numpy as np
from scipy.linalg import cho_solve


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
