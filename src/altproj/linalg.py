"""Dense small-scale linear algebra kernels.

SVD-based least squares and SVD at desk scale (dims <= 100).
Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonConvergence, RankDeficient

RANK_TOL = 1e-10   # relative threshold on singular values


def as_vector(x, dim=None):
    """Coerce to a finite 1-D float array, checking dimension if given."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise DimensionMismatch("vector contains NaN/Inf entries")
    return v


def as_matrix(a, rows=None, cols=None):
    """Coerce to a finite 2-D float array, checking shape if given."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {m.shape}")
    if rows is not None and m.shape[0] != rows:
        raise DimensionMismatch(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimensionMismatch(f"expected {cols} cols, got {m.shape[1]}")
    if m.size and not np.all(np.isfinite(m)):
        raise DimensionMismatch("matrix contains NaN/Inf entries")
    return m


def least_squares(A, b):
    """Unique minimizer of |As - b| for full-column-rank A.

    s = V diag(1/sigma) U[:, :n]^T b from the SVD that the rank test of
    require_full_column_rank computes, so the test and the solve share one
    factorization.  A with no columns gives the empty step; a wide or
    numerically rank-deficient A raises RankDeficient.
    """
    U, sigma, V = require_full_column_rank(A, "matrix does not have full column rank")
    b = as_vector(b, dim=U.shape[0])
    return V @ ((U[:, : sigma.size].T @ b) / sigma)


def require_full_column_rank(A, message):
    """The SVD (U, sigma, V) of A, as svd returns it, once A passes the rank test.

    This is the one rank test on Jacobians: it raises RankDeficient(message)
    if A has more columns than rows or sigma_min <= RANK_TOL * sigma_max.
    A with no columns passes.  Callers solve with the returned factors.
    """
    U, sigma, V = svd(A)
    n = V.shape[0]
    if n > U.shape[0] or (n and sigma[-1] <= RANK_TOL * max(sigma[0], 1e-300)):
        raise RankDeficient(message)
    return U, sigma, V


def svd(A):
    """Full-matrix SVD: A = U diag(sigma) V^T, sigma nonincreasing >= 0."""
    A = as_matrix(A)
    try:
        U, sigma, Vt = np.linalg.svd(A, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc
    return U, sigma, Vt.T
