"""Dense small-scale linear algebra kernels.

SVD-based least squares and SVD at desk scale (dims <= 100).
Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonConvergence, RankDeficient

RANK_TOL = 1e-10   # relative threshold on singular values


def as_vector(x, dim=None, field=None):
    """Coerce to a finite 1-D float array, checking dimension if given.

    Errors raise DimensionMismatch.  Given field, the name of a set's input
    field, a shape error names it and NaN/Inf raises ValueError naming it.
    """
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise _shape_error(field, f"expected a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise _shape_error(field, f"expected dimension {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise _non_finite(field, "vector")
    return v


def as_matrix(a, cols=None, field=None):
    """Coerce to a finite 2-D float array, checking the column count if given.

    With cols given, [] is the empty (0, cols) matrix.  Errors as in as_vector.
    """
    m = np.asarray(a, dtype=float)
    if cols is not None and m.shape == (0,):
        m = m.reshape(0, cols)
    if m.ndim != 2:
        raise _shape_error(field, f"expected a matrix, got shape {m.shape}")
    if cols is not None and m.shape[1] != cols:
        raise _shape_error(field, f"expected {cols} cols, got {m.shape[1]}")
    if not np.isfinite(m).all():
        raise _non_finite(field, "matrix")
    return m


def _shape_error(field, message):
    return DimensionMismatch(f"{field}: {message}" if field else message)


def _non_finite(field, what):
    if field:
        return ValueError(f"{field} contains NaN/Inf entries")
    return DimensionMismatch(f"{what} contains NaN/Inf entries")


def least_squares(A, b):
    """Unique minimizer of |As - b| for full-column-rank A.

    s = V diag(1/sigma) U[:, :n]^T b from the SVD that the rank test of
    require_full_column_rank computes, so the test and the solve share one
    factorization.  b is not checked: the drivers pass residuals of checked
    arrays, one entry per row of A.  A with no columns gives the empty
    step; a wide or numerically rank-deficient A raises RankDeficient.
    """
    U, sigma, V = require_full_column_rank(A, "matrix does not have full column rank")
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
