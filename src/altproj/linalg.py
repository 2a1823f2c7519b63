"""Dense small-scale linear algebra kernels, and the checks of every input.

SVD-based least squares and SVD at desk scale (dims <= 100); as_vector and
as_matrix check arrays, read_fields JSON objects.  Everything here is a
pure function of its inputs.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import DimensionMismatch, FieldError, NonConvergence, RankDeficient

RANK_TOL = 1e-10   # relative threshold on singular values


def as_vector(x, dim=None, field=None):
    """Coerce to a finite 1-D float array, checking dimension if given.

    Errors raise DimensionMismatch.  Given field, the name of an input
    field, they raise FieldError naming it.
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
    return FieldError(f"{field}: {message}") if field else DimensionMismatch(message)


def _non_finite(field, what):
    if field:
        return FieldError(f"{field} contains NaN/Inf entries")
    return DimensionMismatch(f"{what} contains NaN/Inf entries")


def read_fields(obj, fields, label, where, optional=()):
    """The fields that fields declares, read from the JSON object obj; where names obj.

    fields maps each name, in order, to its reader (value, path): it returns
    the value if its JSON type is right, else raises FieldError naming path,
    '<label> <name>' or "field '<name>'" with no label.  Fields not in
    optional must be present, and fields not declared are ignored.
    """
    if type(obj) is not dict:
        raise FieldError(f"{where}: expected an object, got {_describe(obj)}")
    values = {}
    for name, read in fields.items():
        if name in obj:
            values[name] = read(obj[name], f"{label} {name}" if label else f"field '{name}'")
        elif name not in optional:
            raise FieldError(f"{where} missing field '{name}'")
    return values


def _json_type(what, *types):
    """The reader of a JSON value of one of these Python types; what names them in errors."""

    def read(value, path):
        if type(value) not in types or type(value) is int and value not in _INT64:
            raise FieldError(f"{path}: expected {what}, got {_describe(value)}")
        return value

    return read


_INT64 = range(-(2**63), 2**63)  # the integers numpy takes; a JSON integer must be one of them
number = _json_type("a number", int, float)  # NaN and Infinity too; true and false are not numbers
integer = _json_type("an integer", int)
string = _json_type("a string", str)
_list = _json_type("a list", list)


def numbers(value, path):
    """A list of numbers, or of such lists of one length, nested to any depth."""
    level = _list(value, path)
    while (types := {type(x) for x in level}) == {list} and len({len(x) for x in level}) == 1:
        level = [y for x in level for y in x]
    bad = [x for x in level if type(x) is not float and (type(x) is not int or x not in _INT64)]
    if bad:
        got = "rows of unequal length" if list in types else f"{_describe(bad[0])} in it"
        raise FieldError(f"{path}: expected a list of numbers, got {got}")
    return value


def list_of(read):
    """The reader of a JSON list whose items read reads, item i at path '<path>[i]'."""
    return lambda value, path: [read(x, f"{path}[{i}]") for i, x in enumerate(_list(value, path))]


def _describe(value):
    """A JSON value as errors name it: a scalar as written, anything else by its type."""
    if type(value) in (bool, int, float, type(None)):
        return json.dumps(value)
    return {str: "string", list: "list", dict: "object"}.get(type(value), type(value).__name__)


class Schema:
    """A type read from and written to JSON by its declaration.

    kind names it in errors; fields maps each constructor argument, in order
    and stored under its own name, to the reader of its JSON value.  The JSON
    may leave out an argument with a default, and to_json one stored as None.
    """

    kind: str
    fields: dict

    @classmethod
    def from_json(cls, obj, where=None):
        """The object a to_json dict describes; where names obj in errors."""
        optional = list(cls.fields)[len(cls.fields) - len(cls.__init__.__defaults__ or ()):]
        label, where = cls.kind.replace("_", " "), where or f"{cls.kind} JSON"
        return cls(**read_fields(obj, cls.fields, label, where, optional))

    def to_json(self):
        return {f: Schema._json(v) for f in self.fields if (v := getattr(self, f)) is not None}

    @staticmethod
    def _json(value):
        if isinstance(value, (list, tuple)):
            return [Schema._json(x) for x in value]
        return value.to_json() if isinstance(value, Schema) else np.asarray(value).tolist()


def norm(v):
    """The Euclidean norm of a contiguous 1-D float array, as a float.

    Bit for bit float(np.linalg.norm(v)), which computes sqrt(v.dot(v)),
    with the same overflow warning, but without its ~0.5-1 us of argument
    handling.  np.linalg.norm copies a strided view first, and a dot over a
    stride can round differently, so pass contiguous vectors: a difference
    of two vectors is one.  It is the package's one vector norm in every
    loop: the drivers' steps, ProjectableSet.distance, the inexact step's
    draw and the faithfulness and decay checks.
    """
    return math.sqrt(v.dot(v))


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


def rank(sigma):
    """The numerical rank for singular values sigma: the count of sigma > RANK_TOL * sigma_max.

    require_full_column_rank's sigma_min test is the same rule on nonincreasing sigma.
    """
    return int(np.sum(sigma > RANK_TOL * sigma.max(initial=0.0)))


def row_basis(L):
    """Orthonormal rows spanning the rows of L, one per unit of its numerical rank."""
    _, sigma, V = svd(L)
    return V[:, : rank(sigma)].T


def svd(A):
    """Full-matrix SVD: A = U diag(sigma) V^T, sigma nonincreasing >= 0."""
    A = as_matrix(A)
    try:
        U, sigma, Vt = np.linalg.svd(A, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc
    return U, sigma, Vt.T
