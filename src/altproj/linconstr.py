"""Inexact projection onto smooth constraint sets via linearization.

The constraint set is M = {x : G(x) <= 0, P(x) <= 0, H(x) = 0} and the
approximate projection of z is the nearest point of the polyhedron
obtained by linearizing every block at z.  Near a point satisfying the
linear independence constraint qualification this is an inexact
projection with error O(d_M(z)^2), which the measurement helper at the
bottom verifies empirically on systems with an exactly projectable
surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, qp
from .alternating import IterationTrace, SolveOptions, iterate
from .errors import (
    DimensionMismatch,
    FieldError,
    Infeasible,
    InsufficientData,
    LinearizationInfeasible,
)
from .linalg import Schema, integer
from .polymap import PolyMap
from .sets import ProjectableSet, set_from_json

LICQ_TOL = 1e-8
ACTIVE_TOL = 1e-6


@dataclass
class ConstraintSystem(Schema):
    """G <= 0, P <= 0, H = 0 together with the easy set Q.

    The G/P split (active vs inactive near the solution) is declared by
    the problem author; the QP always includes all rows of both.
    """

    G: PolyMap
    P: PolyMap
    H: PolyMap
    Q: ProjectableSet
    ambient_dim: int

    kind = "constraint system"
    fields = {"G": PolyMap.from_json, "P": PolyMap.from_json, "H": PolyMap.from_json,
              "Q": set_from_json, "ambient_dim": integer}

    def __post_init__(self):
        n = self.ambient_dim
        for name, dim in (("G", self.G.input_dim), ("P", self.P.input_dim), ("H", self.H.input_dim),
                          ("Q", self.Q.ambient_dim)):
            if dim != n:
                raise FieldError(f"constraint system {name}: lives in R^{dim}, ambient_dim is {n}")


@dataclass
class LicqReport:
    point: np.ndarray
    smallest_singular_value: float
    holds: bool
    witness: np.ndarray | None = None


def _linearized_rows(sys: ConstraintSystem, z):
    """The linearization at a checked z as the QP solver takes it: rows x (<=/=) rhs.

    rows = [J_G; J_P; J_H], the first n_i of them inequalities, stacked as
    solve_projection_qp stacks [A_ineq; A_eq], and values = [G; P; H] at z.
    rhs is J z - v block by block.  A NaN/Inf in the linearization (a
    polynomial that overflows) raises DimensionMismatch.
    """
    blocks = [m._linearize(z) for m in (sys.G, sys.P, sys.H) if m.output_dim] or [
        (np.zeros(0), np.zeros((0, sys.ambient_dim)))
    ]
    rows = np.vstack([J for _, J in blocks])
    rhs = np.concatenate([J @ z - v for v, J in blocks])
    if not (np.isfinite(rows).all() and np.isfinite(rhs).all()):
        raise DimensionMismatch("linearized constraints contain NaN/Inf entries")
    values = np.concatenate([v for v, _ in blocks])
    return rows, rhs, sys.G.output_dim + sys.P.output_dim, values


def linearized_projection(sys: ConstraintSystem, z):
    """Project z onto the polyhedron of constraints linearized at z.

    Returns (x_z, KktCertificate).  Raises LinearizationInfeasible when
    the linearized polyhedron is empty (possible far from the solution).
    """
    z = linalg.as_vector(z, dim=sys.ambient_dim)
    rows, rhs, n_i, _ = _linearized_rows(sys, z)
    cert = _linearized_qp(qp._solve, z, rows, rhs, n_i)
    return cert.solution, cert


def _linearized_qp(solve, z, rows, rhs, n_i):
    """The QP solve(z, rows, rhs, n_i) of the linearization at z.

    An empty linearization raises LinearizationInfeasible, which keeps the
    QP's Farkas witness.
    """
    try:
        return solve(z, rows, rhs, n_i)
    except Infeasible as exc:
        raise LinearizationInfeasible(
            "linearized constraints are infeasible at this point",
            exc.y_ineq,
            exc.y_eq,
        ) from exc


def check_licq(sys: ConstraintSystem, x) -> LicqReport:
    """LICQ at x: G rows with |G| <= ACTIVE_TOL plus all H rows must be linearly independent."""
    x = linalg.as_vector(x, dim=sys.ambient_dim)
    rows, _, n_i, values = _linearized_rows(sys, x)
    n_g = sys.G.output_dim
    K = np.vstack([rows[:n_g][np.abs(values[:n_g]) <= ACTIVE_TOL], rows[n_i:]])
    if not K.shape[0]:
        return LicqReport(x, float("inf"), True)
    U, sigma, _ = linalg.svd(K)
    smin = float(sigma[-1]) if K.shape[0] <= K.shape[1] else 0.0
    if smin > LICQ_TOL:
        return LicqReport(x, smin, True)
    # witness: multipliers v with K^T v ~ 0; with more rows than dimensions
    # U[:, -1] lies in the null space of K^T
    return LicqReport(x, smin, False, U[:, -1])


def solve_constraint_system(sys: ConstraintSystem, x0, opts=None) -> IterationTrace:
    """Linearize-and-project driver: s from the min-norm QP, then P_Q(x+s).

    Trace rows record the iterate x, the shifted point x + s, gap = |s|,
    and the raw constraint violation as the M-distance proxy.  An empty
    linearization ends the run with status LinearizationInfeasible.
    """
    opts = opts or SolveOptions()
    x = linalg.as_vector(x0, dim=sys.ambient_dim)
    return iterate(_constraint_rows(sys, x, sys.Q.distance(x)), opts)


def _constraint_rows(sys, x, dq):
    project_q = sys.Q._run_projection()
    while True:
        rows, rhs, n_i, values = _linearized_rows(sys, x)
        s = _linearized_qp(qp._nearest_point, x, rows, rhs, n_i)[0] - x
        shifted = x + s
        violation = max(values[:n_i].max(initial=0.0), np.abs(values[n_i:]).max(initial=0.0))
        yield x, shifted, linalg.norm(s), dq, float(violation)
        x, dq = project_q(shifted), 0.0


@dataclass
class QuadraticDecayReport:
    slope: float | None
    constant: float | None
    exact_linearization: bool
    errors: np.ndarray
    distances: np.ndarray


def measure_quadratic_decay(
    sys: ConstraintSystem, oracle_m: ProjectableSet, path
) -> QuadraticDecayReport:
    """Fit |Phi(z) - P_M(z)| against d_M(z) on a log-log scale.

    oracle_m must be an exactly projectable surrogate of the constraint
    set.  The slope is fit over the trailing half of the usable path
    points: the quadratic-decay claim is asymptotic, and early path
    points far from the solution bias a whole-path fit low.
    A slope near 2 confirms quadratic error decay; the constant is the
    ratio error / d^2 at the last path point.
    """
    errors = []
    dists = []
    for z in path:
        z = linalg.as_vector(z, dim=sys.ambient_dim)
        x_z, _ = linearized_projection(sys, z)
        pm = oracle_m.project(z)
        errors.append(float(np.linalg.norm(x_z - pm)))
        dists.append(float(np.linalg.norm(z - pm)))
    errors = np.array(errors)
    dists = np.array(dists)

    if np.all(errors <= 1e-12):
        return QuadraticDecayReport(None, None, True, errors, dists)
    floor = 100 * np.finfo(float).eps
    keep = errors > floor
    if int(keep.sum()) < 4:
        raise InsufficientData(
            f"only {int(keep.sum())} path points with error above {floor:g}"
        )
    e = errors[keep]
    d = dists[keep]
    half = len(e) // 2
    slope = float(np.polyfit(np.log(d[half:]), np.log(e[half:]), 1)[0])
    constant = float(e[-1] / d[-1] ** 2)
    return QuadraticDecayReport(slope, constant, False, errors, dists)


def geometric_path(x_bar, direction, ts):
    """Default approach path z_t = x_bar + 2^{-t} * direction."""
    x_bar = np.asarray(x_bar, dtype=float)
    direction = np.asarray(direction, dtype=float)
    return [x_bar + (2.0**-t) * direction for t in ts]
