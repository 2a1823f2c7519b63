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
from .alternating import (
    LINEARIZATION_INFEASIBLE,
    IterationTrace,
    SolveOptions,
    iterate,
)
from .errors import (
    DimensionMismatch,
    Infeasible,
    InsufficientData,
    LinearizationInfeasible,
)
from .polymap import PolyMap
from .sets import ProjectableSet, set_from_json

LICQ_TOL = 1e-8
DEFAULT_ACTIVE_TOL = 1e-6


@dataclass
class ConstraintSystem:
    """G <= 0, P <= 0, H = 0 together with the easy set Q.

    The G/P split (active vs inactive near the solution) is declared by
    the problem author; the QP always includes all rows of both.
    """

    G: PolyMap
    P: PolyMap
    H: PolyMap
    Q: ProjectableSet
    ambient_dim: int

    def __post_init__(self):
        for name, m in (("G", self.G), ("P", self.P), ("H", self.H)):
            if m.input_dim != self.ambient_dim:
                raise DimensionMismatch(
                    f"{name} has input_dim {m.input_dim}, expected {self.ambient_dim}"
                )
        if self.Q.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("Q ambient dimension mismatch")

    def to_json(self):
        return {
            "G": self.G.to_json(),
            "P": self.P.to_json(),
            "H": self.H.to_json(),
            "Q": self.Q.to_json(),
            "ambient_dim": self.ambient_dim,
        }

    @staticmethod
    def from_json(obj):
        for key in ("G", "P", "H", "Q", "ambient_dim"):
            if key not in obj:
                raise ValueError(f"constraint system JSON missing field '{key}'")
        return ConstraintSystem(
            G=PolyMap.from_json(obj["G"]),
            P=PolyMap.from_json(obj["P"]),
            H=PolyMap.from_json(obj["H"]),
            Q=set_from_json(obj["Q"]),
            ambient_dim=int(obj["ambient_dim"]),
        )


@dataclass
class LicqReport:
    point: np.ndarray
    smallest_singular_value: float
    holds: bool
    witness: np.ndarray | None = None


def _linearized_rows(sys: ConstraintSystem, z):
    """Rows of the linearization at z, in x-coordinates: A x (<=/=) b.

    Also returns max(G+, P+, |H|) at z, from the same block values.
    """
    z = linalg.as_vector(z, dim=sys.ambient_dim)
    blocks_ineq = []
    rhs_ineq = []
    violation = 0.0
    for m in (sys.G, sys.P):
        if m.output_dim:
            J = m.jacobian(z)
            v = m.eval(z)
            blocks_ineq.append(J)
            rhs_ineq.append(J @ z - v)
            violation = max(violation, float(np.max(v, initial=0.0)))
    A_ineq = np.vstack(blocks_ineq) if blocks_ineq else np.zeros((0, sys.ambient_dim))
    b_ineq = np.concatenate(rhs_ineq) if rhs_ineq else np.zeros(0)
    if sys.H.output_dim:
        JH = sys.H.jacobian(z)
        h = sys.H.eval(z)
        A_eq, b_eq = JH, JH @ z - h
        violation = max(violation, float(np.max(np.abs(h), initial=0.0)))
    else:
        A_eq, b_eq = np.zeros((0, sys.ambient_dim)), np.zeros(0)
    return z, A_ineq, b_ineq, A_eq, b_eq, violation


def linearized_projection(sys: ConstraintSystem, z):
    """Project z onto the polyhedron of constraints linearized at z.

    Returns (x_z, KktCertificate).  Raises LinearizationInfeasible when
    the linearized polyhedron is empty (possible far from the solution).
    """
    z, A_ineq, b_ineq, A_eq, b_eq, _ = _linearized_rows(sys, z)
    try:
        cert = qp.solve_projection_qp(qp.ProjectionQp(z, A_ineq, b_ineq, A_eq, b_eq))
    except Infeasible as exc:
        raise LinearizationInfeasible(
            "linearized constraints are infeasible at this point",
            exc.y_ineq,
            exc.y_eq,
        ) from exc
    return cert.solution, cert


def newton_feasibility_step(sys: ConstraintSystem, z):
    """z - grad A(z)^T (grad A(z) grad A(z)^T)^{-1} A(z) with A = (G, H).

    Satisfies the linearized G/H equalities exactly; requires the
    stacked Jacobian to have full row rank.  The step is computed from
    the SVD of its transpose that the rank test returns.
    """
    z = linalg.as_vector(z, dim=sys.ambient_dim)
    vals = []
    jacs = []
    for m in (sys.G, sys.H):
        if m.output_dim:
            vals.append(m.eval(z))
            jacs.append(m.jacobian(z))
    if not vals:
        return z.copy()
    a = np.concatenate(vals)
    J = np.vstack(jacs)
    U, sigma, V = linalg.require_full_column_rank(
        J.T, "stacked (G, H) Jacobian is not full row rank"
    )
    return z - U[:, : a.size] @ ((V.T @ a) / sigma)


def check_licq(sys: ConstraintSystem, x, active_tol=DEFAULT_ACTIVE_TOL) -> LicqReport:
    """LICQ at x: active G rows plus all H rows must be linearly independent."""
    x = linalg.as_vector(x, dim=sys.ambient_dim)
    rows = []
    if sys.G.output_dim:
        g = sys.G.eval(x)
        JG = sys.G.jacobian(x)
        for i in range(sys.G.output_dim):
            if abs(g[i]) <= active_tol:
                rows.append(JG[i])
    if sys.H.output_dim:
        rows.extend(sys.H.jacobian(x))
    if not rows:
        return LicqReport(x, float("inf"), True)
    K = np.vstack(rows)
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
    and the raw constraint violation as the M-distance proxy.
    """
    opts = opts or SolveOptions()
    x = linalg.as_vector(x0, dim=sys.ambient_dim)
    return iterate(_constraint_rows(sys, x, sys.Q.distance(x)), opts)


def _constraint_rows(sys, x, dq):
    while True:
        _, A_ineq, b_ineq, A_eq, b_eq, violation = _linearized_rows(sys, x)
        try:
            cert = qp.solve_projection_qp(
                qp.ProjectionQp(x, A_ineq, b_ineq, A_eq, b_eq)
            )
        except Infeasible:
            return LINEARIZATION_INFEASIBLE
        s = cert.solution - x
        shifted = x + s
        yield x, shifted, float(np.linalg.norm(s)), dq, violation
        x, dq = sys.Q.project(shifted), 0.0


def constraint_violation(sys: ConstraintSystem, x):
    """max(G+, P+, |H|) at x."""
    return _linearized_rows(sys, x)[-1]


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
        x_z, _ = linearized_projection(sys, z)
        pm = oracle_m.project(z)
        errors.append(float(np.linalg.norm(x_z - pm)))
        dists.append(oracle_m.distance(z))
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
