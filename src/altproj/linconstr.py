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
from functools import cached_property

import numpy as np

from . import linalg, qp
from .alternating import IterationTrace, iterate
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

ACTIVE_TOL = 1e-6


@dataclass(frozen=True)
class ConstraintSystem(Schema):
    """G <= 0, P <= 0, H = 0 together with the easy set Q.

    The G/P split (active vs inactive near the solution) is declared by
    the problem author; the QP always includes all rows of both.  The
    fields are frozen, as the stacked map compiled from the blocks on
    first use must stay theirs.
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

    @cached_property
    def _stacked(self):
        """[G; P; H] as one PolyMap, so that one power table linearizes all three blocks.

        Compiled at the first linearization, not with the system.  Its
        values and Jacobian rows are the blocks' bit for bit: each bin sums
        the same terms in the same order, from the same libm powers.
        """
        return PolyMap(self.ambient_dim, self.G.outputs + self.P.outputs + self.H.outputs)


@dataclass
class LicqReport:
    point: np.ndarray
    smallest_singular_value: float
    holds: bool
    witness: np.ndarray | None = None


def _linearized_rows(sys: ConstraintSystem, z):
    """The linearization at a checked z as the QP solver takes it: rows x (<=/=) rhs.

    rows = [J_G; J_P; J_H], the first n_i of them inequalities, stacked as
    qp._solve takes its rows [A_ineq; A_eq], and values = [G; P; H] at z,
    both from one linearization of the stacked map.  rhs is J z - v block
    by block: one product of all rows with z can differ in the last bit,
    as BLAS blocks a matrix-vector product by its number of rows.  A
    NaN/Inf in the linearization (a polynomial that overflows) raises
    DimensionMismatch.
    """
    values, rows = sys._stacked._linearize(z)
    n_g = sys.G.output_dim
    n_i = n_g + sys.P.output_dim
    rhs = np.empty(rows.shape[0])
    for a, b in ((0, n_g), (n_g, n_i), (n_i, rows.shape[0])):
        if b > a:
            rhs[a:b] = rows[a:b] @ z - values[a:b]
    if not (np.isfinite(rows).all() and np.isfinite(rhs).all()):
        raise DimensionMismatch("linearized constraints contain NaN/Inf entries")
    return rows, rhs, n_i, values


def linearized_projection(sys: ConstraintSystem, z):
    """Project z onto the polyhedron of constraints linearized at z.

    Returns (x_z, KktCertificate).  Raises LinearizationInfeasible when
    the linearized polyhedron is empty (possible far from the solution).
    """
    z = linalg.as_vector(z, dim=sys.ambient_dim)
    rows, rhs, n_i, _ = _linearized_rows(sys, z)
    cert = _linearized_qp(qp._solve, z, rows, rhs, n_i)
    return cert.solution, cert


def _linearized_qp(solve, z, rows, rhs, n_i, hint=None):
    """The QP solve(z, rows, rhs, n_i, hint) of the linearization at z.

    An empty linearization raises LinearizationInfeasible, which keeps the
    QP's Farkas witness.
    """
    try:
        return solve(z, rows, rhs, n_i, hint)
    except Infeasible as exc:
        raise LinearizationInfeasible(
            "linearized constraints are infeasible at this point",
            exc.y_ineq,
            exc.y_eq,
        ) from exc


def check_licq(sys: ConstraintSystem, x) -> LicqReport:
    """LICQ at x: the active G rows plus all H rows must be linearly independent.

    A G row is active when |G_i(x)| <= ACTIVE_TOL |grad G_i(x)|, its
    first-order distance to the zero set within ACTIVE_TOL, a rule that
    scaling a row cannot change; a row with a zero gradient is active only
    where it vanishes.  Independent means linalg.rank counts one singular
    value per row, a rule relative to sigma_max that scaling cannot change
    either.
    """
    x = linalg.as_vector(x, dim=sys.ambient_dim)
    rows, _, n_i, values = _linearized_rows(sys, x)
    n_g = sys.G.output_dim
    active = np.abs(values[:n_g]) <= ACTIVE_TOL * np.linalg.norm(rows[:n_g], axis=1)
    K = np.vstack([rows[:n_g][active], rows[n_i:]])
    if not K.shape[0]:
        return LicqReport(x, float("inf"), True)
    U, sigma, _ = linalg.svd(K)
    smin = float(sigma[-1]) if K.shape[0] <= K.shape[1] else 0.0
    if linalg.rank(sigma) == K.shape[0]:
        return LicqReport(x, smin, True)
    # witness: multipliers v with K^T v ~ 0; with more rows than dimensions
    # U[:, -1] lies in the null space of K^T
    return LicqReport(x, smin, False, U[:, -1])


def solve_constraint_system(sys: ConstraintSystem, x0, opts=None) -> IterationTrace:
    """Linearize-and-project driver: s from the min-norm QP, then P_Q(x+s).

    Trace rows record the iterate x, the shifted point x + s, gap = |s|,
    and the raw constraint violation as the M-distance proxy.  An empty
    linearization ends the run with status LinearizationInfeasible.  Each
    QP after the first starts from the last one's working set, which near a
    solution is mostly its own (see qp, "Renewed rows").

    The QP's absolute floors limit how far the constraints may be scaled
    down.  A linearized row shorter than about qp.DEP_TOL = 1e-10 counts as
    a zero row, and a zero row is met when its residual is within
    qp.FEAS_TOL = 1e-9.  So with every constraint of G: the unit disc,
    H: y = x^2 and Q: the line y = 0.25 scaled by 1e-12, the first QP finds
    every row met, and the run from (2, 2) reports Converged after one step,
    at (2, 0.25), 1.5 from the answer.  Scales from 1e-9 to 1e12 give the
    unscaled answer.
    """
    x = linalg.as_vector(x0, dim=sys.ambient_dim)
    return iterate(_constraint_rows(sys, x, sys.Q.distance(x)), opts)


def _constraint_rows(sys, x, dq):
    project_q = sys.Q._run_projection()
    hint = qp._Hint()
    while True:
        rows, rhs, n_i, values = _linearized_rows(sys, x)
        hint.renew()
        s = _linearized_qp(qp._nearest_point, x, rows, rhs, n_i, hint)[0] - x
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
        errors.append(linalg.norm(x_z - pm))
        dists.append(linalg.norm(z - pm))
    errors = np.array(errors)
    dists = np.array(dists)

    if errors.size and np.all(errors <= 1e-12):  # an empty path moves on to the count below
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
