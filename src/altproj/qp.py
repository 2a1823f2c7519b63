"""Dual active-set solver for nearest-point problems over polyhedra.

Solves   minimize 1/2 |x - z|^2
         subject to A_ineq x <= b_ineq,  A_eq x = b_eq

by the dual method of Goldfarb and Idnani ("A numerically stable dual
method for solving strictly convex quadratic programs", Math. Prog. 27,
1983) with Hessian I.  It starts at the unconstrained minimizer z, adds
the equality rows, then repeatedly adds the most-violated inequality row
(lowest index on ties).  Each step keeps x = z - N^T u with the working
rows N satisfied as equalities and their inequality multipliers u >= 0,
so x is always optimal for the working set.  Moving toward the entering
row, the step is min(t_partial, t_full): a full step makes the row active,
a partial step drops the working row whose multiplier reaches zero first.
Every step with t > 0 strictly raises the dual objective, and at most
n drops can follow each other, so no working set repeats and the method
terminates.  If the entering row depends on the working set and no row
can be dropped, the polyhedron is empty and the dependence coefficients
give a Farkas witness.  The working rows are kept as QR factors
N^T = Q[:, :q] R, updated in place: a Householder reflection on Q[:, q:]
appends a row, Givens rotations restore R after a drop.  A pivot cap
guards against numerical cycling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatch, Infeasible, MaxPivots

FEAS_TOL = 1e-9     # primal feasibility (two orders above linalg tolerances)
DUAL_TOL = 1e-10    # a working inequality row blocks a step only if its r exceeds this
DEP_TOL = 1e-10     # linear-dependence threshold when growing the working set


@dataclass
class ProjectionQp:
    """Data of one nearest-point QP."""

    target: np.ndarray
    A_ineq: np.ndarray
    b_ineq: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray

    def __post_init__(self):
        self.target = linalg.as_vector(self.target)
        n = self.target.shape[0]
        self.A_ineq = linalg.as_matrix(
            np.asarray(self.A_ineq, dtype=float).reshape(-1, n), cols=n
        )
        self.b_ineq = linalg.as_vector(
            np.asarray(self.b_ineq, dtype=float).reshape(-1), dim=self.A_ineq.shape[0]
        ) if self.A_ineq.shape[0] else np.zeros(0)
        self.A_eq = linalg.as_matrix(
            np.asarray(self.A_eq, dtype=float).reshape(-1, n), cols=n
        )
        self.b_eq = linalg.as_vector(
            np.asarray(self.b_eq, dtype=float).reshape(-1), dim=self.A_eq.shape[0]
        ) if self.A_eq.shape[0] else np.zeros(0)

    @property
    def dim(self):
        return self.target.shape[0]


@dataclass
class KktCertificate:
    """Solution plus the multipliers/slacks certifying optimality."""

    solution: np.ndarray
    ineq_multipliers: np.ndarray
    slacks: np.ndarray
    eq_multipliers: np.ndarray
    active_set: list = field(default_factory=list)
    pivots: int = 0   # working-set changes: rows added plus rows dropped


def solve_projection_qp(p: ProjectionQp) -> KktCertificate:
    """Project p.target onto the polyhedron, returning a full certificate.

    Raises Infeasible (with a Farkas witness) if the polyhedron is empty,
    MaxPivots if the dual loop cycles past its cap.
    """
    rows = np.vstack([p.A_ineq, p.A_eq])
    rhs = np.concatenate([p.b_ineq, p.b_eq])
    return _solve(p.target, rows, rhs, p.A_ineq.shape[0])


def _solve(z, rows, rhs, n_i):
    """The dual method on checked data: rows = [A_ineq; A_eq], the first n_i inequalities."""
    n, m = z.shape[0], rows.shape[0]
    max_pivots = 100 * max(1, m)
    x = z.copy()
    Q = np.eye(n)
    R = np.zeros((n, n))
    u = np.zeros(n)                     # multipliers of the working rows
    work = np.zeros(n, dtype=int)       # working row indices, in factor order
    q = pivots = 0
    A, b = rows[:n_i], rhs[:n_i]
    equalities = iter(range(n_i, m))
    while True:
        # Entering row: each equality in turn, then the most-violated inequality.
        p = next(equalities, None)
        if p is None:
            if not n_i:
                break
            viol = A @ x - b
            viol[work[:q][work[:q] < n_i]] = -np.inf    # working rows are met
            p = int(np.argmax(viol))
            if viol[p] <= FEAS_TOL:
                break
        a = rows[p]
        u_p = 0.0
        while True:
            # w = Q^T a splits a = N^T r + d with d = Q[:, q:] w[q:] orthogonal to the working rows.
            w = a @ Q
            r = np.linalg.solve(R[:q, :q], w[:q]) if q else w[:0]
            dd = float(w[q:] @ w[q:])   # |d|^2, zero when a depends on the working rows
            if dd <= DEP_TOL * DEP_TOL * (1.0 + np.sqrt(w @ w)) ** 2:
                dd = 0.0
            s = float(a @ x) - rhs[p]
            t = s / dd if dd else np.inf
            k = None
            blocking = (work[:q] < n_i) & (r > DUAL_TOL)
            if blocking.any():
                # partial step: the first working multiplier to reach zero
                ratios = np.full(q, np.inf)
                ratios[blocking] = np.maximum(u[:q][blocking], 0.0) / r[blocking]
                k = int(np.argmin(ratios))
                if ratios[k] < t:
                    t = float(ratios[k])
                else:
                    k = None
            elif not dd:
                if p >= n_i and abs(s) <= FEAS_TOL:
                    break       # a dependent but consistent equality row is redundant
                # Farkas witness e_p - r: A^T y = 0 and b^T y = -|s| < 0.
                y = np.zeros(m)
                y[p] = 1.0
                y[work[:q]] -= r
                if s < 0:
                    y = -y
                raise Infeasible("inconsistent equality constraints" if p >= n_i
                                 else "polyhedron is empty", np.maximum(y[:n_i], 0.0), y[n_i:])
            if pivots >= max_pivots:
                raise MaxPivots(f"dual active-set pivot cap {max_pivots} exceeded")
            pivots += 1
            if dd:
                x = x - t * (Q[:, q:] @ w[q:])
            u[:q] -= t * r
            u_p += t
            if k is None:
                q = _add(Q, R, u, work, q, w, p, u_p)
                break
            q = _drop(Q, R, u, work, q, k)

    y = np.zeros(m)
    y[work[:q]] = u[:q]
    slacks = b - A @ x
    slacks = np.where(np.abs(slacks) < FEAS_TOL, np.maximum(slacks, 0.0), slacks)
    return KktCertificate(x, np.maximum(y[:n_i], 0.0), slacks, y[n_i:],
                          sorted(int(j) for j in work[:q] if j < n_i), pivots)


def _add(Q, R, u, work, q, w, j, u_j):
    """Append row j (w = Q^T a_j) to the factors: one Householder on Q[:, q:]."""
    v = w[q:].copy()
    alpha = -math.copysign(math.sqrt(v @ v), v[0])
    v[0] -= alpha
    Q[:, q:] -= np.outer(Q[:, q:] @ v, v * (2.0 / (v @ v)))
    R[:q, q] = w[:q]
    R[q, q] = alpha
    u[q], work[q] = u_j, j
    return q + 1


def _drop(Q, R, u, work, q, k):
    """Remove working position k: shift columns, then Givens rotations restore R."""
    R[:, k:q - 1] = R[:, k + 1:q]
    R[:, q - 1] = 0.0
    u[k:q - 1] = u[k + 1:q]
    work[k:q - 1] = work[k + 1:q]
    for i in range(k, q - 1):
        h = np.hypot(R[i, i], R[i + 1, i])
        G = np.array([[R[i, i], R[i + 1, i]], [-R[i + 1, i], R[i, i]]]) / h
        R[i:i + 2, i:q - 1] = G @ R[i:i + 2, i:q - 1]
        R[i + 1, i] = 0.0
        Q[:, i:i + 2] = Q[:, i:i + 2] @ G.T
    return q - 1


def min_norm_step(A_ineq, b_ineq, A_eq, b_eq) -> np.ndarray:
    """Minimal-norm s with A_ineq s <= b_ineq and A_eq s = b_eq.

    Same program as solve_projection_qp with target 0.
    """
    A_ineq = np.asarray(A_ineq, dtype=float)
    A_eq = np.asarray(A_eq, dtype=float)
    if A_ineq.ndim != 2 or A_eq.ndim != 2:
        raise DimensionMismatch("constraint blocks must be 2-D")
    n = A_ineq.shape[1] if A_ineq.shape[1] else A_eq.shape[1]
    if A_ineq.shape[1] != n or A_eq.shape[1] != n:
        raise DimensionMismatch("constraint blocks disagree on dimension")
    cert = solve_projection_qp(ProjectionQp(np.zeros(n), A_ineq, b_ineq, A_eq, b_eq))
    return cert.solution


def verify_certificate(p: ProjectionQp, cert: KktCertificate, tol=FEAS_TOL):
    """Independent KKT check; returns the max violation across conditions."""
    x, w, s, y = cert.solution, cert.ineq_multipliers, cert.slacks, cert.eq_multipliers
    v = 0.0
    if p.A_ineq.shape[0]:
        v = max(v, float(np.max(p.A_ineq @ x - p.b_ineq, initial=0.0)))
        v = max(v, float(np.max(-w, initial=0.0)))
        v = max(v, float(np.max(-s, initial=0.0)))
        v = max(v, abs(float(w @ s)))
        v = max(v, float(np.max(np.abs(p.b_ineq - p.A_ineq @ x - s))))
    if p.A_eq.shape[0]:
        v = max(v, float(np.max(np.abs(p.A_eq @ x - p.b_eq))))
    stat = x - p.target
    if p.A_ineq.shape[0]:
        stat = stat + p.A_ineq.T @ w
    if p.A_eq.shape[0]:
        stat = stat + p.A_eq.T @ y
    v = max(v, float(np.linalg.norm(stat)))
    return v
