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

Inequality rows enter until none is violated beyond rounding: first any
row violated by more than FEAS_TOL, then one violated by more than
VIOL_RTOL (|a||x| + |b|), which for |x| > 1e4 exceeds FEAS_TOL.  A
dependent row met to FEAS_TOL is skipped until the next pivot.

Warm start.  For a fixed working set W the factors Q, R depend only on
the rows, not on the target, and alternating projections onto one
polyhedron solve a sequence of QPs that mostly end on the same W (the
online active-set idea of qpOASES, Ferreau et al., Math. Prog. Comp. 6,
2014).  So _nearest_point can take a _Hint holding the previous solve's
working rows in factor order and their factors.  With N^T = Q_1 R the
multipliers of W at z are u = R^{-1} (Q_1^T z - R^{-T} b_W), the point
optimal for W is x = z - N^T u = (I - Q_1 Q_1^T) z + Q_1 R^{-T} b_W, and
the inequality rows are violated at x by A x - b.  All three are affine
in z, so the first warm start from W stores them as one matrix T of
q + n + m_i rows and one offset t (_fuse: an inverse of R and a few
products, once per working set), and every warm start is one product
y = T z + t, a sign test on u and one max over the violations.  If every
inequality multiplier is >= 0 and every multiplier finite, x is optimal
for W.  That is a valid dual start, and the loop continues from it
unchanged, so it terminates as before; the equality rows already in W are
not entered again.  A negative, NaN or infinite multiplier falls back to
the cold start at x = z.  When every equality row is in W and no
inequality row is violated, which is how most warm solves end, x is
copied out of y and returned, with no pivot and no other copy; otherwise
the entering-row test of the loop decides from x.  The stored product
rounds differently from a cold solve, which ends on the same W: the two
points agree to rounding amplified by cond(N), within 8.2e-16 (1 + |z|)
on the benchmark workloads.  The loop updates factors in place, so
the hint's are copied at the first pivot (when the first row enters); a
hint's arrays are never changed, even by a solve that raises, and a
solve that changes the working set leaves its own in the hint.
Hints are scoped to one run: Polyhedron._run_projection gives each run
its own, so Polyhedron.project stays a pure function and two runs of the
same problem give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import Infeasible, MaxPivots

FEAS_TOL = 1e-9     # primal feasibility (two orders above linalg tolerances)
DUAL_TOL = 1e-10    # a working inequality row blocks a step only if its r exceeds this
DEP_TOL = 1e-10     # linear-dependence threshold when growing the working set
VIOL_RTOL = 1e-13   # an inequality row enters once a.x - b exceeds this times |a||x| + |b|


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
        self.A_ineq = linalg.as_matrix(self.A_ineq, cols=n)
        self.b_ineq = linalg.as_vector(self.b_ineq, dim=self.A_ineq.shape[0])
        self.A_eq = linalg.as_matrix(self.A_eq, cols=n)
        self.b_eq = linalg.as_vector(self.b_eq, dim=self.A_eq.shape[0])

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


class _Hint:
    """A solve's working rows in factor order and their factors, to start the next one on the same rows.

    Q and R factor N^T = Q[:, :q] R[:q, :q] for the q rows in work.  The
    first warm start from them adds the affine map T, t of the working set
    (see _fuse), the floor of its sign test and the equality rows not in
    work, which serve every later one until a solve changes the working
    set.  Solves read these arrays and never change them in place.
    """

    __slots__ = ("work", "Q", "R", "T", "t", "floor", "equalities")

    def __init__(self):
        self.work = None

    def keep(self, work, Q, R):
        self.work, self.Q, self.R, self.T = work, Q, R, None


def _solve(z, rows, rhs, n_i, hint=None):
    """The dual method on checked data: rows = [A_ineq; A_eq], the first n_i inequalities.

    Returns the KktCertificate of _nearest_point's solution.
    """
    x, u, work, pivots = _nearest_point(z, rows, rhs, n_i, hint)
    y = np.zeros(rows.shape[0])
    y[work] = u
    slacks = rhs[:n_i] - rows[:n_i] @ x
    slacks = np.where(np.abs(slacks) < FEAS_TOL, np.maximum(slacks, 0.0), slacks)
    return KktCertificate(x, np.maximum(y[:n_i], 0.0), slacks, y[n_i:],
                          sorted(int(j) for j in work if j < n_i), pivots)


def _nearest_point(z, rows, rhs, n_i, hint=None):
    """(x, u, work, pivots): the solution, the multipliers u of the working rows work, and the pivots.

    With a _Hint for these rows, start from its working set when that is a
    valid dual start at z, and leave this solve's working set in it.  The
    arrays returned are not to be changed: work may be the hint's.
    """
    n, m = z.shape[0], rows.shape[0]
    y = _warm_start(z, rows, rhs, n_i, hint)
    if y is None:
        x, u, work = z.copy(), np.zeros(0), np.zeros(0, dtype=int)
        equalities, skip = iter(range(n_i, m)), work
    else:
        work = hint.work
        q = work.size
        x, u, viol = y[q:q + n].copy(), y[:q], y[q + n:]    # x copied: a trace keeps x, not all of y
        if not hint.equalities and (not n_i or viol.max() <= 0.0):
            return x, u, work, 0        # no row enters: how most warm solves end
        equalities, skip = iter(hint.equalities), work[work < n_i]
    A, b = rows[:n_i], rhs[:n_i]
    p, a_norms = next(equalities, None), None
    if p is None:
        p, a_norms = _entering(x, A, b, skip, (), None)
    if p is None:
        if hint is not None and y is None:
            hint.keep(work, None, None)
        return x, u, work, 0
    # a row enters: the loop pivots on arrays of its own, for a warm start copies of the hint's factors
    q, start = work.size, (u, work)
    Q, R = (np.eye(n), np.zeros((n, n))) if y is None else (hint.Q.copy(), hint.R.copy())
    u = np.zeros(n)                     # multipliers of the working rows
    work = np.zeros(n, dtype=int)       # working row indices, in factor order
    u[:q], work[:q] = start
    met = []                            # dependent rows met to FEAS_TOL since the last pivot
    pivots = 0
    max_pivots = 100 * max(1, m)
    while p is not None:
        a = rows[p]
        u_p = 0.0
        while True:
            # w = Q^T a splits a = N^T r + d with d = Q[:, q:] w[q:] orthogonal to the working rows.
            w = a @ Q
            r = _working_coefficients(R, w, q)
            dd = float(w[q:].dot(w[q:]))   # |d|^2, zero when a depends on the working rows
            if dd <= DEP_TOL * DEP_TOL * (1.0 + math.sqrt(w.dot(w))) ** 2:
                dd = 0.0
            s = float(a @ x) - rhs[p]
            t = s / dd if dd else np.inf
            k = None
            if q and (blocking := (work[:q] < n_i) & (r > DUAL_TOL)).any():
                # partial step: the first working multiplier to reach zero
                ratios = np.full(q, np.inf)
                ratios[blocking] = np.maximum(u[:q][blocking], 0.0) / r[blocking]
                k = int(np.argmin(ratios))
                if ratios[k] < t:
                    t = float(ratios[k])
                else:
                    k = None
            elif not dd:
                if abs(s) <= FEAS_TOL:
                    if p < n_i:
                        met.append(p)
                    break       # a dependent row consistent to FEAS_TOL is redundant
                # Farkas witness e_p - r: A^T y = 0 and b^T y = -|s| < 0.
                y = np.eye(1, m, p)[0]
                y[work[:q]] -= r
                y *= math.copysign(1.0, s)
                raise Infeasible("inconsistent equality constraints" if p >= n_i
                                 else "polyhedron is empty", np.maximum(y[:n_i], 0.0), y[n_i:])
            if pivots >= max_pivots:
                raise MaxPivots(f"dual active-set pivot cap {max_pivots} exceeded")
            pivots += 1
            met.clear()         # x or the working set changes: recheck those rows
            if dd:
                x = x - t * (Q[:, q:] @ w[q:])
            if q:
                u[:q] -= t * r
            u_p += t
            if k is None:
                q = _add(Q, R, u, work, q, w, p, u_p)
                break
            q = _drop(Q, R, u, work, q, k)
        p = next(equalities, None)
        if p is None:
            p, a_norms = _entering(x, A, b, work[:q][work[:q] < n_i], met, a_norms)

    if hint is not None and (y is None or pivots):
        hint.keep(work[:q].copy(), Q, R)
    return x, u[:q], work[:q], pivots


def _working_coefficients(R, w, q):
    """r solving R[:q, :q] r = w[:q], as np.linalg.solve does.

    For q == 1 one division gives LAPACK's bits without the call's
    overhead; a quotient that overflows to inf warns, as numpy division
    does.  For q >= 2 a plain back substitution would not match LAPACK's
    rounding, so np.linalg.solve stays.
    """
    if q == 1:
        return w[:1] / R[0, 0]
    return np.linalg.solve(R[:q, :q], w[:q]) if q else w[:0]


def _entering(x, A, b, skip, met, a_norms):
    """(p, a_norms): the inequality row to enter at x, None when none does, and the row norms of A.

    Called once no equality row is left to enter, so the working rows skip
    are formed only then.  The most-violated inequality row not in skip or
    met enters: first any row violated by more than FEAS_TOL, else one
    violated beyond VIOL_RTOL (|a||x| + |b|).  a_norms is None until that
    relative test first needs the norms, and is passed back to be reused.
    """
    if not b.size:
        return None, a_norms
    viol = A @ x - b
    viol[skip] = -np.inf            # working rows are met
    if met:
        viol[met] = -np.inf
    p = int(viol.argmax())
    if 0.0 < viol[p] <= FEAS_TOL:   # enter only rows violated beyond rounding
        if a_norms is None:
            a_norms = np.linalg.norm(A, axis=1)
        viol[viol <= VIOL_RTOL * (a_norms * linalg.norm(x) + np.abs(b))] = -np.inf
        p = int(viol.argmax())
    return (None if viol[p] <= 0.0 else p), a_norms


def _warm_start(z, rows, rhs, n_i, hint):
    """y = [u; x; viol]: the hint's working rows W's multipliers at z, the point x optimal for W, and A x - b.

    viol is -inf on the inequality rows in W.  None without a nonempty
    hint, or if a multiplier is NaN or infinite or an inequality
    multiplier is < 0.  The hint's arrays are read, not copied.
    """
    if hint is None or hint.work is None or not hint.work.size:
        return None
    if hint.T is None:
        _fuse(hint, rows, rhs, n_i)
    y = hint.T.dot(z) + hint.t
    u = y[:hint.work.size]
    if (u >= hint.floor).all() and u.max() < math.inf:
        return y
    return None


def _fuse(hint, rows, rhs, n_i):
    """Store the affine map z -> T z + t = [u; x; viol] of the hint's working rows W, and its sign test.

    With N^T = Q_1 R the multipliers of W at z solve R^T R u = N z - b_W,
    so u = R^{-1} (Q_1^T z - c) with c = R^{-T} b_W; x = z - N^T u =
    (I - Q_1 Q_1^T) z + Q_1 c, and the inequality rows give viol = A x - b.
    The offsets of viol on the inequality rows in W are -inf, so those
    rows never enter.  floor is 0 for inequality rows and -DBL_MAX for
    equality rows: u passes the sign test when u >= floor and max(u) < inf.
    """
    W = hint.work
    q, n, in_work = W.size, rows.shape[1], set(W.tolist())
    Q1 = hint.Q[:, :q]
    R_inv = np.linalg.inv(hint.R[:q, :q])
    c = rhs[W] @ R_inv
    P = np.eye(n) - Q1 @ Q1.T
    x0 = Q1 @ c
    A, b = rows[:n_i], rhs[:n_i]
    t = np.concatenate([-(R_inv @ c), x0, A @ x0 - b])
    t[q + n + W[W < n_i]] = -np.inf
    hint.T, hint.t = np.vstack([R_inv @ Q1.T, P, A @ P]), t
    hint.floor = np.where(W < n_i, 0.0, -np.finfo(float).max)
    hint.equalities = [j for j in range(n_i, rows.shape[0]) if j not in in_work]


def _add(Q, R, u, work, q, w, j, u_j):
    """Append row j (w = Q^T a_j) to the factors: one Householder on Q[:, q:]."""
    v = w[q:].copy()
    alpha = -math.copysign(math.sqrt(v.dot(v)), v[0])
    v[0] -= alpha
    Q[:, q:] -= (Q[:, q:] @ v)[:, None] * (v * (2.0 / v.dot(v)))
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
