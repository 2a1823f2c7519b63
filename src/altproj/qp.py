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
the other inequality rows have slacks b - A x.  All three are affine in
z, so the first warm start from W stores them as one matrix T of
n + m_e(W) + m_i rows and one offset t (_fuse: an inverse of R and a few
products, once per working set), and every warm start is one product
y = T z + t = [x; e; s].  e holds the multipliers of W's equality rows;
s holds those of W's inequality rows, then the slacks of the others.  If
every inequality multiplier is >= 0 and every multiplier finite, x is
optimal for W.  That is a valid dual start, and the loop continues from it
unchanged, so it terminates as before; the equality rows already in W are
not entered again.  A negative, NaN or infinite multiplier falls back to
the cold start at x = z.  When also every equality row is in W and no
slack is negative, which is how most warm solves end, x is copied out of
y and returned, with no pivot and no other copy.  One max over s, read as
unsigned integers, decides that case: s >= 0 and finite, with e finite.
Anything else goes to a per-row test of the multipliers, and then
the entering-row test of the loop decides from x.  The stored product
rounds differently from a cold solve, which ends on the same W: the two
points agree to rounding amplified by cond(N), within 8.2e-16 (1 + |z|)
on the benchmark workloads.  Each row of T is a row of the map z ->
[u; x; A x - b], or its negative for a slack, and a row of a product
rounds alike wherever it sits, except in the last m mod 4 rows, which
OpenBLAS's gemv rounds its own way.  So x and u have the bits of that
map's product when at least three inequality rows lie outside W, as in
every warm QP of the benchmark workloads, and may differ by an ulp
otherwise.  The loop updates factors in place, so the hint's are copied
at the first pivot (when the first row enters); a hint's arrays are
never changed, even by a solve that raises, and a solve that changes
the working set leaves its own in the hint.
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
_INF_BITS = int(np.array(math.inf).view(np.uint64))


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
    (see _fuse), where u_at finds its multipliers, and the equality rows not
    in work, which serve every later one until a solve changes the working
    set.  Solves read these arrays and never change them in place.
    """

    __slots__ = ("work", "Q", "R", "T", "t", "u_at", "equalities")

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
    warm = _warm_start(z, rows, rhs, n_i, hint)
    if warm is None:
        x, u, work = z.copy(), np.zeros(0), np.zeros(0, dtype=int)
        equalities, skip = iter(range(n_i, m)), work
    else:
        x, u, done = warm
        work = hint.work
        if done:
            return x, u, work, 0        # no row enters: how most warm solves end
        equalities, skip = iter(hint.equalities), work[work < n_i]
    A, b = rows[:n_i], rhs[:n_i]
    p, a_norms = next(equalities, None), None
    if p is None:
        p, a_norms = _entering(x, A, b, skip, (), None)
    if p is None:
        if hint is not None and warm is None:
            hint.keep(work, None, None)
        return x, u, work, 0
    # a row enters: the loop pivots on arrays of its own, for a warm start copies of the hint's factors
    q, start = work.size, (u, work)
    Q, R = (np.eye(n), np.zeros((n, n))) if warm is None else (hint.Q.copy(), hint.R.copy())
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

    if hint is not None and (warm is None or pivots):
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
    """(x, u, done): the point x optimal for the hint's working rows W at z, W's multipliers u, and whether no row enters at x.

    None without a nonempty hint, or if a multiplier is NaN or infinite or
    an inequality multiplier is < 0.  The hint's arrays are read, not copied.
    """
    if hint is None or hint.work is None or not hint.work.size:
        return None
    if hint.T is None:
        _fuse(hint, rows, rhs, n_i)
    y = hint.T.dot(z) + hint.t
    n, k = z.shape[0], y.size - n_i     # y = [x; e; s]: s from k on
    x, u = y[:n].copy(), y[hint.u_at]   # x copied: a trace keeps x, not all of y
    # Read as unsigned integers, +0.0 and the positive finite doubles are the bit
    # patterns below +inf's, so one max tests s >= 0 and finite; -0.0 and NaN fail it.
    if (not hint.equalities and (not n_i or y[k:].view(np.uint64).max() < _INF_BITS)
            and (k == n or np.isfinite(y[n:k]).all())):
        return x, u, True
    # the per-row test: for -0.0 in s, a negative or infinite entry, a NaN, or equality rows to enter
    ineq = hint.work < n_i
    if not (np.isfinite(u).all() and (u[ineq] >= 0.0).all()):
        return None
    return x, u, not hint.equalities and y[k + np.count_nonzero(ineq):].min(initial=math.inf) >= 0.0


def _fuse(hint, rows, rhs, n_i):
    """Store the affine map z -> T z + t = [x; e; s] of the hint's working rows W, and where its multipliers are.

    With N^T = Q_1 R the multipliers of W at z solve R^T R u = N z - b_W,
    so u = R^{-1} (Q_1^T z - c) with c = R^{-T} b_W, and x = z - N^T u =
    (I - Q_1 Q_1^T) z + Q_1 c.  e holds u on W's equality rows, which are
    only checked to be finite.  s holds u on W's inequality rows, then the
    slacks b - A x of the other inequality rows: s >= 0 exactly when u is a
    valid dual start and no inequality row is violated at x.  y[u_at] is u
    in factor order: a slice, so a view, when W's equality rows come first
    in it, as they do after a cold solve.  Each row of T and t is, bit for
    bit, a row of the map z -> [u; x; A x - b] or, for a slack, its negative.
    """
    W = hint.work
    q, n, in_work = W.size, rows.shape[1], set(W.tolist())
    ineq = W < n_i
    Q1 = hint.Q[:, :q]
    R_inv = np.linalg.inv(hint.R[:q, :q])
    c = rhs[W] @ R_inv
    P = np.eye(n) - Q1 @ Q1.T
    x0 = Q1 @ c
    U, u0 = R_inv @ Q1.T, -(R_inv @ c)
    out = np.ones(n_i, dtype=bool)
    out[W[ineq]] = False
    A, b = rows[:n_i], rhs[:n_i]
    hint.T = np.vstack([P, U[~ineq], U[ineq], -(A @ P)[out]])
    hint.t = np.concatenate([x0, u0[~ineq], u0[ineq], -(A @ x0 - b)[out]])
    q_e = q - np.count_nonzero(ineq)
    if ineq[:q_e].any():
        hint.u_at = np.empty(q, dtype=int)
        hint.u_at[~ineq], hint.u_at[ineq] = np.arange(n, n + q_e), np.arange(n + q_e, n + q)
    else:
        hint.u_at = slice(n, n + q)
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
