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

Every row decision reads one rounding model on one row scale.  The rows
are unit-length or zero, which _unit_rows makes them where they are built
(a Polyhedron, Halfspace or Hyperplane once, a linearization once, the
cone test and _solve once per call), so
scaling a row and its right-hand side changes nothing but the rounding
of that division.  On a unit row a.x - b is the distance to its
hyperplane, off by about eps (|x| + |b|).  A row enters only if violated
beyond VIOL_RTOL (|x| + |b|), so a scaled copy of a met row does not
enter on its rounding and cycle.  The entry test tries the most-violated
row against its own bound first, and forms the bound of every row only
when that row is violated within its own, or NaN: it picks the row that
the whole vector of bounds would.  A row a = N^T r + d is dependent on
the working rows N when |d| <= DEP_TOL, and then redundant if met to
FEAS_TOL or to VIOL_RTOL (|x| + |b| + sum_j |r_j| (|x| + |b_j|)), which
carries the working rows' rounding through r (Higham, Accuracy and
Stability, 3.1); a redundant inequality row is skipped until the next
pivot.  The floor FEAS_TOL decides emptiness on small data, but the empty
slab c + w <= x_0 <= c is found empty only for w beyond about 4e-13 c:
not at c = 1e12, w = 0.1.  A certificate sets to 0 each negative slack
within max(FEAS_TOL, entry bound).  DUAL_TOL, DEP_TOL and FEAS_TOL bound
r, |d| and a distance: on unit rows the first two depend on the rows'
directions alone, and none of them on how a row was scaled.  |x| is
linalg.norm's, unless x.dot(x) overflows (|x| beyond about 1.3e154), when
it comes from np.hypot.  A target with a NaN or infinite entry raises
DimensionMismatch where the loop would declare the polyhedron empty, so
that its NaN violations are not read as emptiness; no other path tests
it.  The equality rows enter first, in row order, and only inequality
rows drop, so every working set W holds its equality rows first, in row
order.  An equality row outside W was found redundant, which depends on
the rows and right-hand sides alone, so no solve on these rows enters it.

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
products, once per working set, each block written into its slice of T
and t), and every warm start is one product y = T z + t = [x; e; s].
e holds the multipliers of W's equality rows; s holds those of W's
inequality rows, then the slacks of the others.  A warm start is the
answer or it is not taken.  When every inequality multiplier is >= 0 and
every slack too, all of them finite and e finite, x is optimal for W and
meets every inequality row, and every equality row outside W is redundant
(above): x is the answer, copied out of y and returned, with no pivot
and no other copy, which is how most warm solves end.  The largest entry
of s, read as unsigned integers and found by one argmax, decides: s >= +0
and finite, so that -0.0, like a negative or NaN entry, refuses.  Anything
else, a stale hint included, goes to the cold start at x = z, and the
loop leaves its working set and factors in the hint.  The loop never
reads a hint's factors, so a solve that pivots has the bits of the cold
solve.  The stored product rounds differently from a cold solve, which
ends on the same W: the two points agree to rounding amplified by
cond(N), within 8.2e-16 (1 + |z|) on the benchmark workloads.  Each row
of T is a row of the map z -> [u; x; A x - b], or its negative for a
slack, and a row of a product rounds alike wherever it sits, except in
the last m mod 4 rows, which OpenBLAS's gemv rounds its own way.  So x
and u have the bits of that map's product when at least three inequality
rows lie outside W, as in every warm QP of the benchmark workloads, and
may differ by an ulp otherwise.  A hint's arrays are never changed, even
by a solve that raises.

Renewed rows.  The linearized driver solves a QP on new rows at every
iterate, and near a solution they mostly end on the last iterate's
working set (under LICQ the active set of the linearization is locally
constant: Wright, "Identifiable surfaces in constrained optimization",
SIAM J. Control Optim. 31, 1993).  _Hint.renew keeps work and drops Q, R
and T, which belong to the old rows, and the next warm start takes the
one-shot start of _renewed_start: a thin Gram-Schmidt factorisation of
W's rows and substitutions in Python floats, which store nothing.  A map
pays for itself only when the rows repeat: on new rows a full QR and
_fuse cost more than the cold solve they would replace.  Two of its refusals are new.  An
equality row missing from W refuses it, since the skip of such rows
above holds on the rows where they were found redundant, not on new
ones.  A row of W that the loop's DEP_TOL test would find dependent
refuses it, so that a tiny diagonal entry of R never becomes a huge
finite multiplier that the sign test accepts.  And it is taken only when
every row decision is clear of the entry bound VIOL_RTOL (|x| + |b|):
each of W's inequality rows would enter, and each other row is met with
that margin, so x is the answer.  A cold solve then ends on W too, and
the two points agree to rounding amplified by cond(N); without those
margins they differed by up to 5e-14 (1 + |z|) cond(N) on rows within
their entry bound, which the cold loop leaves out.  Anything refused goes
to the cold start, as above.
Hints are scoped to one run: Polyhedron._run_projection and
linconstr's driver give each run its own, so Polyhedron.project and
linearized_projection stay pure functions that start cold, and two runs
of the same problem give the same bits.
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
VIOL_RTOL = 1e-13   # an inequality row enters once a.x - b exceeds this times |x| + |b|
_INF_BITS = int(np.array(math.inf).view(np.uint64))
_TINY = np.finfo(float).tiny        # the smallest normal double


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
    """A solve's working rows in factor order and their factors, to start the next one from.

    work holds its equality rows first, in row order, as every solve leaves
    it, and Q and R factor N^T = Q[:, :q] R[:q, :q] for its q rows.  The
    first warm start from them adds the affine map T, t of the working set
    (see _fuse), which serves every later one until a cold solve keeps its
    own working set and factors.  renew() drops Q, R and T when the rows
    change, and warm starts on the new rows take the one-shot start of
    _renewed_start.  Solves read these arrays and never change them in place.
    """

    __slots__ = ("work", "Q", "R", "T", "t")

    def __init__(self):
        self.work = None

    def keep(self, work, Q, R):
        self.work, self.Q, self.R, self.T = work, Q, R, None

    def renew(self):
        """Keep work for a solve on new rows of the same layout; drop the old rows' factors and map."""
        self.Q = self.R = self.T = None


def _solve(z, rows, rhs, n_i, hint=None):
    """The dual method on checked data: rows = [A_ineq; A_eq], the first n_i inequalities.

    Returns the KktCertificate of _nearest_point's solution on the rows made
    unit by _unit_rows, with its multipliers, its slacks and any Farkas
    witness scaled back to the rows given.  A hint must come from solves
    on the same rows, which make the same unit rows.
    """
    rows, rhs, scale = _unit_rows(rows, rhs)
    try:
        x, u, work, pivots = _nearest_point(z, rows, rhs, n_i, hint)
    except Infeasible as exc:
        exc.y_ineq /= scale[:n_i]
        exc.y_eq /= scale[n_i:]
        raise
    y = np.zeros(rows.shape[0])
    y[work] = u
    y /= scale
    slacks = rhs[:n_i] - rows[:n_i] @ x
    bound = VIOL_RTOL * (_norm(x) + np.abs(rhs[:n_i]))
    slacks = np.where(np.abs(slacks) <= np.maximum(FEAS_TOL, bound), np.maximum(slacks, 0.0), slacks)
    return KktCertificate(x, np.maximum(y[:n_i], 0.0), slacks * scale[:n_i], y[n_i:],
                          sorted(int(j) for j in work if j < n_i), pivots)


def _unit_rows(rows, rhs):
    """(rows, rhs, scale): each row a and its right-hand side b divided by |a|, a zero row left as it is.

    _nearest_point takes rows of length 1 or 0, so this runs where rows
    are built.  scale holds |a|, or 1 for a zero row: the multipliers of the
    unit rows divided by it, and their slacks times it, are the given rows'.
    |a| is sqrt(a.a), or np.hypot's where a.a overflows or falls below the
    smallest normal double, so that no row of any size is lost.
    """
    sq = np.einsum("ij,ij->i", rows, rows)
    scale = np.sqrt(sq)
    # every a.a normal and finite, as in most calls: no row is lost or zero
    if sq.size and not (sq[sq.argmin()] >= _TINY and sq[sq.argmax()] < math.inf):
        lost = (sq == math.inf) | (sq < _TINY)      # zero rows too: np.hypot gives them 0.0 as well
        scale[lost] = np.hypot.reduce(rows[lost], axis=1)
        scale[scale == 0.0] = 1.0
    return rows / scale[:, None], rhs / scale, scale


def _norm(x):
    """|x|: linalg.norm(x) bit for bit, or np.hypot's when x.dot(x) overflows."""
    sq = x.dot(x)
    return math.sqrt(sq) if sq != math.inf else float(np.hypot.reduce(x))


def _nearest_point(z, rows, rhs, n_i, hint=None):
    """(x, u, work, pivots): the solution, the multipliers u of the working rows work, and the pivots.

    With a _Hint for these rows, return its warm start when that is the
    answer, with no pivot; otherwise solve cold and leave this solve's
    working set in it.  The arrays returned are not to be changed: work may
    be the hint's.  Each row is unit-length or zero, as _unit_rows leaves
    it: every row decision reads that one scale.
    """
    warm = _warm_start(z, rows, rhs, n_i, hint)
    if warm is not None:
        return *warm, hint.work, 0
    n, m = z.shape[0], rows.shape[0]
    x, A, b = z.copy(), rows[:n_i], rhs[:n_i]
    equalities = iter(range(n_i, m))
    p = next(equalities, None)
    if p is None:
        p = _entering(x, A, b, None, ())
    if p is None:
        work = np.zeros(0, dtype=int)
        if hint is not None:
            hint.keep(work, None, None)
        return x, np.zeros(0), work, 0
    q = q_i = 0                         # working rows, and working inequality rows: only they block or are skipped
    Q, R = np.eye(n), np.zeros((n, n))
    u = np.zeros(n)                     # multipliers of the working rows
    work = np.zeros(n, dtype=int)       # working row indices, in factor order
    met = []                            # dependent rows met to the redundancy bound since the last pivot
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
            if dd <= DEP_TOL * DEP_TOL:
                dd = 0.0
            s = float(a.dot(x)) - rhs[p]
            t = s / dd if dd else np.inf
            k = None
            if q_i and (blocking := (work[:q] < n_i) & (r > DUAL_TOL)).any():
                # partial step: the first working multiplier to reach zero
                ratios = np.full(q, np.inf)
                np.divide(np.maximum(u[:q], 0.0), r, out=ratios, where=blocking)
                k = int(ratios.argmin())
                if ratios[k] < t:
                    t = float(ratios[k])
                else:
                    k = None
            elif not dd:
                e = _norm(x) + np.abs(rhs)      # each row's rounding scale
                if abs(s) <= max(FEAS_TOL, VIOL_RTOL * (e[p] + np.abs(r).dot(e[work[:q]]))):
                    if p < n_i:
                        met.append(p)
                    break       # a dependent row consistent to rounding is redundant
                if not np.isfinite(z).all():
                    raise DimensionMismatch("target contains NaN/Inf entries")
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
                q_i += p < n_i
                break
            q = _drop(Q, R, u, work, q, k)
            q_i -= 1            # only inequality rows block, so only they drop
        p = next(equalities, None)
        if p is None:
            skip = None if not q_i else work[:q] if q_i == q else work[:q][work[:q] < n_i]
            p = _entering(x, A, b, skip, met)

    if hint is not None:
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


def _entering(x, A, b, skip, met):
    """The inequality row to enter at x, or None when none does; A's rows are unit-length or zero.

    Called once no equality row is left to enter, so the working rows skip
    are formed only then; skip is None when no inequality row is working.
    The most-violated row violated beyond rounding, viol > VIOL_RTOL
    (|x| + |b|), and not in skip or met enters, the lowest index on ties
    and a NaN violation before any number.  The most-violated row p, the
    first of the largest violations, is tested first: beyond its own bound
    it is also the first of the largest beyond theirs, and enters.  Only
    when p is violated but within its bound, or NaN, is every row's bound
    formed and applied.
    """
    if not b.size:
        return None
    viol = A @ x - b
    if skip is not None:
        viol[skip] = -np.inf        # working rows are met
    if met:
        viol[met] = -np.inf
    p = int(viol.argmax())
    top = viol[p]
    if top <= 0.0:
        return None     # no row is violated
    x_norm = _norm(x)
    if top > VIOL_RTOL * (x_norm + abs(b[p])):
        return p        # beyond its own bound: the whole vector of bounds picks it too
    viol[viol <= VIOL_RTOL * (x_norm + np.abs(b))] = -np.inf
    p = int(viol.argmax())
    return None if viol[p] <= 0.0 else p


def _warm_start(z, rows, rhs, n_i, hint):
    """(x, u): the point x optimal for the hint's working rows W at z and W's multipliers u, when x is the answer; or None.

    None without a nonempty hint, and whenever x might not be the answer:
    the cold loop then decides.  A renewed hint, with no factors, takes
    _renewed_start.  Otherwise the first warm start from W builds W's map
    (_fuse), and x is the answer exactly when s >= +0 and finite, with e
    finite: one sign test.  u = y[n:n + q] is a view, in W's order: its
    equality rows first.  The hint's arrays are read, not copied.
    """
    if hint is None or hint.work is None or not hint.work.size:
        return None
    if hint.T is None:
        if hint.Q is None:
            return _renewed_start(z, rows, rhs, n_i, hint.work)
        _fuse(hint, rows, rhs, n_i)
    y = hint.T.dot(z)
    y += hint.t
    n, k = z.shape[0], y.size - n_i     # y = [x; e; s]: s from k on
    # Read as unsigned integers, +0.0 and the positive finite doubles are the bit
    # patterns below +inf's, so the largest tests s >= +0 and finite; -0.0 and NaN fail
    # it.  s[s.argmax()] is that largest, without ndarray.max's Python wrapper.
    s = y[k:].view(np.uint64)
    if (not n_i or s[s.argmax()] < _INF_BITS) and (k == n or np.isfinite(y[n:k]).all()):
        return y[:n].copy(), y[n:n + hint.work.size]    # x copied: a trace keeps x, not all of y
    return None


def _fuse(hint, rows, rhs, n_i):
    """Store the affine map z -> T z + t = [x; e; s] of the hint's working rows W in the hint.

    With N^T = Q_1 R the multipliers of W at z solve R^T R u = N z - b_W,
    so u = U z + u0 with U = R^{-1} Q_1^T, u0 = -R^{-1} c and c = R^{-T} b_W,
    and x = z - N^T u = (I - Q_1 Q_1^T) z + Q_1 c.  W's equality rows
    come first, so the rows of U in W's order are e's, which are only
    checked to be finite, then the first of s's.  s holds u on W's
    inequality rows, then the slacks b - A x of the other inequality rows:
    s >= 0 exactly when u is a valid dual start and no inequality row is
    violated at x.  Each block is written into its slice of one array for
    T and one for t, and each row of them is, bit for bit, a row of the map
    z -> [u; x; A x - b] or, for a slack, its negative.
    """
    W = hint.work
    q, n = W.size, hint.Q.shape[0]
    q_e = q - np.count_nonzero(W < n_i)
    Q1 = hint.Q[:, :q]
    R_inv = np.linalg.inv(hint.R[:q, :q])
    c = rhs[W] @ R_inv
    T, t = np.empty((n + q_e + n_i, n)), np.empty(n + q_e + n_i)
    T[n:n + q], t[n:n + q] = R_inv @ Q1.T, -(R_inv @ c)     # W's multiplier rows, its equality rows first
    P = T[:n]
    np.subtract(np.eye(n), Q1 @ Q1.T, out=P)
    np.matmul(Q1, c, out=t[:n])
    A, b = rows[:n_i], rhs[:n_i]
    out = np.ones(n_i, dtype=bool)
    out[W[q_e:]] = False
    np.negative((A @ P)[out], out=T[n + q:])
    np.negative((A @ t[:n] - b)[out], out=t[n + q:])
    hint.T, hint.t = T, t


def _renewed_start(z, rows, rhs, n_i, W):
    """(x, u): the point x optimal at z for working rows W of renewed rows, and W's multipliers u; or None.

    The rows changed since W was found, so nothing is stored: one pass
    factors N = rows[W] thinly, N^T = B^T R with orthonormal rows B, by
    Gram-Schmidt with one reorthogonalisation, and substitutes in Python
    floats, since W holds a few rows and a numpy call costs more than that
    arithmetic.  With c = R^{-T} b_W and h = B z - c, u = R^{-1} h and
    x = z - B^T h.  x is returned only when it is the answer and every row
    decision is clear of the cold loop's entry bound e = VIOL_RTOL
    (|x| + |b|), so that a cold solve takes the same decisions and the two
    points agree to rounding; otherwise (None) the cold solve decides.
    Refused:
      - W misses an equality row.  On rows that stay, a solve leaves out
        only redundant ones, but these rows are new;
      - a row of W that the loop's DEP_TOL test would find dependent on
        the ones before it: its tiny R_kk would give a huge finite
        multiplier;
      - a NaN or infinite multiplier;
      - an inequality row of W violated by no more than e at the point
        optimal for W's other rows, where its violation is
        u_k / ((N N^T)^{-1})_kk: the cold loop might not enter it;
      - no inequality row of W violated beyond e at the point optimal for
        W's equality rows alone, z when there are none, where the cold
        loop tests its first inequality row: it might stop there;
      - any other inequality row not met with a margin of e at x: one
        violated at x would enter.
    """
    q, q_e = W.size, rows.shape[0] - n_i
    if q_e and (q < q_e or W[q_e - 1] < n_i):   # W holds its equality rows first, in row order
        return None
    B, R = np.empty((q, z.shape[0])), []   # R[k]: column k of R, its diagonal entry last
    for k, j in enumerate(W.tolist()):
        v = rows[j]
        col = []
        if k:
            P = B[:k]
            r = P.dot(v)
            v = v - r.dot(P)
            s = P.dot(v)
            v = v - s.dot(P)
            col = (r + s).tolist()
        dd = float(v.dot(v))
        if dd <= DEP_TOL * DEP_TOL:
            return None
        col.append(math.sqrt(dd))
        np.divide(v, col[k], out=B[k])
        R.append(col)
    b_W, c = rhs[W].tolist(), []
    for col, b in zip(R, b_W):          # R^T c = b_W
        k = len(c)
        c.append((b - sum(col[i] * c[i] for i in range(k))) / col[k])
    h = (B.dot(z) - c).tolist()         # R^T h = N z - b_W: W's violations at z
    u = [0.0] * q
    for k in range(q - 1, -1, -1):      # R u = h
        u[k] = (h[k] - sum(R[i][k] * u[i] for i in range(k + 1, q))) / R[k][k]
    if not all(map(math.isfinite, u)):
        return None
    x = z - B.T.dot(h)
    x_norm, entered = _norm(x), q_e == q
    for k in range(q_e, q):
        bound = VIOL_RTOL * (x_norm + abs(b_W[k]))
        col, y = R[k], [1.0 / R[k][k]]  # R^T y = e_k: (N N^T)^{-1}_kk = |y|^2
        for j in range(k + 1, q):
            y.append(-sum(R[j][i] * y[i - k] for i in range(k, j)) / R[j][j])
        if not u[k] > bound * sum(t * t for t in y):
            return None
        # a_k x_E - b_k, with x_E = z - B[:q_e]^T h[:q_e] optimal for W's equality rows
        entered = entered or sum(col[i] * h[i] for i in range(q_e, k + 1)) > bound
    if not entered:
        return None
    if n_i:
        A, b = rows[:n_i], rhs[:n_i]
        viol = A.dot(x) - b
        viol += VIOL_RTOL * (x_norm + np.abs(b))
        viol[W[q_e:]] = -math.inf       # W's rows are met
        if not viol[viol.argmax()] <= 0.0:
            return None
    return x, np.array(u)


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
