"""Independent checks of the package's answers, used by several test modules.

Each one recomputes what it checks from the problem data with public calls
only, so a test that uses it does not trust the code under test.  The trace
references compute, one row at a time, what the package computes on whole
columns; the column references keep those whole-column formulas as first
written, through numpy's Python wrappers, and the solver references keep
two QP steps as first written (the warm-start map, the entry test), so that
a test can pin a faster spelling of them to the same bits.
"""

import math

import numpy as np

from altproj import Box, ConstraintSystem, FixedRankMatrices, ManifoldChart, linalg
from altproj.errors import DimensionMismatch
from altproj.qp import VIOL_RTOL, KktCertificate, ProjectionQp
from altproj.sets import ON_SET_TOL


def verify_certificate(p: ProjectionQp, cert: KktCertificate):
    """Independent KKT check; returns the max violation across conditions."""
    x, w, s, y = cert.solution, cert.ineq_multipliers, cert.slacks, cert.eq_multipliers
    stat = x - p.target + p.A_ineq.T @ w + p.A_eq.T @ y
    return max(
        float(np.max(p.A_ineq @ x - p.b_ineq, initial=0.0)),
        float(np.max(-w, initial=0.0)),
        float(np.max(-s, initial=0.0)),
        abs(float(w @ s)),
        float(np.max(np.abs(p.b_ineq - p.A_ineq @ x - s), initial=0.0)),
        float(np.max(np.abs(p.A_eq @ x - p.b_eq), initial=0.0)),
        float(np.linalg.norm(stat)),
    )


def fuse_reference(work, Q, R, rows, rhs, n_i):
    """(T, t): the warm-start map of the working rows work, built block by block.

    work holds its equality rows first, as a solve leaves it.  The stored
    map of qp._fuse as one vstack and one concatenate of its blocks: rows
    [I - Q_1 Q_1^T; U; -(A (I - Q_1 Q_1^T)) on the inequality rows outside
    work], with U = R^{-1} Q_1^T in work's order, its equality rows first,
    N^T = Q_1 R the factors of work's rows, and the matching offsets.
    y[n:n + q] of y = T z + t is u in work's order.
    """
    q, n = work.size, rows.shape[1]
    Q1 = Q[:, :q]
    R_inv = np.linalg.inv(R[:q, :q])
    c = rhs[work] @ R_inv
    P = np.eye(n) - Q1 @ Q1.T
    x0 = Q1 @ c
    out = np.ones(n_i, dtype=bool)
    out[work[work < n_i]] = False
    A, b = rows[:n_i], rhs[:n_i]
    T = np.vstack([P, R_inv @ Q1.T, -(A @ P)[out]])
    t = np.concatenate([x0, -(R_inv @ c), -(A @ x0 - b)[out]])
    return T, t


def entering_reference(x, A, b, skip, met):
    """The inequality row to enter at x, or None: qp._entering's rule on the whole threshold vector.

    A's rows are unit-length, as the solver takes them, and every row's
    bound VIOL_RTOL (|x| + |b|) is formed and applied before
    the working rows skip and the met rows are masked, and the most-violated
    row left enters, the lowest index on ties and the first NaN before any
    number.  The body is the solver's entry test as first written.
    """
    if not b.size:
        return None
    viol = A @ x - b
    viol[viol <= VIOL_RTOL * (linalg.norm(x) + np.abs(b))] = -np.inf
    if skip is not None:
        viol[skip] = -np.inf        # working rows are met
    if met:
        viol[met] = -np.inf
    p = int(viol.argmax())
    return None if viol[p] <= 0.0 else p


def chart_projection_oracle(chart: ManifoldChart, y, samples=10_000, bisections=50):
    """Independent nearest-point oracle for 1-D charts.

    Dense parameter sampling followed by bisection on the stationarity
    condition grad F(t)^T (F(t) - y) = 0 around the best sample.
    """
    if chart.F.input_dim != 1:
        raise DimensionMismatch("projection oracle supports 1-D charts only")
    y = np.asarray(y, dtype=float)
    ts = np.linspace(chart.lower[0], chart.upper[0], samples)

    def stat(t):
        return float(chart.F.jacobian([t])[:, 0] @ (chart.F.eval([t]) - y))

    # squared distances at all samples at once, monomial by monomial
    d2 = np.zeros(samples)
    for comp, yj in zip(chart.F.outputs, y):
        d2 += (sum(m.coeff * ts ** m.exponents[0] for m in comp) - yj) ** 2
    i = int(np.argmin(d2))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, samples - 1)]
    flo, fhi = stat(lo), stat(hi)
    if flo * fhi > 0:
        # no bracket: the grid minimum sits at a boundary of the box
        t_best = ts[i]
    else:
        for _ in range(bisections):
            mid = 0.5 * (lo + hi)
            fm = stat(mid)
            if flo * fm <= 0:
                hi, fhi = mid, fm
            else:
                lo, flo = mid, fm
        t_best = 0.5 * (lo + hi)
    return chart.F.eval([t_best])


def normal_cone_reference(S, p):
    """(rays, lineality) of a Box, Polyhedron or FixedRankMatrices at p, one row at a time.

    A constraint A_i x <= b_i is active when b_i/|A_i| - (A_i/|A_i|) p <= ON_SET_TOL (1 + |p|),
    decided on its unit row (a zero row as it is), and its ray is A_i as given; |A_i|
    is math.hypot's, which neither overflows nor underflows.  A box's rows are e_i
    then -e_i, coordinate by coordinate, and the fixed-rank normal space is spanned
    by the flattened np.outer of each pair of U and V columns past the rank, in
    row-major pair order.
    """
    n, tol = S.ambient_dim, ON_SET_TOL * (1.0 + np.linalg.norm(p))
    if isinstance(S, FixedRankMatrices):
        U, _, V = linalg.svd(p.reshape(S.rows, S.cols))
        pairs = [(i, j) for i in range(S.rank, S.rows) for j in range(S.rank, S.cols)]
        basis = [np.outer(U[:, i], V[:, j]).reshape(-1) for i, j in pairs]
        return np.zeros((0, n)), np.array(basis).reshape(-1, n)
    if isinstance(S, Box):
        rows, bounds = [], []
        for i in range(n):
            for sign, bound in ((1.0, S.upper[i]), (-1.0, -S.lower[i])):
                e = np.zeros(n)
                e[i] = sign
                rows.append(e)
                bounds.append(bound)
        A, b, eq = np.array(rows), np.array(bounds), np.zeros((0, n))
    else:
        A, b, eq = S.A_ineq, S.b_ineq, S.A_eq
    active = []
    for a, b_i in zip(A, b):
        norm = math.hypot(*a) or 1.0
        if b_i / norm - (a / norm) @ p <= tol:
            active.append(a)
    return np.array(active).reshape(-1, n), eq


def constraint_violation(sys: ConstraintSystem, x):
    """max(G+, P+, |H|) at x."""
    return max(
        float(np.max(sys.G.eval(x), initial=0.0)),
        float(np.max(sys.P.eval(x), initial=0.0)),
        float(np.max(np.abs(sys.H.eval(x)), initial=0.0)),
    )


def _angle(u, v):
    c = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def angles_reference(trace):
    """(separability, super_regularity, skipped) of a two-set trace, one triple at a time.

    A triple (z_k, x_k, z_{k+1}) is skipped when any of its three segments
    has norm <= 100 machine epsilons of the largest gap.
    """
    floor = 100 * np.finfo(float).eps * max(trace.gaps)
    separability, super_regularity, skipped = [], [], 0
    for k in range(len(trace.zs) - 1):
        z, x, z1 = trace.zs[k], trace.xs[k], trace.zs[k + 1]
        if any(np.linalg.norm(s) <= floor for s in (z - x, z1 - x, z - z1)):
            skipped += 1
            continue
        separability.append(_angle(z - x, z1 - x))
        super_regularity.append(_angle(z - z1, x - z1))
    return separability, super_regularity, skipped


def regression_reference(log_g):
    """(exp(slope), r_squared) of the np.polyfit line through (k, log_g[k])."""
    ks = np.arange(len(log_g), dtype=float)
    line = np.polyfit(ks, log_g, 1)
    resid = log_g - np.polyval(line, ks)
    total = log_g - np.mean(log_g)
    denom = float(total @ total)
    return float(np.exp(line[0])), (1.0 - float(resid @ resid) / denom if denom > 0 else 1.0)


def trace_csv_reference(trace):
    """The trace CSV, with every value formatted on its own."""
    if not len(trace.zs):
        return "k,gap,dist_Q,dist_M\n"
    d = len(trace.zs[0])
    lines = ["k,gap,dist_Q,dist_M," + ",".join(f"z_{i}" for i in range(d))]
    for k in range(len(trace.gaps)):
        nums = [trace.gaps[k], trace.dist_q[k], trace.dist_m[k]] + list(trace.zs[k])
        lines.append(str(k) + "," + ",".join(f"{v:.17g}" for v in nums))
    return "\n".join(lines) + "\n"


def _rowdot(u, v):
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def angles_columns_reference(trace):
    """angles_from_trace's whole-column formulas through numpy's wrappers: np.stack, np.clip, every keep gather.

    Returns (separability, super_regularity, skipped) as arrays and an int,
    or None when every triple is degenerate.
    """
    zs = np.stack(trace.zs)
    z, z1, x = zs[:-1], zs[1:], np.stack(trace.xs[:-1])
    segs = (z - x, z1 - x, z - z1)
    norms = np.sqrt([_rowdot(s, s) for s in segs])
    floor = 100 * np.finfo(float).eps * np.max(trace.gaps)
    keep = ~(norms <= floor).any(axis=0)
    if not keep.any():
        return None
    u, v, w = (s[keep] for s in segs)
    nu, nv, nw = norms[:, keep]
    sep = np.arccos(np.clip(_rowdot(u, v) / (nu * nv), -1.0, 1.0))
    sup = np.arccos(np.clip(_rowdot(w, -v) / (nw * nv), -1.0, 1.0))
    return sep, sup, int(len(keep) - keep.sum())


def rate_columns_reference(gaps):
    """fit_rate's (ratios, rate, rate_regression, r_squared) through np.mean, or None below 6 usable gaps."""
    gaps = np.asarray(gaps, dtype=float)
    n = int(np.argmin(np.append(gaps > 100 * np.finfo(float).eps, False)))
    if n < 6:
        return None
    g = gaps[:n]
    ratios = g[1:] / g[:-1]
    half = len(ratios) // 2
    rate = float(np.exp(np.mean(np.log(ratios[half:]))))
    log_g = np.log(g[half:])
    dk = np.arange(log_g.size) - (log_g.size - 1) / 2
    total = log_g - np.mean(log_g)
    slope = float(dk @ total) / float(dk @ dk)
    resid = total - slope * dk
    denom = float(total @ total)
    r_squared = 1.0 - float(resid @ resid) / denom if denom > 0 else 1.0
    return ratios, rate, float(np.exp(slope)), r_squared
