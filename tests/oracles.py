"""Independent checks of the package's answers, used by several test modules.

Each one recomputes what it checks from the problem data with public calls
only, so a test that uses it does not trust the code under test.
"""

import numpy as np

from altproj import ConstraintSystem, ManifoldChart, ProjectionQp
from altproj.errors import DimensionMismatch
from altproj.qp import KktCertificate


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


def chart_projection_oracle(chart: ManifoldChart, y, samples=10_000, bisections=50):
    """Independent nearest-point oracle for 1-D charts.

    Dense parameter sampling followed by bisection on the stationarity
    condition grad F(t)^T (F(t) - y) = 0 around the best sample.
    """
    if chart.F.input_dim != 1:
        raise DimensionMismatch("projection oracle supports 1-D charts only")
    y = np.asarray(y, dtype=float)
    ts = np.linspace(chart.lower[0], chart.upper[0], samples)

    def dist2(t):
        d = chart.F.eval([t]) - y
        return float(d @ d)

    def stat(t):
        return float(chart.F.jacobian([t])[:, 0] @ (chart.F.eval([t]) - y))

    d2 = np.array([dist2(t) for t in ts])
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


def constraint_violation(sys: ConstraintSystem, x):
    """max(G+, P+, |H|) at x."""
    return max(
        float(np.max(sys.G.eval(x), initial=0.0)),
        float(np.max(sys.P.eval(x), initial=0.0)),
        float(np.max(np.abs(sys.H.eval(x)), initial=0.0)),
    )
