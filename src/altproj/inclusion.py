"""Gauss-Newton-style linearized alternating projections for F(x) in Q,
plus base-point approximate projections onto the manifold M = F(U).

The inner step is always the same least-squares problem: minimize
|F(x) + grad F(x) s - y| over the step s.  With Q = {0} the driver is
exactly the classical Gauss-Newton method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .alternating import (
    RANK_DEFICIENT,
    ApproximateProjector,
    IterationTrace,
    SolveOptions,
    iterate,
)
from .errors import (
    DimensionMismatch,
    InsufficientData,
    LeftChart,
    RankDeficient,
)
from .polymap import PolyMap
from .sets import ProjectableSet, set_from_json

@dataclass
class InclusionProblem:
    """Find x with F(x) in Q; F must have one-to-one derivative locally."""

    F: PolyMap
    Q: ProjectableSet

    def __post_init__(self):
        if self.F.output_dim != self.Q.ambient_dim:
            raise DimensionMismatch(
                f"F maps into R^{self.F.output_dim}, Q lives in R^{self.Q.ambient_dim}"
            )

    def to_json(self):
        return {"F": self.F.to_json(), "Q": self.Q.to_json()}

    @staticmethod
    def from_json(obj):
        for key in ("F", "Q"):
            if key not in obj:
                raise ValueError(f"inclusion problem JSON missing field '{key}'")
        return InclusionProblem(PolyMap.from_json(obj["F"]), set_from_json(obj["Q"]))


@dataclass
class ManifoldChart:
    """A coordinate chart: F restricted to the open box (lower, upper).

    Full column rank of the Jacobian is checked lazily at every point
    the chart is used.
    """

    F: PolyMap
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = linalg.as_vector(self.lower, dim=self.F.input_dim)
        self.upper = linalg.as_vector(self.upper, dim=self.F.input_dim)
        if np.any(self.lower >= self.upper):
            raise ValueError("chart domain box must be nonempty and open")

    def contains(self, x):
        x = linalg.as_vector(x, dim=self.F.input_dim)
        return bool(np.all(x > self.lower) and np.all(x < self.upper))


def gauss_newton_step(p: InclusionProblem, x):
    """One linearized step: y = P_Q(F(x)), s = argmin |F(x) + J s - y|."""
    x = linalg.as_vector(x, dim=p.F.input_dim)
    fx = p.F.eval(x)
    y = p.Q.project(fx)
    return linalg.least_squares(p.F.jacobian(x), y - fx), y


def solve_inclusion(p: InclusionProblem, x0, opts=None) -> IterationTrace:
    """Iterate x <- x + s until distance(Q, F(x)) <= gap_tol.

    Trace rows hold the X-space iterate, the Y-space target y, and
    gap = |F(x) - y|.  The M-distance column is NaN (the image manifold
    admits no exact distance here).
    """
    opts = opts or SolveOptions()
    return iterate(_inclusion_rows(p, linalg.as_vector(x0, dim=p.F.input_dim)), opts)


def _inclusion_rows(p, x):
    while True:
        fx = p.F.eval(x)
        y = p.Q.project(fx)
        gap = float(np.linalg.norm(fx - y))
        yield x, y, gap, gap, float("nan")
        try:
            x = x + linalg.least_squares(p.F.jacobian(x), y - fx)
        except RankDeficient:
            return RANK_DEFICIENT


def faithful_projection(chart: ManifoldChart, x, y):
    """Phi(F(x), y) = F(x + s), s minimizing |F(x) + grad F(x) s - y|.

    The result lies on M = F(U) exactly.  Raises LeftChart when the
    updated coordinates exit the chart box.
    """
    x = linalg.as_vector(x, dim=chart.F.input_dim)
    if not chart.contains(x):
        raise LeftChart("base coordinates outside the chart domain")
    y = linalg.as_vector(y, dim=chart.F.output_dim)
    xs = x + linalg.least_squares(chart.F.jacobian(x), y - chart.F.eval(x))
    if not chart.contains(xs):
        raise LeftChart("updated coordinates left the chart domain")
    return chart.F.eval(xs)


def normal_space_basis(chart: ManifoldChart, x):
    """Orthonormal basis of N_M(F(x)) = Null(grad F(x)^T)."""
    U, _, _ = linalg.require_full_column_rank(
        chart.F.jacobian(x), "chart Jacobian loses full column rank"
    )
    return U[:, chart.F.input_dim :].T


class ChartApproximateProjector(ApproximateProjector):
    """Adapter running Algorithm-style approximate projections on a chart.

    Tracks the coordinates of the current iterate and their image under
    F, so each step solves one least-squares problem in chart coordinates
    and evaluates F once.
    """

    def __init__(self, chart: ManifoldChart, x0):
        self.chart = chart
        self.coords = linalg.as_vector(x0, dim=chart.F.input_dim)
        if not chart.contains(self.coords):
            raise LeftChart("initial coordinates outside the chart domain")

    def start(self, z0):
        z0 = np.asarray(z0, dtype=float)
        self.fx = self.chart.F.eval(self.coords)
        if np.linalg.norm(self.fx - z0) > 1e-9:
            raise ValueError("z0 does not match the chart coordinates")
        return z0, 0.0

    def step(self, z, y):
        coords = self.coords + linalg.least_squares(
            self.chart.F.jacobian(self.coords), y - self.fx
        )
        if not self.chart.contains(coords):
            raise LeftChart("iterate left the chart domain")
        self.coords = coords
        self.fx = self.chart.F.eval(coords)
        return self.fx


def chart_projection_oracle(chart: ManifoldChart, y, samples=10_000, bisections=50):
    """Independent nearest-point oracle for 1-D charts.

    Dense parameter sampling followed by bisection on the stationarity
    condition grad F(t)^T (F(t) - y) = 0 around the best sample.
    """
    if chart.F.input_dim != 1:
        raise DimensionMismatch("projection oracle supports 1-D charts only")
    y = linalg.as_vector(y, dim=chart.F.output_dim)
    ts = np.linspace(chart.lower[0], chart.upper[0], samples)

    def dist2(t):
        d = chart.F.eval(np.array([t])) - y
        return float(d @ d)

    def stat(t):
        tv = np.array([t])
        return float(chart.F.jacobian(tv)[:, 0] @ (chart.F.eval(tv) - y))

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
    return chart.F.eval(np.array([t_best]))


def verify_faithfulness(
    chart: ManifoldChart,
    base_coords,
    queries,
    exact_projections,
    angle_floor=0.1,
):
    """Ratio sequence |z_hat_k - Phi(z_k, y_k)| / |y_k - z_k|.

    base_coords are chart coordinates of the base points z_k on M;
    queries are the off-manifold points y_k; exact_projections are the
    corresponding nearest points on M (supplied by an independent
    oracle).  Pairs whose angle between z_k - y_k and z_hat_k - y_k is
    below angle_floor are filtered out.
    """
    if len(base_coords) != len(queries) or len(queries) != len(exact_projections):
        raise DimensionMismatch("sequences must have equal length")
    gaps = [
        float(np.linalg.norm(np.asarray(y, dtype=float) - chart.F.eval(x)))
        for x, y in zip(base_coords, queries)
    ]
    if len(gaps) >= 2 and gaps[-1] > 0.5 * gaps[0]:
        raise ValueError(
            "query sequence does not approach the base points: |y-z| is not shrinking"
        )
    ratios = []
    for x, y, zhat in zip(base_coords, queries, exact_projections):
        x = linalg.as_vector(x, dim=chart.F.input_dim)
        y = linalg.as_vector(y, dim=chart.F.output_dim)
        zhat = linalg.as_vector(zhat, dim=chart.F.output_dim)
        z = chart.F.eval(x)
        u = z - y
        v = zhat - y
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu == 0.0 or nv == 0.0:
            ratios.append(0.0 if nu == 0.0 else None)
            continue
        angle = float(np.arccos(np.clip(u @ v / (nu * nv), -1.0, 1.0)))
        if angle < angle_floor:
            ratios.append(None)
            continue
        phi = faithful_projection(chart, x, y)
        ratios.append(float(np.linalg.norm(zhat - phi) / nu))
    kept = [r for r in ratios if r is not None]
    if not kept:
        raise InsufficientData("every pair was filtered by the angle floor")
    return kept
