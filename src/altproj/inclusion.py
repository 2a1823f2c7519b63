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
from .alternating import IterationTrace, SolveOptions, iterate
from .errors import DimensionMismatch, FieldError, InsufficientData, LeftChart
from .linalg import Schema
from .polymap import PolyMap
from .sets import ProjectableSet, set_from_json

ANGLE_FLOOR = 0.1  # radians; verify_faithfulness drops pairs at smaller angles


@dataclass
class InclusionProblem(Schema):
    """Find x with F(x) in Q; F must have one-to-one derivative locally."""

    F: PolyMap
    Q: ProjectableSet

    kind = "inclusion problem"
    fields = {"F": PolyMap.from_json, "Q": set_from_json}

    def __post_init__(self):
        if self.F.output_dim != self.Q.ambient_dim:
            raise FieldError(f"inclusion problem Q: F maps into R^{self.F.output_dim},"
                             f" Q lives in R^{self.Q.ambient_dim}; F's outputs must match Q")


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

    def _contains(self, x):
        return bool((x > self.lower).all() and (x < self.upper).all())


def solve_inclusion(p: InclusionProblem, x0, opts=None) -> IterationTrace:
    """Iterate x <- x + s until distance(Q, F(x)) <= gap_tol.

    Trace rows hold the X-space iterate, the Y-space target y, and
    gap = |F(x) - y|.  The M-distance column is NaN (the image manifold
    admits no exact distance here).  A Jacobian without full column rank
    ends the run with status RankDeficient.
    """
    opts = opts or SolveOptions()
    return iterate(_inclusion_rows(p, linalg.as_vector(x0, dim=p.F.input_dim)), opts)


def _inclusion_rows(p, x):
    project_q = p.Q._run_projection()
    while True:
        fx, J = p.F._linearize(x)
        y = project_q(fx)
        gap = linalg.norm(fx - y)
        yield x, y, gap, gap, float("nan")
        x = x + linalg.least_squares(J, y - fx)


def faithful_projection(chart: ManifoldChart, x, y):
    """Phi(F(x), y) = F(x + s), s minimizing |F(x) + grad F(x) s - y|.

    One ChartApproximateProjector step from the coordinates x.  The
    result lies on M = F(U) exactly.  Raises LeftChart when x or the
    updated coordinates lie outside the chart box.
    """
    projector = ChartApproximateProjector(chart, x)
    return projector.step(linalg.as_vector(y, dim=chart.F.output_dim))


def normal_space_basis(chart: ManifoldChart, x):
    """Orthonormal basis of N_M(F(x)) = Null(grad F(x)^T)."""
    U, _, _ = linalg.require_full_column_rank(
        chart.F.jacobian(x), "chart Jacobian loses full column rank"
    )
    return U[:, chart.F.input_dim :].T


class ChartApproximateProjector:
    """Adapter running Algorithm-style approximate projections on a chart.

    Keeps the coordinates of the current iterate with its image fx = F(coords)
    and the Jacobian J there, from one linearization at construction and
    one after each step; each step solves one least-squares problem in
    chart coordinates.
    """

    def __init__(self, chart: ManifoldChart, x0):
        self.chart = chart
        self.coords = linalg.as_vector(x0, dim=chart.F.input_dim)
        if not chart._contains(self.coords):
            raise LeftChart("coordinates outside the chart domain")
        self.fx, self.J = chart.F._linearize(self.coords)

    def start(self, z0):
        z0 = np.asarray(z0, dtype=float)
        if not np.linalg.norm(self.fx - z0) <= 1e-9:  # a NaN z0 fails too
            raise ValueError("z0 does not match the chart coordinates")
        return z0

    def step(self, y):
        coords = self.coords + linalg.least_squares(self.J, y - self.fx)
        if not self.chart._contains(coords):
            raise LeftChart("step left the chart domain")
        self.coords = coords
        self.fx, self.J = self.chart.F._linearize(coords)
        return self.fx


def verify_faithfulness(chart: ManifoldChart, base_coords, queries, exact_projections):
    """Ratio sequence |z_hat_k - Phi(z_k, y_k)| / |y_k - z_k|.

    base_coords are chart coordinates of the base points z_k on M, each
    linearized once (LeftChart if one lies outside the chart box);
    queries are the off-manifold points y_k; exact_projections are the
    corresponding nearest points on M (supplied by an independent
    oracle).  Pairs whose angle between z_k - y_k and z_hat_k - y_k is
    below ANGLE_FLOOR are filtered out.
    """
    if len(base_coords) != len(queries) or len(queries) != len(exact_projections):
        raise DimensionMismatch("sequences must have equal length")
    bases = [ChartApproximateProjector(chart, x) for x in base_coords]
    queries = [linalg.as_vector(y, dim=chart.F.output_dim) for y in queries]
    gaps = [float(np.linalg.norm(y - base.fx)) for base, y in zip(bases, queries)]
    if len(gaps) >= 2 and gaps[-1] > 0.5 * gaps[0]:
        raise ValueError(
            "query sequence does not approach the base points: |y-z| is not shrinking"
        )
    ratios = []
    for base, y, zhat in zip(bases, queries, exact_projections):
        zhat = linalg.as_vector(zhat, dim=chart.F.output_dim)
        u = base.fx - y
        v = zhat - y
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu == 0.0 or nv == 0.0:
            ratios.append(0.0 if nu == 0.0 else None)
            continue
        angle = float(np.arccos(np.clip(u @ v / (nu * nv), -1.0, 1.0)))
        if angle < ANGLE_FLOOR:
            ratios.append(None)
            continue
        phi = base.step(y)
        ratios.append(float(np.linalg.norm(zhat - phi) / nu))
    kept = [r for r in ratios if r is not None]
    if not kept:
        raise InsufficientData("every pair was filtered by the angle floor")
    return kept
