"""Drivers for exact, inexact, and approximate alternating projections.

Every run produces an IterationTrace: one row per iteration with the
iterate, the other-set point, the gap between them, and the per-set
distances.  Traces are the single input to the diagnostics module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, LeftChart, LinearizationInfeasible, RankDeficient
from .sets import ProjectableSet

CONVERGED = "Converged"
MAX_ITERS = "MaxIters"
DIVERGED = "Diverged"
# a step that raises one of these cannot go on; the run ends with its class name as status
STRUCTURAL = (RankDeficient, LeftChart, LinearizationInfeasible)

DIVERGENCE_WINDOW = 20
DIVERGENCE_FACTOR = 10.0


@dataclass
class SolveOptions:
    gap_tol: float = 1e-10   # a finite positive number; a bool is not one
    max_iters: int = 10_000  # an integer >= 1

    def __post_init__(self):
        tol, iters = self.gap_tol, self.max_iters
        if type(tol) is bool or not isinstance(tol, (int, float, np.floating)) or not 0 < tol < math.inf:
            raise ValueError(f"gap_tol must be a finite positive number, got {tol!r}")
        if type(iters) is bool or not isinstance(iters, (int, np.integer)) or iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {iters!r}")


@dataclass
class IterationTrace:
    """Per-iteration record of one alternating-projection run.

    Row k holds the iterate zs[k], the other-set point xs[k] produced
    from it, gap = |zs[k] - xs[k]|, and the distances of zs[k] to each
    set in dist_q and dist_m.  A distance column records 0.0 where the
    row's iterate was produced by that set's projection (or, for the
    approximate scheme, by a step that keeps iterates on M); otherwise
    it records the distance to the projection computed in that
    iteration, and NaN where the set admits no exact distance.

    gaps, dist_q and dist_m are float arrays.  zs and xs are lists of
    the row vectors the steps produced, not copies; inclusion traces
    hold zs in X-space and xs in Y-space, so their widths can differ.
    A trace read from CSV has xs = None.
    """

    zs: list
    xs: list | None
    gaps: np.ndarray
    dist_q: np.ndarray
    dist_m: np.ndarray
    status: str = MAX_ITERS
    initial_projected: bool = False

    @property
    def iterations(self):
        return max(len(self.gaps) - 1, 0)

    @property
    def final_gap(self):
        return float(self.gaps[-1]) if len(self.gaps) else float("nan")

    # CSV schema: k, gap, dist_Q, dist_M, z_0..z_{d-1}; 17 significant digits.

    def to_csv(self):
        n = len(self.gaps)
        d = len(self.zs[0]) if n else 0
        header = "k,gap,dist_Q,dist_M" + "".join(f",z_{i}" for i in range(d))
        table = np.column_stack(
            (np.arange(n), self.gaps, self.dist_q, self.dist_m, np.reshape(self.zs, (n, d)))
        )
        row = "%d" + ",%.17g" * (3 + d)
        return "\n".join([header] + [row % tuple(r) for r in table.tolist()]) + "\n"

    @staticmethod
    def from_csv(text, status=None):
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or not lines[0].startswith("k,gap,dist_Q,dist_M"):
            raise ValueError("trace CSV missing header row")
        widths = np.array([ln.count(",") + 1 for ln in lines])
        (ragged,) = np.nonzero(widths != widths[0])
        if ragged.size:
            k = ragged[0]
            raise ValueError(f"trace row {k - 1} has {widths[k]} fields, header has {widths[0]}")
        rows = lines[1:]
        table = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else np.empty((0, widths[0]))
        gaps, dist_q, dist_m = np.ascontiguousarray(table[:, 1:4].T)
        return IterationTrace(list(table[:, 4:]), None, gaps, dist_q, dist_m, status or MAX_ITERS)


def iterate(rows, opts: SolveOptions) -> IterationTrace:
    """The iteration loop shared by every driver, and the one place a run ends.

    rows is the driver's step, a generator yielding one trace row
    (z, x, gap, dist_q, dist_m) per iterate k = 0, 1, ...; it computes
    iterate k + 1 only when asked for row k + 1, so no work is done past
    the row that stops the run.  The rows are collected as yielded and
    the trace is built once, on return.

    The run has Converged once gap <= gap_tol and dist_q <= gap_tol, is
    Diverged once gap[k] > DIVERGENCE_FACTOR * gap[k - DIVERGENCE_WINDOW],
    and ends in MaxIters after max_iters iterations (max_iters + 1 rows).
    A step that raises a STRUCTURAL error ends the run with that error's
    class name as status; any other error propagates.  The steps work on
    unchecked arrays, so a row whose gap is NaN/Inf (an overflow) raises
    DimensionMismatch.  The steps run inside this loop, with numpy's
    invalid-value warning off, since that check reports the NaN such a
    step computes; numpy's error state is restored when iterate returns
    or raises.
    """
    table, status = [], None
    with np.errstate(invalid="ignore"):
        try:
            for k, row in enumerate(rows):
                gap, dq = row[2], row[3]
                if not math.isfinite(gap):
                    raise DimensionMismatch(f"iteration {k} has gap {gap}")
                table.append(row)
                if gap <= opts.gap_tol and dq <= opts.gap_tol:
                    status = CONVERGED
                elif k >= DIVERGENCE_WINDOW and gap > DIVERGENCE_FACTOR * table[k - DIVERGENCE_WINDOW][2]:
                    status = DIVERGED
                elif k == opts.max_iters:
                    status = MAX_ITERS
                else:
                    continue
                break
        except STRUCTURAL as exc:
            status = type(exc).__name__
    zs, xs, *scalars = zip(*table) if table else ((),) * 5
    return IterationTrace(list(zs), list(xs), *(np.array(c, dtype=float) for c in scalars), status)


def run_exact(Q: ProjectableSet, M: ProjectableSet, z0, opts=None) -> IterationTrace:
    """Exact alternating projections: x <- P_M(z), z <- P_Q(x)."""
    return run_inexact(Q, M, z0, 0.0, opts=opts)


def run_inexact(Q: ProjectableSet, M: ProjectableSet, z0, eps, seed=42, opts=None):
    """Inexact alternating projections: x <- a point within eps d_M(z) of P_M(z), z <- P_Q(x).

    At iteration k the M step moves P_M(z) by eps d_M(z) in a direction
    drawn from SeedSequence(seed, spawn_key=(k,)), so the seed fixes the
    run.  eps must be a finite number >= 0 and seed an integer >= 0; a
    bool is neither.  With eps = 0 the trace is bit-identical to run_exact.
    """
    if type(eps) is bool or not isinstance(eps, (int, float, np.floating)) or not 0 <= eps < math.inf:
        raise ValueError(f"eps must be a finite number >= 0, got {eps!r}")
    if type(seed) is bool or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    opts = opts or SolveOptions()
    if Q.ambient_dim != M.ambient_dim:
        raise DimensionMismatch("Q and M live in different ambient spaces")
    z = linalg.as_vector(z0, dim=Q.ambient_dim)
    project_q = Q._run_projection()
    pz = project_q(z)
    dq = linalg.norm(z - pz)
    projected = dq > 1e-12
    if projected:
        z, dq = pz, 0.0
    trace = iterate(_inexact_rows(project_q, M._run_projection(), z, dq, float(eps), int(seed)), opts)
    trace.initial_projected = projected
    return trace


def _perturb(exact, d, eps, seed, k):
    """The M step's point, for exact = P_M(z) and d = d_M(z): exact moved by eps d (exact if 0).

    The direction is a standard normal draw from SeedSequence(seed, spawn_key=(k,)).
    """
    if eps == 0.0 or d == 0.0:
        return exact
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
    u = rng.standard_normal(exact.shape[0])
    nu = np.linalg.norm(u)
    while nu == 0.0:  # vanishing draw; essentially impossible
        u = rng.standard_normal(exact.shape[0])
        nu = np.linalg.norm(u)
    return exact + (eps * d / nu) * u


def _inexact_rows(project_q, project_m, z, dq, eps, seed):
    for k in itertools.count():
        exact = project_m(z)
        dm = linalg.norm(z - exact)
        x = _perturb(exact, dm, eps, seed, k)
        gap = dm if x is exact else linalg.norm(z - x)
        yield z, x, gap, dq, dm
        z, dq = project_q(x), 0.0


def run_approximate(M_approx, Q: ProjectableSet, z0, opts=None):
    """Approximate alternating projections keeping iterates on M.

    M_approx is a ChartApproximateProjector, or any object with its two
    methods: start(z0) returns the first iterate, on M, for the checked
    start z0; step(y) returns the next iterate, a point of M approximating
    P_M(y).  Each iteration runs y <- P_Q(z), z <- step(y), so every row's
    dist_M is 0.0.  A step that raises RankDeficient or LeftChart ends the
    run: iterate names the status, the first as in solve_inclusion.
    """
    opts = opts or SolveOptions()
    z = M_approx.start(linalg.as_vector(z0, dim=Q.ambient_dim))
    return iterate(_approximate_rows(M_approx, Q._run_projection(), z), opts)


def _approximate_rows(M_approx, project_q, z):
    while True:
        y = project_q(z)
        gap = linalg.norm(z - y)
        yield z, y, gap, gap, 0.0
        z = M_approx.step(y)
