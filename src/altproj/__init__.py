"""Alternating projections for two-set feasibility problems.

Exact, inexact, and linearized variants of the alternating-projection
iteration, a small dense nearest-point QP solver with KKT certificates,
a library of exactly projectable sets, and diagnostics that measure
contraction rates and intersection angles from iteration traces.
"""

from .alternating import (
    IterationTrace,
    SolveOptions,
    run_approximate,
    run_exact,
    run_inexact,
)
from .diagnostics import angles_from_trace, compare_predicted, fit_rate
from .inclusion import (
    ChartApproximateProjector,
    InclusionProblem,
    ManifoldChart,
    faithful_projection,
    normal_space_basis,
    solve_inclusion,
    verify_faithfulness,
)
from .linconstr import (
    ConstraintSystem,
    check_licq,
    linearized_projection,
    measure_quadratic_decay,
    solve_constraint_system,
)
from .polymap import Monomial, PolyMap
from .qp import KktCertificate, ProjectionQp, solve_projection_qp
from .sets import (
    AffineSubspace,
    Ball,
    Box,
    FinitePointSet,
    FixedRankMatrices,
    Halfspace,
    Hyperplane,
    Polyhedron,
    ProjectableSet,
    Sphere,
    check_transversality,
    set_from_json,
)

__version__ = "0.1.0"
