"""Each projection is computed once per iteration, and doing so changes no iterate.

The sets and maps below are wrapped in counting subclasses, which count the
private _project the drivers call on iterates they hold checked; the iterates
and gaps are compared bit for bit with a plain reference loop.  Each
Jacobian is factored once per step: the rank test's SVD is the solve's.
Each linearization point builds one PolyMap power table for F and its
Jacobian together.  Input is checked once per solve, not once per iteration.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest

from altproj import (
    AffineSubspace,
    Ball,
    ChartApproximateProjector,
    ConstraintSystem,
    FixedRankMatrices,
    Hyperplane,
    InclusionProblem,
    ManifoldChart,
    Monomial,
    PolyMap,
    SolveOptions,
    check_licq,
    faithful_projection,
    linalg,
    measure_quadratic_decay,
    normal_space_basis,
    run_approximate,
    run_exact,
    run_inexact,
    solve_constraint_system,
    solve_inclusion,
)
from altproj.cli import ProblemFile, bundled_problem_path, load_problem, run_problem
from altproj.linconstr import geometric_path
from altproj.polymap import _TermSums

TWO_SETS = ["circle_line", "parallel_lines", "two_lines_45deg", "two_lines_60deg"]


def counting(obj, method):
    """obj, re-classed to a subclass of its own type that counts calls of method."""
    base = type(obj)
    inner = getattr(base, method)

    def counted(self, *args):
        self.calls += 1
        return inner(self, *args)

    obj.__class__ = type(f"Counting{base.__name__}", (base,), {method: counted})
    obj.calls = 0
    return obj


def completion(n=30, rank=2, seed=3):
    """Rank-2 completion of an n x n matrix from half its entries."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n))
    observed = np.zeros(n * n, dtype=bool)
    observed[rng.choice(n * n, n * n // 2, replace=False)] = True
    anchor = np.where(observed, X.reshape(-1), 0.0)
    Q = AffineSubspace(anchor, np.eye(n * n)[~observed])
    return Q, FixedRankMatrices(n, n, rank), anchor, SolveOptions(1e-9, 3000)


def bundled(name):
    prob = load_problem(bundled_problem_path(name))
    Q, M = prob.payload
    return Q, M, prob.start, prob.options


def reference_exact(Q, M, z0, opts):
    """x = P_M(z); z = P_Q(x), stopping on the gap test or max_iters."""
    z = np.asarray(z0, dtype=float)
    if Q.distance(z) > 1e-12:
        z = Q.project(z)
    zs, gaps = [], []
    for _ in range(opts.max_iters + 1):
        x = M.project(z)
        zs.append(z)
        gaps.append(float(np.linalg.norm(z - x)))
        if gaps[-1] <= opts.gap_tol:
            break
        z = Q.project(x)
    return zs, gaps


PROBLEMS = [pytest.param(completion, id="completion30")] + [
    pytest.param(lambda name=name: bundled(name), id=name) for name in TWO_SETS
]


@pytest.mark.parametrize("make", PROBLEMS)
def test_run_exact_projects_once_per_iteration(make):
    Q, M, z0, opts = make()
    zs, gaps = reference_exact(Q, M, z0, opts)
    tr = run_exact(counting(Q, "_project"), counting(M, "_project"), z0, opts)
    assert M.calls == tr.iterations + 1
    assert Q.calls <= tr.iterations + 1
    assert np.array_equal(tr.gaps, gaps)
    assert len(tr.zs) == len(zs)
    assert all(np.array_equal(a, b) for a, b in zip(tr.zs, zs))
    # every iterate after the first came from P_Q, and dist_M is the gap
    assert np.array_equal(tr.dist_q[1:], np.zeros(tr.iterations))
    assert np.array_equal(tr.dist_m, tr.gaps)


@pytest.mark.parametrize("name", TWO_SETS)
def test_cli_approximate_projects_start_once(name):
    # run_exact(M, Q) projects the start onto M once, and the CLI does not again
    prob = load_problem(bundled_problem_path(name))
    counting(prob.payload[1], "_project")
    tr = run_problem(prob, "approximate")
    assert prob.payload[1].calls == tr.iterations + 1
    assert np.array_equal(tr.dist_m, np.zeros(len(tr.zs)))


@pytest.mark.parametrize("make", PROBLEMS)
def test_run_approximate_exact_instance_projects_once_per_iteration(make):
    # approximate on two sets runs exact projections with iterates on M
    Q, M, z0, opts = make()
    z0 = M.project(z0)
    prob = ProblemFile("two_sets", (counting(Q, "_project"), counting(M, "_project")), z0, opts)
    tr = run_problem(prob, "approximate")
    assert M.calls == tr.iterations + 1
    assert Q.calls <= tr.iterations + 1
    assert np.array_equal(tr.dist_m[1:], np.zeros(tr.iterations))


def dense_affine_reference(Q, M, z0, opts):
    """run_exact's rows, with P_Q written out as anchor + B^T (B (z - anchor))."""
    a, B = Q.anchor, Q.basis

    def project_q(z):
        return a + B.T @ (B @ (z - a))

    z = np.asarray(z0, dtype=float)
    pz = project_q(z)
    dq = float(np.linalg.norm(z - pz))
    if dq > 1e-12:
        z, dq = pz, 0.0
    zs, xs, gaps, dist_q = [], [], [], []
    for _ in range(opts.max_iters + 1):
        x = M.project(z)
        zs.append(z)
        xs.append(x)
        gaps.append(float(np.linalg.norm(z - x)))
        dist_q.append(dq)
        if gaps[-1] <= opts.gap_tol:
            break
        z, dq = project_q(x), 0.0
    return zs, xs, gaps, dist_q


def test_completion_trace_matches_dense_affine_formula():
    # Q's basis rows are unit vectors, so P_Q selects coordinates; the iterates must not move
    Q, M, z0, opts = completion()
    assert Q._free is not None
    zs, xs, gaps, dist_q = dense_affine_reference(Q, M, z0, opts)
    tr = run_exact(Q, M, z0, opts)
    assert tr.status == "Converged"
    assert np.array_equal(tr.gaps, gaps)
    assert np.array_equal(tr.dist_q, dist_q)
    assert len(tr.zs) == len(zs) == len(tr.xs)
    for got, want in zip(tr.zs + tr.xs, zs + xs):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def three_block_system():
    """G: |x|^2 <= 4, P: x_0 <= 5, H: x_0 = x_1, Q: the plane x_2 = 1."""
    G = PolyMap(3, [[Monomial(1, (2, 0, 0)), Monomial(1, (0, 2, 0)),
                     Monomial(1, (0, 0, 2)), Monomial(-4, (0, 0, 0))]])
    P = PolyMap(3, [[Monomial(1, (1, 0, 0)), Monomial(-5, (0, 0, 0))]])
    H = PolyMap(3, [[Monomial(1, (1, 0, 0)), Monomial(-1, (0, 1, 0))]])
    Q = AffineSubspace([0, 0, 1], [[1, 0, 0], [0, 1, 0]])
    return ConstraintSystem(G, P, H, Q, 3)


@pytest.fixture
def table_builds(monkeypatch):
    """The _TermSums of each PolyMap power table built, in call order."""
    calls = []
    at = _TermSums.at

    def counted(self, x, *args):
        calls.append(self)
        return at(self, x, *args)

    monkeypatch.setattr(_TermSums, "at", counted)
    return calls


def test_constraint_system_evaluates_each_block_once_per_iteration(table_builds):
    sys_ = three_block_system()
    counting(sys_.Q, "_project")
    tr = solve_constraint_system(sys_, [3.0, 1.0, 2.0], SolveOptions(1e-10, 200))
    assert tr.status == "Converged"
    assert tr.iterations >= 2
    # one table per block and row, holding the block's values and Jacobian
    assert table_builds == [sys_.G._sums, sys_.P._sums, sys_.H._sums] * (tr.iterations + 1)
    assert sys_.Q.calls <= tr.iterations + 1


def rejected_before_projecting(eps, seed):
    """run_inexact on counting sets with this eps and seed raises ValueError; returns the projections made."""
    Q, M = (counting(AffineSubspace([0, 0], [basis]), "_project") for basis in ([1, 0], [0, 1]))
    with pytest.raises(ValueError, match="eps" if seed == 42 else "seed"):
        run_inexact(Q, M, [1.0, 0.0], eps, seed)
    return Q.calls + M.calls


def test_negative_eps_rejected():
    assert rejected_before_projecting(-0.1, 42) == 0


@pytest.mark.parametrize("eps, seed", [(np.nan, 42), (np.inf, 42), (True, 42),
                                       (0.1, -1), (0.1, True), (0.1, 1.5)])
def test_bad_eps_or_seed_rejected_before_any_projection(eps, seed):
    assert rejected_before_projecting(eps, seed) == 0


def test_run_inexact_projects_once_per_iteration():
    Q, M, z0, opts = bundled("two_lines_45deg")
    tr = run_inexact(counting(Q, "_project"), counting(M, "_project"), z0, 0.3, 7, opts)
    assert tr.iterations > 0
    assert M.calls == tr.iterations + 1
    assert Q.calls <= tr.iterations + 1


# F(x) = (x0, x1, x0^2 + x1^2) on the box (-10, 10)^2, Q = {y2 = 1}
PARABOLOID = PolyMap(2, [[Monomial(1, (1, 0))], [Monomial(1, (0, 1))],
                         [Monomial(1, (2, 0)), Monomial(1, (0, 2))]])
PARABOLOID_CHART = ManifoldChart(PARABOLOID, [-10, -10], [10, 10])
PARABOLOID_PROBLEM = InclusionProblem(PARABOLOID, Hyperplane([0, 0, 1], 1.0))


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts linalg.svd calls; any call of np.linalg.qr fails."""
    calls = []
    svd = linalg.svd

    def counted(A):
        calls.append(np.shape(A))
        return svd(A)

    def forbidden(*args, **kwargs):
        raise AssertionError("a full-rank solve must reuse the rank test's SVD")

    monkeypatch.setattr(linalg, "svd", counted)
    monkeypatch.setattr(np.linalg, "qr", forbidden)
    return calls


def test_inclusion_factors_each_jacobian_once(svd_calls, table_builds):
    tr = solve_inclusion(PARABOLOID_PROBLEM, [1.0, 0.5], SolveOptions(1e-12, 100))
    assert tr.status == "Converged"
    assert tr.iterations >= 2
    assert svd_calls == [(3, 2)] * tr.iterations
    # one table per row gives F and the Jacobian the step uses
    assert table_builds == [PARABOLOID._sums] * (tr.iterations + 1)


def test_chart_approximate_factors_each_jacobian_once(svd_calls, table_builds):
    projector = ChartApproximateProjector(PARABOLOID_CHART, [1.0, 0.5])
    assert table_builds == [PARABOLOID._sums]
    tr = run_approximate(projector, PARABOLOID_PROBLEM.Q, projector.fx, SolveOptions(1e-12, 100))
    assert tr.status == "Converged"
    assert tr.iterations >= 2
    assert svd_calls == [(3, 2)] * tr.iterations
    # one table at construction and one after each step
    assert table_builds == [PARABOLOID._sums] * (tr.iterations + 1)


def test_cli_chart_approximate_tabulates_once_per_step(table_builds):
    # the start row's F(x0) is the projector's, not a second evaluation
    prob = load_problem(bundled_problem_path("parabola_inclusion"))
    tr = run_problem(prob, "approximate")
    assert tr.status == "Converged"
    assert tr.iterations >= 2
    assert table_builds == [prob.payload.F._sums] * (tr.iterations + 1)


@pytest.mark.parametrize(
    "step, tables",
    [
        # at the base point, and at the point on M it returns
        pytest.param(lambda: faithful_projection(PARABOLOID_CHART, [1.0, 0.5], [1, 1, 1]), 2,
                     id="faithful_projection"),
        pytest.param(lambda: normal_space_basis(PARABOLOID_CHART, [1.0, 0.5]), 1, id="normal_space_basis"),
    ],
)
def test_chart_steps_factor_the_jacobian_once(svd_calls, table_builds, step, tables):
    step()
    assert svd_calls == [(3, 2)]
    assert table_builds == [PARABOLOID._sums] * tables


def linear_map(rows):
    """x -> A x as a PolyMap."""
    n = len(rows[0])
    return PolyMap(n, [[Monomial(c, tuple(int(i == j) for i in range(n))) for j, c in enumerate(row) if c]
                       for row in rows])


@pytest.mark.parametrize(
    "G",
    [
        pytest.param(PolyMap.empty(2), id="rows<=dims"),
        pytest.param(linear_map([[1, 0], [0, 1], [1, 1]]), id="rows>dims"),
    ],
)
def test_check_licq_factors_once(svd_calls, table_builds, G):
    # every row is active at the origin; H = x0 - x1
    sys_ = ConstraintSystem(G, PolyMap.empty(2), linear_map([[1, -1]]),
                            AffineSubspace([0, 0], np.eye(2)), 2)
    check_licq(sys_, [0.0, 0.0])
    assert len(svd_calls) == 1
    assert table_builds == [m._sums for m in (sys_.G, sys_.H) if m.output_dim]


# the unit circle H: |x|^2 = 1 in the plane, with no inequality blocks
UNIT_CIRCLE = PolyMap(2, [[Monomial(1, (2, 0)), Monomial(1, (0, 2)), Monomial(-1, (0, 0))]])


def circle_system(Q):
    return ConstraintSystem(PolyMap.empty(2), PolyMap.empty(2), UNIT_CIRCLE, Q, 2)


def test_quadratic_decay_projects_each_path_point_once():
    ball = counting(Ball([0, 0], 1.0), "_project")
    path = geometric_path([1, 0], [1, 0], range(1, 11))
    rep = measure_quadratic_decay(circle_system(AffineSubspace([0, 0], np.eye(2))), ball, path)
    assert ball.calls == len(path)
    # the distance is the one the set reports, bit for bit
    assert rep.distances.tolist() == [Ball([0, 0], 1.0).distance(z) for z in path]


@pytest.fixture
def as_vector_calls(monkeypatch):
    """The caller of each linalg.as_vector call, under every name a package module binds it to."""
    calls = []
    inner = linalg.as_vector

    def counted(*args, **kwargs):
        calls.append(sys._getframe(1).f_code.co_name)
        return inner(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "altproj" and getattr(module, "as_vector", None) is inner:
            monkeypatch.setattr(module, "as_vector", counted)
    return calls


def checks_per_run(calls, run, iterations):
    """The callers of as_vector in run(max_iters), which must end in MaxIters after that many.

    The drivers solve their Gauss-Newton and chart steps with a right-hand
    side they hold checked, so the least-squares kernel checks none.
    """
    del calls[:]
    tr = run(iterations)
    assert (tr.status, tr.iterations) == ("MaxIters", iterations)
    assert "least_squares" not in calls
    return sorted(calls)


# no solution: the unit circle against the line x_1 = 2, and the parabola
# (t, t^2) against the line y_1 = -1; each run stalls at gap 1
STALLING_SYSTEM = circle_system(AffineSubspace([0, 2], [[1, 0]]))
PARABOLA = PolyMap(1, [[Monomial(1, (1,))], [Monomial(1, (2,))]])
BELOW_PARABOLA = Hyperplane([0, 1], -1.0)


def parallel_lines_run(scheme):
    prob = load_problem(bundled_problem_path("parallel_lines"))

    def run(max_iters):
        prob.options = replace(prob.options, max_iters=max_iters)
        prob.epsilon = 0.1
        return run_problem(prob, scheme)

    return run


def chart_run(max_iters):
    projector = ChartApproximateProjector(ManifoldChart(PARABOLA, [-10], [10]), [2.0])
    return run_approximate(projector, BELOW_PARABOLA, projector.fx, SolveOptions(1e-12, max_iters))


def linconstr_run(max_iters):
    return solve_constraint_system(STALLING_SYSTEM, [3.0, 2.0], SolveOptions(1e-12, max_iters))


def inclusion_run(max_iters):
    problem = InclusionProblem(PARABOLA, BELOW_PARABOLA)
    return solve_inclusion(problem, [2.0], SolveOptions(1e-12, max_iters))


@pytest.mark.parametrize(
    "run",
    [pytest.param(parallel_lines_run(s), id=f"parallel_lines-{s}")
     for s in ("exact", "inexact", "approximate")]
    + [pytest.param(linconstr_run, id="linconstr"), pytest.param(inclusion_run, id="inclusion"),
       pytest.param(chart_run, id="chart-approximate")],
)
def test_input_checks_do_not_grow_with_iterations(as_vector_calls, run):
    assert checks_per_run(as_vector_calls, run, 5) == checks_per_run(as_vector_calls, run, 50)
