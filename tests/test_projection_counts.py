"""Each projection is computed once per iteration, and doing so changes no iterate.

The sets and maps below are wrapped in counting subclasses; the iterates
and gaps are compared bit for bit with a plain reference loop.  Each
Jacobian is factored once per step: the rank test's SVD is the solve's.
"""

import numpy as np
import pytest

from altproj import (
    AffineSubspace,
    ChartApproximateProjector,
    ConstraintSystem,
    ExactApproximateProjector,
    FixedRankMatrices,
    Hyperplane,
    InclusionProblem,
    InexactProjector,
    ManifoldChart,
    Monomial,
    PolyMap,
    SolveOptions,
    check_licq,
    faithful_projection,
    gauss_newton_step,
    linalg,
    newton_feasibility_step,
    normal_space_basis,
    run_approximate,
    run_exact,
    solve_constraint_system,
    solve_inclusion,
)
from altproj.cli import bundled_problem_path, load_problem

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
    tr = run_exact(counting(Q, "project"), counting(M, "project"), z0, opts)
    assert M.calls == tr.iterations + 1
    assert Q.calls <= tr.iterations + 1
    assert tr.gaps == gaps
    assert len(tr.zs) == len(zs)
    assert all(np.array_equal(a, b) for a, b in zip(tr.zs, zs))
    # every iterate after the first came from P_Q, and dist_M is the gap
    assert tr.dist_q[1:] == [0.0] * tr.iterations
    assert tr.dist_m == tr.gaps


@pytest.mark.parametrize("make", PROBLEMS)
def test_run_approximate_exact_instance_projects_once_per_iteration(make):
    Q, M, z0, opts = make()
    z0 = M.project(z0)
    tr = run_approximate(
        ExactApproximateProjector(counting(M, "project")),
        counting(Q, "project"),
        z0,
        opts,
    )
    assert M.calls == tr.iterations + 1
    assert Q.calls <= tr.iterations + 1
    assert tr.dist_m[1:] == [0.0] * tr.iterations


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
    assert tr.gaps == gaps
    assert tr.dist_q == dist_q
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


def test_constraint_system_evaluates_each_block_once_per_iteration():
    sys_ = three_block_system()
    for block in (sys_.G, sys_.P, sys_.H):
        counting(block, "eval")
    counting(sys_.Q, "project")
    tr = solve_constraint_system(sys_, [3.0, 1.0, 2.0], SolveOptions(1e-10, 200))
    assert tr.status == "Converged"
    assert tr.iterations >= 2
    for block in (sys_.G, sys_.P, sys_.H):
        assert block.calls == tr.iterations + 1
    assert sys_.Q.calls <= tr.iterations + 1


def test_negative_eps_rejected():
    with pytest.raises(ValueError):
        InexactProjector(AffineSubspace([0, 0], [[1, 0]]), -0.1)


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


def test_inclusion_factors_each_jacobian_once(svd_calls):
    tr = solve_inclusion(PARABOLOID_PROBLEM, [1.0, 0.5], SolveOptions(1e-12, 100))
    assert tr.status == "Converged"
    assert tr.iterations >= 2
    assert svd_calls == [(3, 2)] * tr.iterations


def test_chart_approximate_factors_each_jacobian_once(svd_calls):
    x0 = np.array([1.0, 0.5])
    projector = ChartApproximateProjector(PARABOLOID_CHART, x0)
    tr = run_approximate(projector, PARABOLOID_PROBLEM.Q, PARABOLOID.eval(x0),
                         SolveOptions(1e-12, 100))
    assert tr.status == "Converged"
    assert tr.iterations >= 2
    assert svd_calls == [(3, 2)] * tr.iterations


@pytest.mark.parametrize(
    "step",
    [
        pytest.param(lambda: gauss_newton_step(PARABOLOID_PROBLEM, [1.0, 0.5]), id="gauss_newton_step"),
        pytest.param(lambda: faithful_projection(PARABOLOID_CHART, [1.0, 0.5], [1, 1, 1]),
                     id="faithful_projection"),
        pytest.param(lambda: normal_space_basis(PARABOLOID_CHART, [1.0, 0.5]), id="normal_space_basis"),
    ],
)
def test_chart_steps_factor_the_jacobian_once(svd_calls, step):
    step()
    assert svd_calls == [(3, 2)]


def test_newton_feasibility_step_factors_once(svd_calls):
    newton_feasibility_step(three_block_system(), [3.0, 1.0, 2.0])
    assert svd_calls == [(3, 2)]  # the transpose of the stacked 2 x 3 (G, H) Jacobian


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
def test_check_licq_factors_once(svd_calls, G):
    # every row is active at the origin; H = x0 - x1
    sys_ = ConstraintSystem(G, PolyMap.empty(2), linear_map([[1, -1]]),
                            AffineSubspace([0, 0], np.eye(2)), 2)
    check_licq(sys_, [0.0, 0.0])
    assert len(svd_calls) == 1
