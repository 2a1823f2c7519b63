"""Each projection is computed once per iteration, and doing so changes no iterate.

The sets and maps below are wrapped in counting subclasses; the iterates
and gaps are compared bit for bit with a plain reference loop.
"""

import numpy as np
import pytest

from altproj import (
    AffineSubspace,
    ConstraintSystem,
    ExactApproximateProjector,
    FixedRankMatrices,
    InexactProjector,
    Monomial,
    PolyMap,
    SolveOptions,
    run_approximate,
    run_exact,
    solve_constraint_system,
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
