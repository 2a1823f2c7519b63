"""End-to-end acceptance checks.

Each test exercises one headline behavior at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live).  Every expected number comes from a closed form or an
independent oracle computed inside the test.
"""

import numpy as np

from altproj import (
    AffineSubspace,
    Ball,
    ConstraintSystem,
    FinitePointSet,
    Hyperplane,
    InclusionProblem,
    ManifoldChart,
    Monomial,
    PolyMap,
    SolveOptions,
    Sphere,
    fit_rate,
    measure_quadratic_decay,
    run_exact,
    run_inexact,
    solve_constraint_system,
    solve_inclusion,
    verify_faithfulness,
)
from altproj.linconstr import geometric_path
from altproj.qp import solve_projection_qp

from oracles import chart_projection_oracle, verify_certificate
from test_qp import enumeration_oracle, random_feasible_qp


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else "")
    print(line)
    assert ok, line


def line_through_origin(theta):
    return AffineSubspace([0, 0], [[np.cos(theta), np.sin(theta)]])


X_AXIS = line_through_origin(0.0)
CIRCLE_INEQ = PolyMap(2, [[Monomial(1, (2, 0)), Monomial(1, (0, 2)), Monomial(-1, (0, 0))]])
FULL_PLANE = AffineSubspace([0, 0], [[1, 0], [0, 1]])
PARABOLA = PolyMap(1, [[Monomial(1, (1,))], [Monomial(1, (2,))]])


def test_criterion_1_two_lines_rates():
    results = []
    for theta, expected in [(np.pi / 4, 0.5), (np.pi / 3, 0.25)]:
        tr = run_exact(line_through_origin(theta), X_AXIS, [1, 0],
                       SolveOptions(1e-12, 500))
        rate = fit_rate(tr).rate
        results.append((theta, rate, abs(rate - expected) <= 0.02))
    ok = all(r[2] for r in results)
    report(
        "criterion 1: two-lines rates cos^2(theta)",
        ok,
        ", ".join(f"theta={t:.3f} rate={r:.4f}" for t, r, _ in results),
    )


def test_criterion_2_line_circle_rate():
    Q = Hyperplane([0, 1], 0.5)
    M = Sphere([0, 0], 1.0)
    tr = run_exact(Q, M, [np.sqrt(0.75) - 0.1, 0.5], SolveOptions(1e-12, 500))
    rate = fit_rate(tr).rate
    report(
        "criterion 2: line/circle rate 0.25 +/- 0.05",
        abs(rate - 0.25) <= 0.05,
        f"rate={rate:.5f}",
    )


def test_criterion_3_quadratic_decay():
    sys_ = ConstraintSystem(CIRCLE_INEQ, PolyMap.empty(2), PolyMap.empty(2),
                            FULL_PLANE, 2)
    path = geometric_path([1, 0], [1, 0], range(1, 11))
    rep = measure_quadratic_decay(sys_, Ball([0, 0], 1.0), path)
    # closed-form oracle at the last point: error = (z-1)^2 / (2z)
    z = 1 + 2.0**-10
    oracle = (z - 1) ** 2 / (2 * z)
    oracle_ok = abs(rep.errors[-1] - oracle) <= 1e-12
    ok = abs(rep.slope - 2.0) <= 0.05 and abs(rep.constant - 0.5) <= 0.01 and oracle_ok
    report(
        "criterion 3: quadratic decay slope 2.00 +/- 0.05, constant 0.50 +/- 0.01",
        ok,
        f"slope={rep.slope:.4f} constant={rep.constant:.5f}",
    )


def test_criterion_4_inexact_recovery_and_degradation():
    M = line_through_origin(np.pi / 4)
    opts = SolveOptions(1e-10, 500)
    exact = run_exact(X_AXIS, M, [1, 0], opts)
    zero_eps = run_inexact(X_AXIS, M, [1, 0], 0.0, 42, opts)
    identical = np.array_equal(exact.gaps, zero_eps.gaps) and all(
        np.array_equal(a, b) for a, b in zip(exact.zs, zero_eps.zs)
    )

    noisy = run_inexact(X_AXIS, M, [1, 0], 0.05, 42, opts)
    rate = fit_rate(noisy).rate
    ok = identical and noisy.status == "Converged" and rate <= 0.55 + 0.05
    report(
        "criterion 4: eps=0 trace-identical; eps=0.05 rate <= 0.60",
        ok,
        f"identical={identical} rate={rate:.4f}",
    )


def textbook_gauss_newton(F, c, x0, iters):
    """Classical Gauss-Newton for F(x) = c via explicit normal equations."""
    xs = [np.asarray(x0, dtype=float)]
    for _ in range(iters):
        x = xs[-1]
        J = F.jacobian(x)
        r = F.eval(x) - c
        xs.append(x - np.linalg.solve(J.T @ J, J.T @ r))
    return xs


def random_cubic_map(rng, n=3):
    """F(x) = x + 0.05 * (random cubic terms): a mild perturbation of the
    identity, so the Jacobian stays full rank along the run."""
    comps = []
    for i in range(n):
        terms = [Monomial(1.0, tuple(1 if j == i else 0 for j in range(n)))]
        for _ in range(3):
            expo = [0] * n
            for _ in range(3):
                expo[rng.integers(n)] += 1
            terms.append(Monomial(0.05 * rng.standard_normal(), tuple(expo)))
        comps.append(terms)
    return PolyMap(n, comps)


def test_criterion_5_gauss_newton_equivalence():
    worst = 0.0
    # parabola shifted so the target is the origin
    F1 = PolyMap(1, [[Monomial(1, (1,))], [Monomial(1, (2,)), Monomial(-1, (0,))]])
    cases = [(F1, np.zeros(2), [2.0])]
    rng = np.random.default_rng(101)
    F2 = random_cubic_map(rng)
    cases.append((F2, np.zeros(3), rng.uniform(-0.5, 0.5, size=3)))

    for F, c, x0 in cases:
        p = InclusionProblem(F, FinitePointSet([c]))
        tr = solve_inclusion(p, x0, SolveOptions(1e-300, 20))
        ref = textbook_gauss_newton(F, c, x0, 20)
        for a, b in zip(tr.zs, ref):
            worst = max(worst, float(np.max(np.abs(a - b))))
    report(
        "criterion 5: inclusion solver matches textbook Gauss-Newton to 1e-10",
        worst <= 1e-10,
        f"max deviation={worst:.2e}",
    )


def test_criterion_6_faithfulness():
    chart = ManifoldChart(PARABOLA, [-10], [10])
    ks = range(3, 13)
    base = [[2.0**-k] for k in ks]
    queries = [np.array([0.0, -(2.0**-k)]) for k in ks]
    exact = [chart_projection_oracle(chart, y) for y in queries]
    ratios = verify_faithfulness(chart, base, queries, exact)
    monotone = all(b < a for a, b in zip(ratios, ratios[1:]))
    ok = monotone and ratios[-1] < 0.01
    report(
        "criterion 6: faithfulness ratio decreasing, < 0.01 by k=12",
        ok,
        f"first={ratios[0]:.4f} last={ratios[-1]:.6f}",
    )


def test_criterion_7_qp_oracle_agreement():
    rng = np.random.default_rng(2024)
    worst_x, worst_kkt = 0.0, 0.0
    for _ in range(200):
        prob = random_feasible_qp(rng)
        cert = solve_projection_qp(prob)
        x_ref = enumeration_oracle(prob)
        worst_x = max(worst_x, float(np.max(np.abs(cert.solution - x_ref))))
        worst_kkt = max(worst_kkt, verify_certificate(prob, cert))
    ok = worst_x <= 1e-8 and worst_kkt <= 1e-8
    report(
        "criterion 7: 200 QPs match enumeration oracle, certificates verify",
        ok,
        f"max solution dev={worst_x:.2e} max KKT violation={worst_kkt:.2e}",
    )


def test_criterion_8_constraint_solver_end_to_end():
    sys_ = ConstraintSystem(
        CIRCLE_INEQ,
        PolyMap.empty(2),
        PolyMap.empty(2),
        AffineSubspace([0, 0], [[2**-0.5, 2**-0.5]]),
        2,
    )
    tr = solve_constraint_system(sys_, [2, 2], SolveOptions(1e-12, 200))
    target = np.array([np.sqrt(0.5), np.sqrt(0.5)])

    # oracle: iterate the two closed-form steps directly
    x = np.array([2.0, 2.0])
    for _ in range(80):
        g = float(x @ x - 1.0)
        if g > 0:
            x = x - g / (4 * (x @ x)) * (2 * x)
        t = (x[0] + x[1]) / 2
        x = np.array([t, t])
    oracle_ok = np.max(np.abs(x - target)) <= 1e-10

    err = float(np.max(np.abs(tr.zs[-1] - target)))
    # convergence here is faster than linear, so check contraction on the
    # raw gap ratios instead of a trailing-half fit
    g = np.asarray(tr.gaps)
    g = g[g > 100 * np.finfo(float).eps]
    ratios = g[1:] / g[:-1]
    rate_ok = ratios.size > 0 and float(np.max(ratios)) < 1.0
    ok = tr.status == "Converged" and err <= 1e-8 and rate_ok and oracle_ok
    report(
        "criterion 8: circle/line system converges to (sqrt(1/2), sqrt(1/2))",
        ok,
        f"err={err:.2e} max gap ratio={float(np.max(ratios)):.4f}",
    )


def test_criterion_9_parallel_lines_negative_control():
    Q = AffineSubspace([0, 1], [[1, 0]])
    M = AffineSubspace([0, 0], [[1, 0]])
    tr = run_exact(Q, M, [0, 0], SolveOptions(1e-10, 50))
    gap = tr.final_gap
    ok = tr.status == "MaxIters" and abs(gap - 1.0) <= 1e-9
    report(
        "criterion 9: disjoint parallel lines stall at gap 1.000",
        ok,
        f"status={tr.status} gap={gap:.12f}",
    )
