"""Solving F(x) in Q with Gauss-Newton steps, and staying on a manifold.

The inclusion solver finds x with F(x) inside a target set Q by
repeatedly projecting F(x) onto Q and taking the least-squares
(Gauss-Newton) step toward the projected target. Here F(t) = (t, t^2)
traces the parabola and Q is the horizontal line y = 1, so the answer
is t = +/- 1.

The same chart machinery gives an approximate projector whose iterates
stay exactly on the parabola: each step solves one least-squares
problem in chart coordinates and re-evaluates F.
"""

from altproj import (
    ChartApproximateProjector,
    Hyperplane,
    InclusionProblem,
    ManifoldChart,
    Monomial,
    PolyMap,
    SolveOptions,
    faithful_projection,
    run_approximate,
    solve_inclusion,
)

parabola = PolyMap(1, [[Monomial(1, (1,))], [Monomial(1, (2,))]])
line = Hyperplane([0, 1], 1.0)

trace = solve_inclusion(InclusionProblem(parabola, line), [2], SolveOptions(1e-12, 100))
print(f"inclusion solve: status={trace.status}, t = {trace.zs[-1][0]:.12f}")

# Approximate alternating projections with iterates kept on the parabola.
chart = ManifoldChart(parabola, [-10], [10])
projector = ChartApproximateProjector(chart, [2])
trace = run_approximate(projector, line, [2, 4], SolveOptions(1e-12, 100))
on_curve = max(abs(z[1] - z[0] ** 2) for z in trace.zs)
print(f"approximate solve: status={trace.status}, iterations={trace.iterations}")
print(f"max deviation of iterates from the parabola: {on_curve:.2e}")

# One faithful projection step: the result is F of updated coordinates,
# hence exactly on the curve, and close to the true nearest point.
z = faithful_projection(chart, [2], [2.0, 1.0])
print(f"faithful projection of (2,1) from base t=2: {z}  (on curve: {z[1]==z[0]**2})")
