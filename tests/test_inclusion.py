import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from altproj import (
    AffineSubspace,
    ChartApproximateProjector,
    FinitePointSet,
    Hyperplane,
    InclusionProblem,
    ManifoldChart,
    Monomial,
    PolyMap,
    SolveOptions,
    faithful_projection,
    normal_space_basis,
    run_approximate,
    run_exact,
    solve_inclusion,
    verify_faithfulness,
)
from altproj.cli import bundled_problem_path, load_problem, run_problem
from altproj.errors import DimensionMismatch, InsufficientData, LeftChart
from altproj.sets import ON_SET_TOL

from oracles import chart_projection_oracle

# F(t) = (t, t^2), the standard parabola chart
PARABOLA = PolyMap(1, [[Monomial(1, (1,))], [Monomial(1, (2,))]])
PARABOLA_CHART = ManifoldChart(PARABOLA, [-10], [10])
# F(x) = (x0, x1, x0^2 + x1^2), the paraboloid chart
PARABOLOID = PolyMap(2, [[Monomial(1, (1, 0))], [Monomial(1, (0, 1))],
                         [Monomial(1, (2, 0)), Monomial(1, (0, 2))]])
# F(t) = (t^2, t^3): the Jacobian vanishes at t = 0
CUSP = PolyMap(1, [[Monomial(1, (2,))], [Monomial(1, (3,))]])


def textbook_gn_oracle(F, Q, x):
    """Reference Gauss-Newton step via explicit normal equations."""
    x = np.asarray(x, dtype=float)
    J = F.jacobian(x)
    r = Q.project(F.eval(x)) - F.eval(x)
    return np.linalg.solve(J.T @ J, J.T @ r)


def first_step(p, x):
    """The solver's own first step from x: s = zs[1] - zs[0], and its target y = xs[0]."""
    tr = solve_inclusion(p, x, SolveOptions(1e-300, 1))
    assert tr.iterations == 1
    return tr.zs[1] - tr.zs[0], tr.xs[0]


class TestGaussNewtonStep:
    def test_parabola_closed_form(self):
        # Q = {y2 = 1}, x = 2: residual (0, -3), J = (1, 4), s = -12/17
        p = InclusionProblem(PARABOLA, Hyperplane([0, 1], 1.0))
        s, y = first_step(p, [2])
        assert s[0] == pytest.approx(-12 / 17, abs=1e-12)
        np.testing.assert_allclose(y, [2, 1])

    def test_identity_map_projects_in_one_step(self):
        F = PolyMap.identity(2)
        p = InclusionProblem(F, FinitePointSet([[3, 4]]))
        s, y = first_step(p, [0, 0])
        np.testing.assert_allclose(s, [3, 4], atol=1e-12)
        np.testing.assert_allclose(y, [3, 4])

    def test_target_zero_is_full_newton(self):
        # F(x) in {0} makes the step the least-squares Newton step for F(x)=0
        F = PolyMap(1, [[Monomial(1, (2,)), Monomial(-4, (0, ))]])  # x^2 - 4
        p = InclusionProblem(F, FinitePointSet([[0.0]]))
        s, _ = first_step(p, [3])
        assert s[0] == pytest.approx(-5 / 6, abs=1e-12)

    def test_matches_textbook_oracle(self):
        Q = Hyperplane([0, 1], 1.0)
        p = InclusionProblem(PARABOLA, Q)
        rng = np.random.default_rng(61)
        for _ in range(20):
            x = rng.uniform(0.5, 3.0, size=1)
            s, _ = first_step(p, x)
            np.testing.assert_allclose(
                s, textbook_gn_oracle(PARABOLA, Q, x), atol=1e-10
            )

    def test_rank_deficient_jacobian(self):
        F = PolyMap(1, [[Monomial(1, (2,))]])  # derivative 0 at origin
        p = InclusionProblem(F, FinitePointSet([[1.0]]))
        tr = solve_inclusion(p, [0], SolveOptions(1e-300, 1))
        assert tr.status == "RankDeficient"
        assert tr.iterations == 0

    @pytest.mark.parametrize("x", [[1.0, 2.0], [np.nan]], ids=["length", "nan"])
    def test_bad_point_raises_dimension_mismatch(self, x):
        with pytest.raises(DimensionMismatch):
            solve_inclusion(InclusionProblem(PARABOLA, Hyperplane([0, 1], 1.0)), x)


class TestSolveInclusion:
    def test_parabola_converges_to_unit_height(self):
        p = InclusionProblem(PARABOLA, Hyperplane([0, 1], 1.0))
        tr = solve_inclusion(p, [2], SolveOptions(1e-12, 100))
        assert tr.status == "Converged"
        assert abs(abs(tr.zs[-1][0]) - 1.0) <= 1e-6
        assert tr.final_gap <= 1e-12

    def test_feasible_start_zero_iterations(self):
        p = InclusionProblem(PARABOLA, Hyperplane([0, 1], 1.0))
        tr = solve_inclusion(p, [1])
        assert tr.status == "Converged"
        assert tr.iterations == 0

    def test_constant_map_rank_deficient(self):
        F = PolyMap(1, [[Monomial(1, (0,))]])  # F(x) = 1
        p = InclusionProblem(F, FinitePointSet([[0.0]]))
        tr = solve_inclusion(p, [0])
        assert tr.status == "RankDeficient"

    def test_max_iters_status(self):
        p = InclusionProblem(PARABOLA, Hyperplane([0, 1], 1.0))
        tr = solve_inclusion(p, [2], SolveOptions(1e-12, 1))
        assert tr.status == "MaxIters"
        assert tr.iterations == 1

    def test_identity_map_matches_run_exact(self):
        # with F = identity the method is alternating projection between
        # the ambient space and Q
        F = PolyMap.identity(2)
        Q = AffineSubspace([0, 0.5], [[1, 0]])
        p = InclusionProblem(F, Q)
        tr = solve_inclusion(p, [2, 3], SolveOptions(1e-12, 50))
        ambient = AffineSubspace([0, 0], [[1, 0], [0, 1]])
        ref = run_exact(Q, ambient, [2, 3], SolveOptions(1e-12, 50))
        assert tr.status == ref.status == "Converged"
        np.testing.assert_allclose(tr.zs[-1], ref.zs[-1], atol=1e-12)

    def test_overflowing_map_raises(self):
        # F(t) = t^200 overflows to Inf at t = 1e10, so the first gap is not
        # finite; the NaN it turns into in the step warns nothing
        F = PolyMap(1, [[Monomial(1, (200,))]])
        with np.errstate(over="warn", invalid="raise"):
            with pytest.warns(RuntimeWarning, match="overflow") as warned:
                with pytest.raises(DimensionMismatch):
                    solve_inclusion(InclusionProblem(F, Hyperplane([1.0], 1.0)), [1e10])
            assert np.geterr()["invalid"] == "raise"
        assert all("overflow" in str(w.message) for w in warned)

    def test_json_round_trip(self):
        p = InclusionProblem(PARABOLA, Hyperplane([0, 1], 1.0))
        q = InclusionProblem.from_json(p.to_json())
        assert q.F == p.F
        s1, _ = first_step(p, [2])
        s2, _ = first_step(q, [2])
        np.testing.assert_allclose(s1, s2)


class TestFaithfulProjection:
    def test_result_lies_on_manifold(self):
        z = faithful_projection(PARABOLA_CHART, [2], [2, 1])
        assert z[1] == pytest.approx(z[0] ** 2, abs=1e-12)

    def test_closed_form_value(self):
        # s = -12/17 from the Gauss-Newton example, so Phi = F(2 - 12/17)
        z = faithful_projection(PARABOLA_CHART, [2], [2, 1])
        t = 2 - 12 / 17
        np.testing.assert_allclose(z, [t, t * t], atol=1e-12)

    def test_query_on_manifold_is_fixed(self):
        z = faithful_projection(PARABOLA_CHART, [1], [1, 1])
        np.testing.assert_allclose(z, [1, 1], atol=1e-12)

    def test_left_chart_base(self):
        with pytest.raises(LeftChart):
            faithful_projection(PARABOLA_CHART, [11], [11, 121])

    def test_left_chart_update(self):
        chart = ManifoldChart(PARABOLA, [-1], [2.1])
        with pytest.raises(LeftChart):
            faithful_projection(chart, [2], [10, 4])


class TestNormalSpace:
    def test_orthogonal_to_tangent(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            x = rng.uniform(-3, 3, size=1)
            N = normal_space_basis(PARABOLA_CHART, x)
            J = PARABOLA.jacobian(x)
            assert N.shape == (1, 2)
            assert np.max(np.abs(N @ J)) <= 1e-12
            np.testing.assert_allclose(N @ N.T, np.eye(1), atol=1e-12)

    def test_parabola_vertex_normal(self):
        N = normal_space_basis(PARABOLA_CHART, [0])
        np.testing.assert_allclose(np.abs(N), [[0, 1]], atol=1e-12)


class TestChartProjector:
    def test_oracle_near_vertex(self):
        # nearest parabola point to (0, 1) on either branch: t^2 = 1/2
        z = chart_projection_oracle(PARABOLA_CHART, [0, 1])
        assert z[1] == pytest.approx(0.5, abs=1e-8)

    def test_oracle_matches_stationarity(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            y = rng.uniform(-2, 2, size=2)
            z = chart_projection_oracle(PARABOLA_CHART, y)
            t = np.array([z[0]])
            g = PARABOLA.jacobian(t)[:, 0] @ (PARABOLA.eval(t) - y)
            assert abs(g) <= 1e-7

    def test_approximate_run_stays_on_manifold(self):
        proj = ChartApproximateProjector(PARABOLA_CHART, [2])
        tr = run_approximate(proj, Hyperplane([0, 1], 1.0), [2, 4],
                             SolveOptions(1e-12, 100))
        assert tr.status == "Converged"
        for z in tr.zs:
            assert z[1] == pytest.approx(z[0] ** 2, abs=1e-9)

    @pytest.mark.parametrize("x", [[1.0, 2.0], [np.nan]], ids=["length", "nan"])
    def test_contains_checks_the_point(self, x):
        # the projector checks its chart coordinates before testing them against the box
        with pytest.raises(DimensionMismatch):
            ChartApproximateProjector(PARABOLA_CHART, x)

    def test_start_must_match_coords(self):
        proj = ChartApproximateProjector(PARABOLA_CHART, [2])
        with pytest.raises(ValueError):
            proj.start([3, 9])

    @pytest.mark.parametrize("z0", [[float("nan")] * 2, [2, float("nan")], [float("inf"), 4]])
    def test_start_rejects_non_finite(self, z0):
        # a NaN distance to F(coords) is no match either
        proj = ChartApproximateProjector(PARABOLA_CHART, [2])
        with pytest.raises(ValueError, match="does not match"):
            proj.start(np.array(z0))

    def test_start_at_large_scale_uses_the_on_set_bound(self):
        # F(x) = (x, 3e8 x + 7e8 x^2 + 2e8 x^3): summed in reverse, F(1.1) moves by 2.4e-7, farther than
        # ON_SET_TOL but within ON_SET_TOL (1 + |z0|); twice that bound away is still no match
        F = PolyMap(1, [[Monomial(1, (1,))], [Monomial(3e8, (1,)), Monomial(7e8, (2,)), Monomial(2e8, (3,))]])
        proj = ChartApproximateProjector(ManifoldChart(F, [-10], [10]), [1.1])
        z0 = np.array([1.1, 2e8 * 1.1**3 + 7e8 * 1.1**2 + 3e8 * 1.1])
        assert ON_SET_TOL < np.linalg.norm(z0 - F.eval([1.1])) < 1e-6
        assert np.array_equal(proj.start(z0), z0)
        with pytest.raises(ValueError, match="does not match"):
            proj.start(z0 + [0.0, 2 * ON_SET_TOL * (1 + np.linalg.norm(z0))])

    def test_start_refuses_every_z0_at_an_overflowed_point(self):
        # F(1e10) = (inf, 1e10): a bound taken at that point would be infinite and accept this z0
        F = PolyMap(1, [[Monomial(1, (200,))], [Monomial(1, (1,))]])
        with np.errstate(over="ignore"):
            proj = ChartApproximateProjector(ManifoldChart(F, [-1e11], [1e11]), [1e10])
        with pytest.raises(ValueError, match="does not match"):
            proj.start(np.array([1.0, 1e10]))

    @pytest.mark.parametrize("Q, z0", [(Hyperplane([0, 1, 0], 1.0), [2, 4, 0]), (Hyperplane([1.0], 1.0), [2])],
                             ids=["wider", "narrower"])
    def test_run_rejects_q_of_another_dimension(self, Q, z0):
        # the parabola maps into R^2; the error names both dimensions
        proj = ChartApproximateProjector(PARABOLA_CHART, [2])
        with pytest.raises(DimensionMismatch, match=rf"shape \({len(z0)},\), the chart maps into R\^2$"):
            run_approximate(proj, Q, z0)


def assert_chart_run_is_gauss_newton(chart_trace, gn_trace, F):
    """The chart run is the Gauss-Newton run read in Y-space, bit for bit.

    A chart run that ends in LeftChart is the Gauss-Newton run up to the
    row whose step leaves the box; the Gauss-Newton run goes on from there.
    """
    k = len(chart_trace.zs)
    if chart_trace.status == "LeftChart":
        assert len(gn_trace.zs) > k
    else:
        assert chart_trace.status == gn_trace.status
        assert len(gn_trace.zs) == k
    assert np.array_equal(chart_trace.gaps, gn_trace.gaps[:k])
    assert np.array_equal(chart_trace.dist_q, gn_trace.dist_q[:k])
    for z, x, y, y_gn in zip(chart_trace.zs, gn_trace.zs, chart_trace.xs, gn_trace.xs):
        assert np.array_equal(z, F.eval(x))
        assert np.array_equal(y, y_gn)


def quadratic_map(rng, m, n):
    """m outputs a.x + sum_i q_i x_i^2 with random a and small random q."""
    a = rng.standard_normal((m, n))
    q = 0.3 * rng.standard_normal((m, n))
    unit = np.eye(n, dtype=int)
    return PolyMap(n, [
        [Monomial(a[j, i], tuple(unit[i])) for i in range(n)]
        + [Monomial(q[j, i], tuple(2 * unit[i])) for i in range(n)]
        for j in range(m)
    ])


class TestChartSchemeIsGaussNewton:
    """The approximate scheme on a chart runs solve_inclusion's step."""

    def test_bundled_problem(self):
        prob = load_problem(bundled_problem_path("parabola_inclusion"))
        chart_trace = run_problem(prob, "approximate")
        assert chart_trace.status == "Converged"
        assert_chart_run_is_gauss_newton(chart_trace, run_problem(prob, "inclusion"), prob.payload.F)

    def test_paraboloid(self):
        p = InclusionProblem(PARABOLOID, Hyperplane([0, 0, 1], 1.0))
        opts = SolveOptions(1e-12, 100)
        proj = ChartApproximateProjector(ManifoldChart(PARABOLOID, [-10, -10], [10, 10]), [1.0, 0.5])
        chart_trace = run_approximate(proj, p.Q, proj.fx, opts)
        assert chart_trace.status == "Converged"
        assert_chart_run_is_gauss_newton(chart_trace, solve_inclusion(p, [1.0, 0.5], opts), PARABOLOID)

    @example(n=3, extra=0, seed=420263)
    @given(n=st.integers(1, 3), extra=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_random_quadratic_charts(self, n, extra, seed):
        rng = np.random.default_rng(seed)
        F = quadratic_map(rng, n + extra, n)
        x_star = rng.uniform(-1, 1, n)
        normal = rng.standard_normal(n + extra)
        p = InclusionProblem(F, Hyperplane(normal, normal @ F.eval(x_star)))
        x0 = x_star + 0.3 * rng.standard_normal(n)
        opts = SolveOptions(1e-10, 50)
        chart = ManifoldChart(F, np.full(n, -3.0), np.full(n, 3.0))
        assume(chart._contains(x0))
        proj = ChartApproximateProjector(chart, x0)
        chart_trace = run_approximate(proj, p.Q, proj.fx, opts)
        if chart_trace.status == "LeftChart":
            # the reference needs only the k + 1 rows read below; past the step that left the
            # box it may diverge until a norm overflows (to about 1e161 on the example above)
            opts = SolveOptions(opts.gap_tol, len(chart_trace.zs))
        gn_trace = solve_inclusion(p, x0, opts)
        assert_chart_run_is_gauss_newton(chart_trace, gn_trace, F)
        if chart_trace.status == "LeftChart":
            # the next Gauss-Newton iterate is the step that left the box
            assert not chart._contains(gn_trace.zs[len(chart_trace.zs)])

    def test_step_leaving_the_box_ends_with_status(self):
        # from t = 2.4 toward Q = {y1 = 0}, the third step lands below U_lower = 0.5
        prob = load_problem(bundled_problem_path("parabola_inclusion"))
        p = InclusionProblem(prob.payload.F, Hyperplane([0, 1], 0.0))
        chart = ManifoldChart(p.F, [0.5], [2.5])
        proj = ChartApproximateProjector(chart, [2.4])
        chart_trace = run_approximate(proj, p.Q, proj.fx, prob.options)
        assert chart_trace.status == "LeftChart"
        gn_trace = solve_inclusion(p, [2.4], prob.options)
        assert_chart_run_is_gauss_newton(chart_trace, gn_trace, p.F)
        assert not chart._contains(gn_trace.zs[len(chart_trace.zs)])

    def test_rank_deficient_jacobian_ends_with_status(self):
        # Q = {y0 = 1} from t = 0, where grad F = 0
        p = InclusionProblem(CUSP, Hyperplane([1, 0], 1.0))
        proj = ChartApproximateProjector(ManifoldChart(CUSP, [-10], [10]), [0.0])
        chart_trace = run_approximate(proj, p.Q, proj.fx)
        assert chart_trace.status == "RankDeficient"
        assert chart_trace.iterations == 0
        assert_chart_run_is_gauss_newton(chart_trace, solve_inclusion(p, [0.0]), CUSP)


class TestVerifyFaithfulness:
    def test_ratios_vanish_along_normal_approach(self):
        # base points F(2^-k) approach F(0); queries approach along the
        # normal at the limit point
        ks = range(1, 13)
        base = [[2.0**-k] for k in ks]
        queries = [np.array([0.0, -(2.0**-k)]) for k in ks]
        exact = [chart_projection_oracle(PARABOLA_CHART, y) for y in queries]
        ratios = verify_faithfulness(PARABOLA_CHART, base, queries, exact)
        assert len(ratios) == len(base)
        assert ratios[-1] < 0.01
        assert ratios[-1] < ratios[0]

    def test_non_approaching_queries_rejected(self):
        base = [[2.0**-k] for k in range(1, 6)]
        queries = [np.array([0.0, -1.0])] * 5  # constant offset
        exact = [chart_projection_oracle(PARABOLA_CHART, y) for y in queries]
        with pytest.raises(ValueError):
            verify_faithfulness(PARABOLA_CHART, base, queries, exact)

    def test_unequal_lengths_rejected(self):
        base = [[0.5], [0.25]]
        with pytest.raises(DimensionMismatch, match="equal length"):
            verify_faithfulness(PARABOLA_CHART, base, [[0.5, 0.35]], [[0.5, 0.25]])

    def test_query_on_its_base_point_gives_zero(self):
        # the second query is F(0.25) itself: |y - z| = 0, a ratio of 0
        base = [[0.5], [0.25]]
        queries = [np.array([0.5, 0.35]), np.array([0.25, 0.0625])]
        exact = [chart_projection_oracle(PARABOLA_CHART, y) for y in queries]
        ratios = verify_faithfulness(PARABOLA_CHART, base, queries, exact)
        assert len(ratios) == 2 and 0 < ratios[0] and ratios[1] == 0.0

    def test_pairs_below_the_angle_floor_are_dropped(self):
        # the second pair's exact projection is given as its base point F(0.25),
        # so z - y and z_hat - y meet at angle 0
        base = [[0.5], [0.25]]
        queries = [np.array([0.5, 0.35]), np.array([0.25, 0.0725])]
        exact = [chart_projection_oracle(PARABOLA_CHART, queries[0]), [0.25, 0.0625]]
        kept = verify_faithfulness(PARABOLA_CHART, base, queries, exact)
        assert kept == verify_faithfulness(PARABOLA_CHART, base[:1], queries[:1], exact[:1])

    def test_every_pair_below_the_angle_floor_is_insufficient(self):
        base = [[0.5], [0.25]]
        queries = [np.array([0.5, 0.35]), np.array([0.25, 0.0725])]
        with pytest.raises(InsufficientData, match="every pair was filtered by the angle floor"):
            verify_faithfulness(PARABOLA_CHART, base, queries, [[0.5, 0.25], [0.25, 0.0625]])

    def test_gaps_that_do_not_shrink_raise(self):
        # queries 1e-15 off the base points: every gap is about 1e-15, so the last is not
        # below half the first, and the check refuses the sequence before it forms an angle
        base = [[0.5], [0.25], [0.125], [0.0625]]
        queries = [PARABOLA.eval(np.array(x)) + [0, 1e-15] for x in base]
        with pytest.raises(ValueError, match="does not approach the base points"):
            verify_faithfulness(PARABOLA_CHART, base, queries, queries)
