import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altproj import (
    AffineSubspace,
    Ball,
    ConstraintSystem,
    Monomial,
    PolyMap,
    SolveOptions,
    check_licq,
    linearized_projection,
    measure_quadratic_decay,
    newton_feasibility_step,
    solve_constraint_system,
)
from altproj.errors import InsufficientData, LinearizationInfeasible, RankDeficient
from altproj.linconstr import geometric_path
from altproj.qp import min_norm_step

CIRCLE = PolyMap(2, [[Monomial(1, (2, 0)), Monomial(1, (0, 2)), Monomial(-1, (0, 0))]])
FULL_PLANE = AffineSubspace([0, 0], [[1, 0], [0, 1]])
DIAG_LINE = AffineSubspace([0, 0], [[2**-0.5, 2**-0.5]])


def circle_system(Q=FULL_PLANE):
    return ConstraintSystem(CIRCLE, PolyMap.empty(2), PolyMap.empty(2), Q, 2)


def quadratic_block(rng, rows, n, x0=None):
    """rows outputs c + a.x + sum_i q_i x_i^2 with random a, q; zero at x0 if given."""
    a = rng.standard_normal((rows, n))
    q = rng.standard_normal((rows, n))
    c = np.zeros(rows) if x0 is None else -(a @ x0 + q @ x0**2)
    unit = np.eye(n, dtype=int)
    return PolyMap(n, [
        [Monomial(c[j], (0,) * n)]
        + [Monomial(a[j, i], tuple(unit[i])) for i in range(n)]
        + [Monomial(q[j, i], tuple(2 * unit[i])) for i in range(n)]
        for j in range(rows)
    ])


def affine_eq_system():
    # H(x) = x1 - x2
    H = PolyMap(2, [[Monomial(1, (1, 0)), Monomial(-1, (0, 1))]])
    return ConstraintSystem(PolyMap.empty(2), PolyMap.empty(2), H, FULL_PLANE, 2)


class TestLinearizedProjection:
    def test_circle_closed_form(self):
        x, cert = linearized_projection(circle_system(), [2, 0])
        np.testing.assert_allclose(x, [1.25, 0], atol=1e-10)

    def test_boundary_point_fixed(self):
        x, _ = linearized_projection(circle_system(), [1, 0])
        np.testing.assert_allclose(x, [1, 0], atol=1e-10)

    def test_affine_equality_exact(self):
        x, _ = linearized_projection(affine_eq_system(), [1, 0])
        np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-10)

    def test_equivalent_to_min_norm_step(self):
        sys_ = circle_system()
        rng = np.random.default_rng(47)
        for _ in range(20):
            z = rng.standard_normal(2) * 2
            x, _ = linearized_projection(sys_, z)
            J = CIRCLE.jacobian(z)
            s = min_norm_step(J, -CIRCLE.eval(z), np.zeros((0, 2)), [])
            np.testing.assert_allclose(x, z + s, atol=1e-9)

    def test_infeasible_linearization(self):
        # G = (x1, -x1 + 1): linearization x1 <= 0 and x1 >= 1 everywhere
        G = PolyMap(
            2,
            [[Monomial(1, (1, 0))], [Monomial(-1, (1, 0)), Monomial(1, (0, 0))]],
        )
        sys_ = ConstraintSystem(G, PolyMap.empty(2), PolyMap.empty(2), FULL_PLANE, 2)
        with pytest.raises(LinearizationInfeasible):
            linearized_projection(sys_, [0.5, 0.0])


class TestNewtonStep:
    def test_circle_closed_form(self):
        x = newton_feasibility_step(circle_system(), [2, 0])
        np.testing.assert_allclose(x, [1.25, 0], atol=1e-10)  # 2 - 3*4/16

    def test_feasible_point_unchanged(self):
        x = newton_feasibility_step(circle_system(), [1, 0])
        np.testing.assert_allclose(x, [1, 0], atol=1e-12)

    def test_affine_exact_projection(self):
        sys_ = affine_eq_system()
        x = newton_feasibility_step(sys_, [1, 0])
        np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-12)

    def test_satisfies_linearized_equalities(self):
        sys_ = circle_system()
        rng = np.random.default_rng(53)
        for _ in range(10):
            z = rng.standard_normal(2) * 2 + [2, 0]
            x = newton_feasibility_step(sys_, z)
            lin = CIRCLE.eval(z) + CIRCLE.jacobian(z) @ (x - z)
            assert np.max(np.abs(lin)) <= 1e-9

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            newton_feasibility_step(circle_system(), [0, 0])  # zero gradient

    def test_upper_bounds_projection_step(self):
        # equality-only system: the Newton point is QP-feasible, so
        # |x_z - z| <= |newton - z|
        H = PolyMap(2, [[Monomial(1, (2, 0)), Monomial(-1, (0, 1))]])  # y = x^2
        sys_ = ConstraintSystem(PolyMap.empty(2), PolyMap.empty(2), H, FULL_PLANE, 2)
        rng = np.random.default_rng(59)
        for _ in range(10):
            z = rng.standard_normal(2)
            if abs(CIRCLE.eval(z)[0]) < 1e-6:
                continue
            try:
                nx = newton_feasibility_step(sys_, z)
            except RankDeficient:
                continue
            x, _ = linearized_projection(sys_, z)
            assert np.linalg.norm(x - z) <= np.linalg.norm(nx - z) + 1e-10

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 6), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_step_solves_linearization_in_row_space(self, n, data, seed):
        k = data.draw(st.integers(1, n))
        g = data.draw(st.integers(0, k))
        rng = np.random.default_rng(seed)
        G, H = quadratic_block(rng, g, n), quadratic_block(rng, k - g, n)
        sys_ = ConstraintSystem(G, PolyMap.empty(n), H, AffineSubspace(np.zeros(n), np.eye(n)), n)
        z = rng.standard_normal(n)
        d = newton_feasibility_step(sys_, z) - z
        a = np.concatenate([G.eval(z), H.eval(z)])
        J = np.vstack([G.jacobian(z), H.jacobian(z)])
        scale = np.linalg.norm(a) + np.linalg.norm(J, 2) * np.linalg.norm(d)
        assert np.linalg.norm(a + J @ d) <= 1e-9 * scale
        # no component in Null(J): d = J^T w for some w
        w = np.linalg.lstsq(J.T, d, rcond=None)[0]
        assert np.linalg.norm(J.T @ w - d) <= 1e-9 * np.linalg.norm(d)


class TestLicq:
    @settings(max_examples=100, deadline=None)
    @given(h=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_three_active_rows_in_the_plane_give_a_null_witness(self, h, seed):
        # h of the three rows are equalities, the rest inequalities active at x
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2)
        G, H = quadratic_block(rng, 3 - h, 2, x), quadratic_block(rng, h, 2, x)
        rep = check_licq(ConstraintSystem(G, PolyMap.empty(2), H, FULL_PLANE, 2), x)
        K = np.vstack([G.jacobian(x), H.jacobian(x)])
        assert not rep.holds
        assert np.linalg.norm(rep.witness) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(K.T @ rep.witness) <= 1e-9 * np.linalg.norm(K)

    def test_circle_boundary_holds(self):
        rep = check_licq(circle_system(), [1, 0])
        assert rep.holds
        assert rep.smallest_singular_value == pytest.approx(2.0)

    def test_duplicated_rows_fail(self):
        g = [Monomial(1, (2, 0)), Monomial(1, (0, 2)), Monomial(-1, (0, 0))]
        G = PolyMap(2, [list(g), list(g)])
        sys_ = ConstraintSystem(G, PolyMap.empty(2), PolyMap.empty(2), FULL_PLANE, 2)
        rep = check_licq(sys_, [1, 0])
        assert not rep.holds
        w = rep.witness / np.max(np.abs(rep.witness))
        np.testing.assert_allclose(sorted(w), [-1, 1], atol=1e-9)

    def test_zero_gradient_fails(self):
        G = PolyMap(2, [[Monomial(1, (2, 0))]])  # x1^2, gradient 0 at origin
        sys_ = ConstraintSystem(G, PolyMap.empty(2), PolyMap.empty(2), FULL_PLANE, 2)
        assert not check_licq(sys_, [0, 0]).holds

    def test_row_permutation_invariant(self):
        g1 = [Monomial(1, (1, 0))]
        g2 = [Monomial(1, (0, 1))]
        a = ConstraintSystem(
            PolyMap(2, [g1, g2]), PolyMap.empty(2), PolyMap.empty(2), FULL_PLANE, 2
        )
        b = ConstraintSystem(
            PolyMap(2, [g2, g1]), PolyMap.empty(2), PolyMap.empty(2), FULL_PLANE, 2
        )
        ra = check_licq(a, [0, 0])
        rb = check_licq(b, [0, 0])
        assert ra.holds == rb.holds
        assert ra.smallest_singular_value == pytest.approx(rb.smallest_singular_value)


class TestSolveConstraintSystem:
    def test_circle_with_diagonal_line(self):
        # numerical oracle iterating the two closed-form steps
        def oracle(x0, iters):
            x = np.array(x0, dtype=float)
            for _ in range(iters):
                g = x @ x - 1.0
                grad = 2 * x
                s = -g / (grad @ grad) * grad if g > 0 else np.zeros(2)
                mid = x + s
                t = (mid[0] + mid[1]) / 2
                x = np.array([t, t])
            return x

        tr = solve_constraint_system(circle_system(DIAG_LINE), [2, 2],
                                     SolveOptions(1e-12, 200))
        assert tr.status == "Converged"
        target = np.array([2**-0.5, 2**-0.5])
        np.testing.assert_allclose(tr.zs[-1], target, atol=1e-8)
        np.testing.assert_allclose(oracle([2, 2], 60), target, atol=1e-10)

    def test_affine_converges_in_one_iteration(self):
        tr = solve_constraint_system(affine_eq_system(), [1, 0])
        assert tr.status == "Converged"
        assert tr.iterations <= 1
        np.testing.assert_allclose(tr.zs[-1], [0.5, 0.5], atol=1e-10)

    def test_feasible_start_zero_iterations(self):
        tr = solve_constraint_system(circle_system(DIAG_LINE),
                                     [0.5 * 2**-0.5, 0.5 * 2**-0.5])
        assert tr.status == "Converged"
        assert tr.iterations == 0

    def test_converged_iterate_feasible(self):
        opts = SolveOptions(gap_tol=1e-10, max_iters=200)
        tr = solve_constraint_system(circle_system(DIAG_LINE), [2, 2], opts)
        from altproj.linconstr import constraint_violation

        sys_ = circle_system(DIAG_LINE)
        x = tr.zs[-1]
        assert max(constraint_violation(sys_, x), sys_.Q.distance(x)) <= opts.gap_tol * 10


class TestQuadraticDecay:
    def test_circle_slope_and_constant(self):
        rep = measure_quadratic_decay(
            circle_system(), Ball([0, 0], 1.0), geometric_path([1, 0], [1, 0], range(1, 11))
        )
        assert rep.slope == pytest.approx(2.0, abs=0.05)
        assert rep.constant == pytest.approx(0.5, abs=0.01)

    def test_affine_exact_linearization(self):
        rep = measure_quadratic_decay(
            affine_eq_system(),
            AffineSubspace([0, 0], [[2**-0.5, 2**-0.5]]),
            geometric_path([0, 0], [1, -1], range(1, 8)),
        )
        assert rep.exact_linearization

    def test_feasible_path_reports_exact(self):
        # constraint inactive along the whole path, so the linearized
        # projection is the identity and every error is zero
        rep = measure_quadratic_decay(
            circle_system(),
            Ball([0, 0], 1.0),
            geometric_path([0.5, 0], [0.1, 0], range(1, 8)),  # stays inside
        )
        assert rep.exact_linearization

    def test_short_path_insufficient(self):
        with pytest.raises(InsufficientData):
            measure_quadratic_decay(
                circle_system(),
                Ball([0, 0], 1.0),
                geometric_path([1, 0], [1, 0], range(1, 4)),
            )

    def test_inexact_projection_ratio_vanishes(self):
        # |Phi(z) - P_M(z)| / d_M(z) decreases along the approach path
        rep = measure_quadratic_decay(
            circle_system(), Ball([0, 0], 1.0), geometric_path([1, 0], [1, 0], range(1, 11))
        )
        ratios = rep.errors / rep.distances
        assert np.all(np.diff(ratios[-5:]) < 0)
