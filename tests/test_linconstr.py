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
    solve_constraint_system,
)
from altproj.errors import (
    DimensionMismatch,
    InsufficientData,
    LinearizationInfeasible,
)
from altproj.linconstr import _linearized_rows, geometric_path
from altproj.qp import ProjectionQp, solve_projection_qp

from oracles import constraint_violation

# a tenth of the profile's examples: 20 in the suite, 200 in the thorough profile
FEW = settings(max_examples=max(10, settings.default.max_examples // 10), deadline=None)

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


def scaled(block, s):
    """The PolyMap s * block, each coefficient multiplied by s."""
    return PolyMap(block.input_dim, [[Monomial(s * m.coeff, m.exponents) for m in row] for row in block.outputs])


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
            s = solve_projection_qp(
                ProjectionQp(np.zeros(2), J, -CIRCLE.eval(z), np.zeros((0, 2)), [])
            ).solution
            np.testing.assert_allclose(x, z + s, atol=1e-9)

    def test_satisfies_linearized_inequality(self):
        sys_ = circle_system()
        rng = np.random.default_rng(53)
        for _ in range(10):
            z = rng.standard_normal(2) * 2 + [2, 0]
            x, _ = linearized_projection(sys_, z)
            lin = CIRCLE.eval(z) + CIRCLE.jacobian(z) @ (x - z)
            assert np.max(lin) <= 1e-9

    @given(n=st.integers(1, 6), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_step_solves_linearization_in_row_space(self, n, data, seed):
        # k <= n random quadratic equalities: the step d = x_z - z is the
        # min-norm solution of a + J d = 0
        k = data.draw(st.integers(1, n))
        rng = np.random.default_rng(seed)
        H = quadratic_block(rng, k, n)
        sys_ = ConstraintSystem(PolyMap.empty(n), PolyMap.empty(n), H,
                                AffineSubspace(np.zeros(n), np.eye(n)), n)
        z = rng.standard_normal(n)
        d = linearized_projection(sys_, z)[0] - z
        a, J = H.eval(z), H.jacobian(z)
        scale = np.linalg.norm(a) + np.linalg.norm(J, 2) * np.linalg.norm(d)
        assert np.linalg.norm(a + J @ d) <= 1e-9 * scale
        # no component in Null(J): d = J^T w for some w
        w = np.linalg.lstsq(J.T, d, rcond=None)[0]
        assert np.linalg.norm(J.T @ w - d) <= 1e-9 * np.linalg.norm(d)

    def test_infeasible_linearization(self):
        # G = (x1, -x1 + 1): linearization x1 <= 0 and x1 >= 1 everywhere
        G = PolyMap(
            2,
            [[Monomial(1, (1, 0))], [Monomial(-1, (1, 0)), Monomial(1, (0, 0))]],
        )
        sys_ = ConstraintSystem(G, PolyMap.empty(2), PolyMap.empty(2), FULL_PLANE, 2)
        with pytest.raises(LinearizationInfeasible):
            linearized_projection(sys_, [0.5, 0.0])

    @pytest.mark.parametrize("run", [linearized_projection, solve_constraint_system],
                             ids=["linearized_projection", "solve_constraint_system"])
    def test_overflowing_linearization_raises(self, run):
        # x1^3 - 1 overflows at x1 = 1e200, so the linearized rows hold Inf
        G = PolyMap(2, [[Monomial(1, (3, 0)), Monomial(-1, (0, 0))]])
        sys_ = ConstraintSystem(G, PolyMap.empty(2), PolyMap.empty(2), FULL_PLANE, 2)
        with pytest.warns(RuntimeWarning, match="overflow|invalid value"):
            with pytest.raises(DimensionMismatch):
                run(sys_, [1e200, 0.0])


def random_block(rng, rows, n):
    """rows outputs of up to 4 random monomials each (possibly none), exponents up to 3."""
    return PolyMap(n, [
        [Monomial(rng.standard_normal() * 10.0 ** rng.integers(-3, 4), tuple(rng.integers(0, 4, n)))
         for _ in range(rng.integers(0, 5))]
        for _ in range(rows)
    ])


def per_block_rows(sys_, z):
    """The reference linearization: each block's own table, J z - v per block, stacked."""
    blocks = [m._linearize(z) for m in (sys_.G, sys_.P, sys_.H)]
    rows = np.vstack([J for _, J in blocks])
    rhs = np.concatenate([J @ z - v for v, J in blocks])
    values = np.concatenate([v for v, _ in blocks])
    return rows, rhs, sys_.G.output_dim + sys_.P.output_dim, values


class TestStackedLinearization:
    @given(n=st.integers(1, 6), sizes=st.tuples(*[st.integers(0, 3)] * 3), seed=st.integers(0, 2**32 - 1))
    def test_one_table_gives_the_per_block_bits(self, n, sizes, seed):
        # G, P and H, each possibly empty, linearized from one stacked table
        rng = np.random.default_rng(seed)
        G, P, H = (random_block(rng, rows, n) for rows in sizes)
        sys_ = ConstraintSystem(G, P, H, AffineSubspace(np.zeros(n), np.eye(n)), n)
        z = rng.standard_normal(n) * 10.0 ** rng.integers(-2, 3)
        rows, rhs, n_i, values = _linearized_rows(sys_, z)
        ref_rows, ref_rhs, ref_n_i, ref_values = per_block_rows(sys_, z)
        assert n_i == ref_n_i
        for got, ref in ((rows, ref_rows), (rhs, ref_rhs), (values, ref_values)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


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
        # the gradient (2, 0) is read as its unit row (1, 0), with sigma_min = 1
        rep = check_licq(circle_system(), [1, 0])
        assert rep.holds
        assert rep.smallest_singular_value == pytest.approx(1.0)

    def test_circle_scaled_by_1e_9_holds(self):
        # the gradient (2e-9, 0) has the same unit row: sigma_min = 1 again, as the test
        # does not depend on the size of the rows
        tiny = scaled(CIRCLE, 1e-9)
        rep = check_licq(ConstraintSystem(tiny, PolyMap.empty(2), PolyMap.empty(2), FULL_PLANE, 2), [1, 0])
        assert rep.holds
        assert rep.smallest_singular_value == pytest.approx(1.0)

    @pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_scaling_one_row_keeps_the_answer(self, c):
        # G_1 = x_0 and G_2 = c (x_0 + 1e-6 x_1), both active at the origin: independent at
        # every c, with the sigma_min of the unit rows; on the given rows c = 1e-6 and 1e6
        # read as dependent
        G = PolyMap(2, [[Monomial(1, (1, 0))], [Monomial(c, (1, 0)), Monomial(c * 1e-6, (0, 1))]])
        rep = check_licq(ConstraintSystem(G, PolyMap.empty(2), PolyMap.empty(2), FULL_PLANE, 2), [0, 0])
        assert rep.holds
        unit = np.array([[1.0, 0.0], [1.0, 1e-6]]) / [[1.0], [np.hypot(1.0, 1e-6)]]
        assert rep.smallest_singular_value == pytest.approx(np.linalg.svd(unit)[1][-1], rel=1e-6)

    def test_witness_serves_the_given_rows(self):
        # G_1 = x_0 and G_2 = 1e6 x_0 are dependent: the witness v has G_1' v_1 + G_2' v_2 = 0
        G = PolyMap(2, [[Monomial(1, (1, 0))], [Monomial(1e6, (1, 0))]])
        rep = check_licq(ConstraintSystem(G, PolyMap.empty(2), PolyMap.empty(2), FULL_PLANE, 2), [0, 0])
        assert not rep.holds
        assert np.linalg.norm(rep.witness) == pytest.approx(1.0, abs=1e-12)
        assert abs(rep.witness[0] + 1e6 * rep.witness[1]) <= 1e-9 * abs(rep.witness[0])

    @given(n=st.integers(2, 4), g=st.integers(0, 3), h=st.integers(0, 3), repeat=st.booleans(),
           origin=st.booleans(), exponent=st.floats(-12, 12), seed=st.integers(0, 2**32 - 1))
    def test_scaling_the_system_keeps_the_answer(self, n, g, h, repeat, origin, exponent, seed):
        # every block vanishes at x: exactly at the origin, to rounding (|G| ~ 1e-16) at a
        # random x, where a row stays active at any scale only by the scale-invariant rule
        # |G_i| <= ACTIVE_TOL |grad G_i|; repeat copies G's first row into H
        rng = np.random.default_rng(seed)
        x = np.zeros(n) if origin else rng.standard_normal(n)
        G, H = quadratic_block(rng, g, n, x), quadratic_block(rng, h, n, x)
        if repeat and g:
            H = PolyMap(n, H.outputs + G.outputs[:1])

        def holds(s):
            return check_licq(ConstraintSystem(scaled(G, s), PolyMap.empty(n), scaled(H, s),
                                               AffineSubspace(x, np.eye(n)), n), x).holds

        assert holds(10.0**exponent) == holds(1.0)

    @pytest.mark.parametrize("scale", [1.0, 1e12])
    def test_rows_active_to_rounding_stay_active_when_scaled(self, scale):
        # three rows in the plane that vanish at a random x up to rounding: LICQ fails at
        # any scale, also when |G| reads about 1e-4 after scaling by 1e12
        rng = np.random.default_rng(29)
        x = rng.standard_normal(2)
        G = scaled(quadratic_block(rng, 3, 2, x), scale)
        rep = check_licq(ConstraintSystem(G, PolyMap.empty(2), PolyMap.empty(2), FULL_PLANE, 2), x)
        assert not rep.holds

    def test_no_active_row_holds(self):
        # |x|^2 - 1 = 3 at (2, 0) is inactive, and there are no H rows
        rep = check_licq(circle_system(), [2, 0])
        assert rep.holds and rep.witness is None
        assert rep.smallest_singular_value == float("inf")

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

    def test_inequality_rows_of_p_are_left_out(self):
        # P = x1 is active at the origin, but only G and H rows enter the test
        x1 = PolyMap(2, [[Monomial(1, (1, 0))]])
        sys_ = ConstraintSystem(x1, x1, PolyMap.empty(2), FULL_PLANE, 2)
        rep = check_licq(sys_, [0, 0])
        assert rep.holds
        assert rep.smallest_singular_value == pytest.approx(1.0)

    def test_overflowing_p_block_raises(self):
        # every block is linearized, so an overflow in P raises as in G or H
        P = PolyMap(2, [[Monomial(1, (3, 0)), Monomial(-1, (0, 0))]])
        sys_ = ConstraintSystem(PolyMap.empty(2), P, PolyMap.empty(2), FULL_PLANE, 2)
        with pytest.warns(RuntimeWarning, match="overflow|invalid value"):
            with pytest.raises(DimensionMismatch):
                check_licq(sys_, [1e200, 0.0])

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
        sys_ = circle_system(DIAG_LINE)
        x = tr.zs[-1]
        assert max(constraint_violation(sys_, x), sys_.Q.distance(x)) <= opts.gap_tol * 10


def disc_parabola_line(s):
    """G: the unit disc, H: y = x^2 and Q: the line y = 0.25, with G and H scaled by s."""
    G = PolyMap(2, [[Monomial(s, (2, 0)), Monomial(s, (0, 2)), Monomial(-s, (0, 0))]])
    H = PolyMap(2, [[Monomial(s, (0, 1)), Monomial(-s, (2, 0))]])
    return ConstraintSystem(G, PolyMap.empty(2), H, AffineSubspace([0.0, 0.25], [[1.0, 0.0]]), 2)


class TestScaledConstraints:
    """Scaling every constraint leaves solve_constraint_system's answer as it is: each linearized row is made unit-length."""

    @pytest.mark.parametrize("exponent", range(-9, 13))
    def test_scales_from_1e_9_to_1e12_give_the_unscaled_answer(self, exponent):
        tr = solve_constraint_system(disc_parabola_line(10.0**exponent), [2.0, 2.0])
        assert tr.status == "Converged"
        np.testing.assert_allclose(tr.zs[-1], [0.5, 0.25], atol=1e-8)

    def test_at_1e_12_the_run_is_the_unscaled_run(self):
        # each linearized row is shorter than DEP_TOL here; made unit-length, it is the
        # unscaled row to rounding, so the run takes the unscaled run's steps
        scaled, unscaled = (solve_constraint_system(disc_parabola_line(s), [2.0, 2.0]) for s in (1e-12, 1.0))
        assert (scaled.status, len(scaled.zs)) == (unscaled.status, len(unscaled.zs)) == ("Converged", 34)
        np.testing.assert_allclose(scaled.zs, unscaled.zs, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(scaled.zs[-1], [0.5, 0.25], atol=1e-8)


@st.composite
def constraint_systems(draw):
    """(sys, x0): G and H vanishing at a point x_s, P = a block vanishing there minus 0.5, Q an affine set through x_s.

    n from 2 to 6; up to 2 rows in each block; Q of a random dimension from
    max(1, n - #G - #H) to n; x0 is x_s moved by 0.3 times a normal draw.
    """
    n, g, p, h = draw(st.integers(2, 6)), draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    k = draw(st.integers(max(1, n - g - h), n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.standard_normal(n)
    G, H = quadratic_block(rng, g, n, xs), quadratic_block(rng, h, n, xs)
    P = PolyMap(n, [list(row) + [Monomial(-0.5, (0,) * n)] for row in quadratic_block(rng, p, n, xs).outputs])
    Q = AffineSubspace(xs, np.linalg.qr(rng.standard_normal((n, k)))[0].T)
    return ConstraintSystem(G, P, H, Q, n), xs + 0.3 * rng.standard_normal(n)


class TestWarmLinearizedRuns:
    @FEW
    @given(case=constraint_systems())
    def test_shifted_points_are_the_cold_projections(self, case):
        # A run starts each linearized QP from the last working set; linearized_projection
        # starts cold.  Both end on the same working rows N to rounding, which cond(N)
        # amplifies, as the one-shot start is taken only when every row decision is clear
        # of the cold loop's entry bound.
        sys_, x0 = case
        trace = solve_constraint_system(sys_, x0, SolveOptions(gap_tol=1e-10, max_iters=30))
        for z, shifted in zip(trace.zs, trace.xs):
            x, cert = linearized_projection(sys_, z)
            rows, _, n_i, _ = _linearized_rows(sys_, z)
            N = np.vstack([rows[cert.active_set], rows[n_i:]])
            kappa = np.linalg.cond(N) if N.size else 1.0
            assert np.max(np.abs(shifted - x), initial=0.0) <= 1e-14 * (1.0 + np.linalg.norm(z)) * kappa


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

    def test_empty_path_insufficient(self):
        # no point at all is not an exact linearization
        with pytest.raises(InsufficientData, match="only 0 path points"):
            measure_quadratic_decay(circle_system(), Ball([0, 0], 1.0), [])

    def test_inexact_projection_ratio_vanishes(self):
        # |Phi(z) - P_M(z)| / d_M(z) decreases along the approach path
        rep = measure_quadratic_decay(
            circle_system(), Ball([0, 0], 1.0), geometric_path([1, 0], [1, 0], range(1, 11))
        )
        ratios = rep.errors / rep.distances
        assert np.all(np.diff(ratios[-5:]) < 0)
