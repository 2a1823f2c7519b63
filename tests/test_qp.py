import itertools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from altproj import ProjectionQp, qp, solve_projection_qp
from altproj.errors import DimensionMismatch, Infeasible, MaxPivots
from altproj.qp import VIOL_RTOL

from oracles import verify_certificate

KEPT_INSTANCE = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "data", "maxpivots_10x30.json"
)


def enumeration_oracle(p: ProjectionQp):
    """Brute force: try every candidate active set, check KKT directly."""
    n_i = p.A_ineq.shape[0]
    best = None
    for k in range(n_i + 1):
        for subset in itertools.combinations(range(n_i), k):
            N = np.vstack([p.A_ineq[list(subset)], p.A_eq])
            c = np.concatenate([p.b_ineq[list(subset)], p.b_eq])
            if N.shape[0]:
                gram = N @ N.T
                if np.linalg.matrix_rank(gram, tol=1e-10) < N.shape[0]:
                    continue
                lam = np.linalg.solve(gram, N @ p.target - c)
                x = p.target - N.T @ lam
            else:
                lam = np.zeros(0)
                x = p.target.copy()
            if len(subset) and np.any(lam[: len(subset)] < -1e-9):
                continue
            if n_i and np.any(p.A_ineq @ x - p.b_ineq > 1e-8):
                continue
            if p.A_eq.shape[0] and np.any(np.abs(p.A_eq @ x - p.b_eq) > 1e-8):
                continue
            if best is None or np.linalg.norm(x - p.target) < np.linalg.norm(
                best - p.target
            ):
                best = x
    return best


def random_feasible_qp(rng, n=None, m=None):
    n = n or rng.integers(1, 6)
    m = m or rng.integers(0, 7)
    n_eq = rng.integers(0, min(2, n) + 1)
    x_feas = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    b = A @ x_feas + rng.uniform(0.0, 1.0, size=m)
    C = rng.standard_normal((n_eq, n))
    d = C @ x_feas
    target = rng.standard_normal(n) * 2
    return ProjectionQp(target, A, b, C, d)


class TestWorkingCoefficients:
    @given(r00=st.floats(allow_nan=False, allow_infinity=False).filter(bool),
           w=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4))
    def test_one_row_division_is_lapacks_solve(self, r00, w):
        # finite values of any size, subnormals included; a quotient may overflow to inf
        R, w = np.array([[r00]]), np.array(w)
        with np.errstate(over="ignore", under="ignore"):
            r = qp._working_coefficients(R, w, 1)
            assert r.tobytes() == np.linalg.solve(R, w[:1]).tobytes()


class TestExamples:
    def test_symmetric_halfspace(self):
        cert = solve_projection_qp(
            ProjectionQp([1, 1], [[1, 1]], [1], np.zeros((0, 2)), [])
        )
        np.testing.assert_allclose(cert.solution, [0.5, 0.5], atol=1e-10)
        np.testing.assert_allclose(cert.ineq_multipliers, [0.5], atol=1e-10)

    def test_coordinate_equality(self):
        cert = solve_projection_qp(
            ProjectionQp([2, 3], np.zeros((0, 2)), [], [[1, 0]], [0])
        )
        np.testing.assert_allclose(cert.solution, [0, 3], atol=1e-10)
        np.testing.assert_allclose(cert.eq_multipliers, [2], atol=1e-10)

    def test_box_corner_active_set(self):
        A = [[1, 0], [-1, 0], [0, 1], [0, -1]]
        b = [1, 0, 1, 0]
        p = ProjectionQp([2, -1], A, b, np.zeros((0, 2)), [])
        cert = solve_projection_qp(p)
        np.testing.assert_allclose(cert.solution, [1, 0], atol=1e-10)
        assert cert.active_set == [0, 3]
        np.testing.assert_allclose(cert.solution, enumeration_oracle(p), atol=1e-10)

    def test_infeasible_with_witness(self):
        # x <= 0 and x >= 1
        with pytest.raises(Infeasible) as exc:
            solve_projection_qp(
                ProjectionQp([0.0], [[1.0], [-1.0]], [0.0, -1.0], np.zeros((0, 1)), [])
            )
        y = exc.value.y_ineq
        assert y is not None and np.all(y >= -1e-12)
        # combination proves emptiness: sum of normals 0, rhs negative
        A = np.array([[1.0], [-1.0]])
        b = np.array([0.0, -1.0])
        np.testing.assert_allclose(A.T @ y, [0.0], atol=1e-9)
        assert b @ y < -1e-9

    def test_inconsistent_equalities(self):
        with pytest.raises(Infeasible):
            solve_projection_qp(
                ProjectionQp([0.0, 0.0], np.zeros((0, 2)), [],
                             [[1, 0], [1, 0]], [0.0, 1.0])
            )


class TestMinNormStep:
    """The minimal-norm point of a polyhedron is its projection of 0."""

    def test_affine_line(self):
        s = solve_projection_qp(
            ProjectionQp(np.zeros(3), np.zeros((0, 3)), [], np.array([[1.0, 0, 0]]), [1.0])
        ).solution
        np.testing.assert_allclose(s, [1, 0, 0], atol=1e-10)

    def test_linearized_circle(self):
        # 3 + 4 s_1 <= 0, closed form -G/|dG|^2 * dG
        s = solve_projection_qp(
            ProjectionQp(np.zeros(2), np.array([[4.0, 0.0]]), [-3.0], np.zeros((0, 2)), [])
        ).solution
        np.testing.assert_allclose(s, [-0.75, 0], atol=1e-10)

    def test_empty_blocks(self):
        s = solve_projection_qp(
            ProjectionQp(np.zeros(2), np.zeros((0, 2)), [], np.zeros((0, 2)), [])
        ).solution
        np.testing.assert_allclose(s, [0, 0])


class TestBlockShapes:
    """A block is [], shape (0, n), or 2-D with n columns; nothing is reshaped."""

    @pytest.mark.parametrize("A_eq, b_eq", [([], []), (np.zeros((0, 2)), np.zeros(0))],
                             ids=["list", "array"])
    def test_empty_block_accepted(self, A_eq, b_eq):
        p = ProjectionQp([1.0, 1.0], [], [], A_eq, b_eq)
        assert p.A_ineq.shape == p.A_eq.shape == (0, 2)

    @pytest.mark.parametrize(
        "A_ineq, b_ineq, A_eq, b_eq, message",
        [
            (np.ones((3, 4)), np.ones(6), [], [], "expected 2 cols, got 4"),
            ([1.0, 1.0], [1.0], [], [], r"expected a matrix, got shape \(2,\)"),
            ([], [], [[1.0, 0.0, 0.0, 0.0]], [0.0, 0.0], "expected 2 cols, got 4"),
            ([], [], np.zeros((0, 3)), [], "expected 2 cols, got 3"),
            ([[1.0, 0.0]], [[1.0]], [], [], r"expected a vector, got shape \(1, 1\)"),
        ],
        ids=["A_ineq-3x4", "A_ineq-vector", "A_eq-1x4", "A_eq-0x3", "b_ineq-column"],
    )
    def test_wrong_shape_rejected(self, A_ineq, b_ineq, A_eq, b_eq, message):
        with pytest.raises(DimensionMismatch, match=message):
            ProjectionQp(np.zeros(2), A_ineq, b_ineq, A_eq, b_eq)


class TestOracleAgreement:
    def test_random_qps_match_enumeration(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            p = random_feasible_qp(rng)
            cert = solve_projection_qp(p)
            assert verify_certificate(p, cert) <= 1e-8
            oracle = enumeration_oracle(p)
            assert oracle is not None
            np.testing.assert_allclose(cert.solution, oracle, atol=1e-8)

    def test_idempotence_on_polyhedron(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            p = random_feasible_qp(rng)
            x1 = solve_projection_qp(p).solution
            p2 = ProjectionQp(x1, p.A_ineq, p.b_ineq, p.A_eq, p.b_eq)
            x2 = solve_projection_qp(p2).solution
            np.testing.assert_allclose(x1, x2, atol=1e-8)

    def test_certificate_structure(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            p = random_feasible_qp(rng)
            cert = solve_projection_qp(p)
            w, s = cert.ineq_multipliers, cert.slacks
            assert np.all(w >= 0)
            assert np.all(s >= -1e-9)
            assert abs(w @ s) <= 1e-9 if w.size else True
            stat = cert.solution - p.target
            if p.A_ineq.shape[0]:
                stat = stat + p.A_ineq.T @ w
            if p.A_eq.shape[0]:
                stat = stat + p.A_eq.T @ cert.eq_multipliers
            assert np.linalg.norm(stat) <= 1e-9


@st.composite
def qp_draws(draw, infeasible=False, blocks="both"):
    """Random QPs with n <= 10, m <= 4n inequality rows and 0-2 equality rows.

    Slacks are zeroed on some rows (degenerate vertices) and one row may be
    a scaled copy of another.  With infeasible=True a last row is
    -(y . A[:k]) with y > 0 and a right-hand side below -(y . b[:k]), so
    the rows certify their own emptiness.  blocks="no inequality rows"
    draws 1-2 equality rows alone, and blocks="no equality rows" none.
    """
    n = draw(st.integers(1, 10))
    m = 0 if blocks == "no inequality rows" else draw(st.integers(1 if infeasible else 0, 4 * n))
    n_eq = 0 if blocks == "no equality rows" else draw(
        st.integers(1 if blocks == "no inequality rows" else 0, min(2, n)))
    degenerate, duplicate = draw(st.booleans()), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x_feas = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    slack = rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.3 if degenerate else 1.0)
    if duplicate and m >= 2:
        c = rng.uniform(0.5, 2.0)
        A[-1], slack[-1] = c * A[0], c * slack[0]
    b = A @ x_feas + slack
    C = rng.standard_normal((n_eq, n))
    if infeasible:
        k = int(rng.integers(1, min(m, n + 1) + 1))
        y = rng.uniform(0.1, 1.0, k)
        A = np.vstack([A, -(y @ A[:k])])
        b = np.append(b, -(y @ b[:k]) - rng.uniform(1e-3, 1.0))
    return ProjectionQp(rng.standard_normal(n) * 2, A, b, C, C @ x_feas)


def pivot_cap(p):
    return 100 * max(1, p.A_ineq.shape[0] + p.A_eq.shape[0])


class TestProperties:
    @given(p=qp_draws())
    def test_certificate_verifies_and_matches_oracle(self, p):
        cert = solve_projection_qp(p)
        assert verify_certificate(p, cert) <= 1e-8
        assert cert.pivots < pivot_cap(p)
        if p.A_ineq.shape[0] <= 8:
            np.testing.assert_allclose(cert.solution, enumeration_oracle(p), atol=1e-8)

    @given(p=qp_draws())
    def test_same_input_same_bits(self, p):
        a, b = solve_projection_qp(p), solve_projection_qp(p)
        for f in ("solution", "ineq_multipliers", "slacks", "eq_multipliers"):
            assert getattr(a, f).tobytes() == getattr(b, f).tobytes()
        assert (a.active_set, a.pivots) == (b.active_set, b.pivots)

    @given(p=qp_draws(infeasible=True))
    def test_infeasible_draws_give_farkas_witness(self, p):
        with pytest.raises(Infeasible) as exc:
            solve_projection_qp(p)
        y_ineq, y_eq = exc.value.y_ineq, exc.value.y_eq
        assert np.all(y_ineq >= 0)
        scale = np.abs(y_ineq).sum() + np.abs(y_eq).sum()
        assert np.linalg.norm(p.A_ineq.T @ y_ineq + p.A_eq.T @ y_eq) <= 1e-9 * scale
        assert p.b_ineq @ y_ineq + p.b_eq @ y_eq < 0


class TestEqualityWitness:
    @pytest.mark.parametrize("rhs", [1.0, -1.0])
    def test_inconsistent_equalities_witness(self, rhs):
        # x_0 = 0 and 2 x_0 = rhs: y_eq = +-(-2, 1) has A^T y = 0 and b^T y < 0
        C, d = np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([0.0, rhs])
        with pytest.raises(Infeasible) as exc:
            solve_projection_qp(ProjectionQp([3.0, 4.0], np.zeros((0, 2)), [], C, d))
        y_eq = exc.value.y_eq
        np.testing.assert_allclose(C.T @ y_eq, [0.0, 0.0], atol=1e-12)
        assert d @ y_eq < 0
        assert exc.value.y_ineq.shape == (0,)


class TestRoundingLevelRows:
    """Rows violated by less than FEAS_TOL but beyond rounding."""

    @pytest.mark.parametrize(
        "A_ineq, b_ineq, A_eq, b_eq",
        [
            # x_0 <= 0, then its copy scaled by -3, violated by 3e-12 at x_0 = 0
            ([[1.0, 0.0], [-3.0, 0.0]], [0.0, -3e-12], np.zeros((0, 2)), []),
            # x_0 = 0, then an inequality copy scaled by 2, violated by 2e-12
            ([[2.0, 0.0]], [-2e-12], [[1.0, 0.0]], [0.0]),
        ],
        ids=["inequality-copy", "equality-copy"],
    )
    def test_dependent_copy_within_feas_tol_is_met(self, A_ineq, b_ineq, A_eq, b_eq):
        # the copy enters, depends on the working row with nothing to drop,
        # and is met to FEAS_TOL: it is skipped, not a false Infeasible
        p = ProjectionQp([1.0, 1.0], A_ineq, b_ineq, A_eq, b_eq)
        cert = solve_projection_qp(p)
        np.testing.assert_allclose(cert.solution, [0.0, 1.0], atol=1e-11)
        assert verify_certificate(p, cert) <= 1e-9

    def test_redundant_equality_before_inequalities(self):
        # 2 x_0 = 0 repeats x_0 = 0; the inequality pass that follows must not trip on it
        p = ProjectionQp([1.0, 1.0], [[0.0, 1.0]], [0.5], [[1.0, 0.0], [2.0, 0.0]], [0.0, 0.0])
        cert = solve_projection_qp(p)
        np.testing.assert_allclose(cert.solution, [0.0, 0.5], atol=1e-12)
        assert verify_certificate(p, cert) <= 1e-9

    def test_row_violated_below_feas_tol_enters(self):
        # x_1 <= 1 - 1e-10 is violated by 1e-10 after x_0 <= 0 enters
        A, b = [[1.0, 0.0], [0.0, 1.0]], [0.0, 1.0 - 1e-10]
        p = ProjectionQp([1.0, 1.0], A, b, np.zeros((0, 2)), [])
        x = solve_projection_qp(p).solution
        scale = np.linalg.norm(p.A_ineq, axis=1) * np.linalg.norm(x) + np.abs(p.b_ineq)
        assert np.all(p.A_ineq @ x - p.b_ineq <= VIOL_RTOL * scale)


class TestMaxPivotsRegressions:
    """Feasible QPs on which the primal active-set loop hit its pivot cap."""

    def test_generator_draws_at_20x100(self):
        rng = np.random.default_rng(2024)
        for _ in range(8):
            p = random_feasible_qp(rng, 20, 100)
            cert = solve_projection_qp(p)
            assert verify_certificate(p, cert) <= 1e-8
            assert cert.pivots < pivot_cap(p)

    def test_kept_benchmark_instance(self):
        with open(KEPT_INSTANCE) as fh:
            d = json.load(fh)
        A = np.array(d["A"])
        p = ProjectionQp(d["z0"], A, d["b"], np.zeros((0, A.shape[1])), [])
        cert = solve_projection_qp(p)
        assert verify_certificate(p, cert) <= 1e-8
        assert cert.pivots < pivot_cap(p)


def stacked(p):
    """p's rows and right-hand sides as the solver core takes them."""
    return np.vstack([p.A_ineq, p.A_eq]), np.concatenate([p.b_ineq, p.b_eq]), p.A_ineq.shape[0]


@st.composite
def hinted_qps(draw):
    """(p, hint, kind, earlier): a QP, and a hint left by an earlier solve on its rows.

    p has both blocks of rows, or no inequality rows, or no equality rows.
    earlier is that solve's certificate.  Its target was
      right:    p's own;
      stale:    another random point;
      negative: the reflection 2x - p.target of p's target through x, its
                projection.  Its working rows are active at x, so each
                multiplier they have at p's target is the negative of the
                one at the earlier target.
    """
    p = draw(qp_draws(blocks=draw(st.sampled_from(["both", "no inequality rows", "no equality rows"]))))
    kind = draw(st.sampled_from(["right", "stale", "negative"]))
    rows, rhs, n_i = stacked(p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    earlier = {"right": p.target, "stale": rng.standard_normal(p.dim) * 2, "negative": p.target}[kind]
    hint = qp._Hint()
    cert = qp._solve(earlier, rows, rhs, n_i, hint)
    if kind == "negative":
        p = ProjectionQp(2 * cert.solution - p.target, p.A_ineq, p.b_ineq, p.A_eq, p.b_eq)
    return p, hint, kind, cert


class TestWarmStart:
    @given(case=hinted_qps())
    def test_warm_and_cold_agree(self, case):
        p, hint, _, _ = case
        rows, rhs, n_i = stacked(p)
        cold = qp._solve(p.target, rows, rhs, n_i)
        warm = qp._solve(p.target, rows, rhs, n_i, hint)
        assert verify_certificate(p, cold) <= 1e-8
        assert verify_certificate(p, warm) <= 1e-8
        scale = 1.0 + np.linalg.norm(p.target)
        assert np.max(np.abs(warm.solution - cold.solution), initial=0.0) <= 1e-12 * scale
        # the hint now holds this solve's working set
        assert sorted(int(j) for j in hint.work if j < n_i) == warm.active_set

    @given(case=hinted_qps())
    def test_hint_with_a_negative_multiplier_is_refused(self, case):
        p, hint, kind, earlier = case
        if kind == "negative" and np.any(earlier.ineq_multipliers > 1e-6):
            assert qp._warm_start(p.target, *stacked(p), hint) is None

    @given(case=hinted_qps())
    def test_fused_map_gives_the_point_optimal_for_the_working_rows(self, case):
        # y = [x; e; s]: x solves N x = b_W with x - z in the row space of N, e holds u
        # on W's equality rows, and s holds u on W's inequality rows and then b - A x on
        # the other inequality rows; the warm start returns x and y[u_at] = u
        p, hint, _, _ = case
        rows, rhs, n_i = stacked(p)
        warm = qp._warm_start(p.target, rows, rhs, n_i, hint)
        if warm is None:
            return
        W, n = hint.work, p.dim
        ineq = W < n_i
        q_i = int(ineq.sum())
        y = hint.T.dot(p.target) + hint.t
        x, e, s = np.split(y, [n, n + W.size - q_i])
        u = y[hint.u_at]
        assert s.shape == (n_i,) and e.shape == (W.size - q_i,)
        assert s[:q_i].tobytes() == u[ineq].tobytes() and e.tobytes() == u[~ineq].tobytes()
        assert warm[0].tobytes() == x.tobytes() and warm[1].tobytes() == u.tobytes()
        Q1 = hint.Q[:, :W.size]
        scale = 1.0 + np.linalg.norm(p.target) + np.linalg.norm(x)
        row_norms = np.linalg.norm(rows, axis=1)
        assert np.all(np.abs(rows[W] @ x - rhs[W]) <= 1e-13 * scale * row_norms[W])
        d = x - p.target
        assert np.linalg.norm(d - Q1 @ (Q1.T @ d)) <= 1e-13 * scale
        rest = np.setdiff1d(np.arange(n_i), W)
        slacks = s[q_i:]
        assert np.all(np.abs(slacks - (rhs[rest] - rows[rest] @ x)) <= 1e-13 * scale * row_norms[rest])

    def test_right_hint_needs_no_pivot(self):
        # the box corner again: both rows of the answer are the hint's working set
        p = ProjectionQp([2, -1], [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0], np.zeros((0, 2)), [])
        rows, rhs, n_i = stacked(p)
        hint = qp._Hint()
        assert qp._solve(p.target, rows, rhs, n_i, hint).pivots == 2
        cert = qp._solve(np.array([3.0, -2.0]), rows, rhs, n_i, hint)
        assert (cert.pivots, cert.active_set) == (0, [0, 3])
        np.testing.assert_array_equal(cert.solution, [1.0, 0.0])

    def test_hint_with_an_equality_row(self):
        # the hint holds x_0 = 1 alone; from there only x_1 <= 0 enters
        p = ProjectionQp([0.0, 2.0], [[0.0, 1.0]], [0.0], [[1.0, 0.0]], [1.0])
        rows, rhs, n_i = stacked(p)
        hint = qp._Hint()
        assert qp._solve(np.array([5.0, -1.0]), rows, rhs, n_i, hint).pivots == 1
        assert hint.work.tolist() == [1]
        cert = qp._solve(p.target, rows, rhs, n_i, hint)
        assert cert.pivots == 1
        assert hint.work.tolist() == [1, 0]
        np.testing.assert_allclose(cert.solution, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(cert.eq_multipliers, [-1.0], atol=1e-15)

    def test_nan_target_falls_back_to_cold_start(self):
        p = ProjectionQp([2, -1], [[1, 0], [0, -1]], [1, 0], np.zeros((0, 2)), [])
        rows, rhs, n_i = stacked(p)
        hint = qp._Hint()
        qp._solve(p.target, rows, rhs, n_i, hint)
        assert hint.work.size == 2
        assert qp._warm_start(np.array([np.nan, 0.0]), rows, rhs, n_i, hint) is None


MULTIPLIERS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, -5e-324, 1.7e308])
# an infinite slack sends the sign test to the per-row test, where a zero slack must still end the solve
SLACKS = st.sampled_from([0.0, -0.0, math.inf, 1.0, -1.0, math.nan]) | MULTIPLIERS


class TestSignTest:
    """The warm start's sign test on s refuses what the per-row test refuses, and ends the solve when no row enters.

    Refused: u not finite, or < 0 on an inequality row.  Done: not refused, and
    every slack of an inequality row outside W is >= 0.
    """

    @given(u=st.lists(MULTIPLIERS, min_size=1, max_size=6), slacks=st.lists(SLACKS, max_size=4), data=st.data())
    def test_refuses_what_the_per_row_test_refuses(self, u, slacks, data):
        u, slacks = np.array(u), np.array(slacks, dtype=float)
        q, k = u.size, slacks.size
        q_i = data.draw(st.integers(0, q))
        # q unit rows of R^q in work in a drawn order, the first q_i inequalities;
        # k more inequality rows outside work
        E = np.eye(q)
        rows = np.vstack([E[:q_i], np.ones((k, q)), E[q_i:]])
        n_i = q_i + k
        rhs = np.zeros(n_i + q - q_i)
        work = np.array(data.draw(st.permutations([*range(q_i), *range(n_i, n_i + q - q_i)])))
        hint = qp._Hint()
        hint.keep(work, np.eye(q), np.eye(q))
        qp._fuse(hint, rows, rhs, n_i)
        # the map gives u as multipliers and these slacks at every target: y = [x; e; s], the slacks last
        hint.T[hint.t.size - k:] = hint.T[hint.u_at] = 0.0
        hint.t[hint.t.size - k:], hint.t[hint.u_at] = slacks, u
        refused = not (np.isfinite(u).all() and (u[work < n_i] >= 0.0).all())
        warm = qp._warm_start(np.zeros(q), rows, rhs, n_i, hint)
        assert (warm is None) == refused
        if warm is not None:
            np.testing.assert_array_equal(warm[1], u)
            assert warm[2] == bool((slacks >= 0.0).all())


def held(hint):
    """The arrays a hint holds, each with a copy of its bits."""
    return [(a, a.tobytes()) for a in (hint.work, hint.Q, hint.R) if a is not None]


def unchanged(arrays):
    return all(a.tobytes() == bits for a, bits in arrays)


BOX = ProjectionQp([2, -1], [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0], np.zeros((0, 2)), [])


class TestHintArrays:
    """A solve reads a hint's arrays and never writes them: the loop pivots on copies."""

    @given(case=hinted_qps())
    def test_solve_leaves_the_arrays_it_was_given(self, case):
        p, hint, _, _ = case
        rows, rhs, n_i = stacked(p)
        warm = qp._warm_start(p.target, rows, rhs, n_i, hint) is not None
        before = held(hint)
        cert = qp._solve(p.target, rows, rhs, n_i, hint)
        assert unchanged(before)
        if warm and cert.pivots == 0:
            # returned before the loop: the hint keeps the very same arrays
            assert all(x is y for x, (y, _) in zip((hint.work, hint.Q, hint.R), before))

    def test_zero_pivot_solve_returns_before_the_loop(self, monkeypatch):
        rows, rhs, n_i = stacked(BOX)
        hint = qp._Hint()
        qp._solve(BOX.target, rows, rhs, n_i, hint)
        before = held(hint)
        monkeypatch.setattr(qp, "_add", None)   # the loop would fail at its first pivot
        monkeypatch.setattr(qp, "_drop", None)
        x, u, work, pivots = qp._nearest_point(np.array([3.0, -2.0]), rows, rhs, n_i, hint)
        assert (x.tolist(), u.tolist(), work.tolist(), pivots) == ([1.0, 0.0], [2.0, 2.0], [0, 3], 0)
        assert work is hint.work and all(a is b for (a, _), b in zip(before, (hint.work, hint.Q, hint.R)))
        assert unchanged(before)

    def test_infeasible_hinted_solve_leaves_the_hint(self):
        # the hint's rows x <= 1 and -y <= 0 with y >= 2 instead: a valid start at
        # (3, -5), from which y <= 1 enters, depends on -y <= -2 and proves the box empty
        rows, rhs, n_i = stacked(BOX)
        hint = qp._Hint()
        qp._solve(BOX.target, rows, rhs, n_i, hint)
        before = held(hint)
        empty = np.array([1.0, 0.0, 1.0, -2.0])
        assert qp._warm_start(np.array([3.0, -5.0]), rows, empty, n_i, hint) is not None
        with pytest.raises(Infeasible):
            qp._nearest_point(np.array([3.0, -5.0]), rows, empty, n_i, hint)
        assert unchanged(before) and hint.work is before[0][0]

    @pytest.mark.parametrize("error", [MaxPivots, Infeasible])
    def test_solve_raising_after_a_pivot_leaves_the_hint(self, error, monkeypatch):
        # a row entered and the loop's factors changed; then the solve raises
        rows, rhs, n_i = stacked(BOX)
        hint = qp._Hint()
        assert qp._solve(np.array([0.5, 2.0]), rows, rhs, n_i, hint).active_set == [2]
        before = held(hint)
        add = qp._add

        def add_then_raise(Q, R, *args):
            add(Q, R, *args)
            raise error("raised after the factors changed")

        monkeypatch.setattr(qp, "_add", add_then_raise)
        with pytest.raises(error):
            qp._nearest_point(np.array([2.0, 3.0]), rows, rhs, n_i, hint)
        assert unchanged(before) and hint.work is before[0][0]
