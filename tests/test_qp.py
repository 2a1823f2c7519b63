import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from altproj import ProjectionQp, min_norm_step, solve_projection_qp
from altproj.errors import Infeasible
from altproj.qp import verify_certificate

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
    def test_affine_line(self):
        s = min_norm_step(np.zeros((0, 3)), [], np.array([[1.0, 0, 0]]), [1.0])
        np.testing.assert_allclose(s, [1, 0, 0], atol=1e-10)

    def test_linearized_circle(self):
        # 3 + 4 s_1 <= 0, closed form -G/|dG|^2 * dG
        s = min_norm_step(np.array([[4.0, 0.0]]), [-3.0], np.zeros((0, 2)), [])
        np.testing.assert_allclose(s, [-0.75, 0], atol=1e-10)

    def test_empty_blocks(self):
        s = min_norm_step(np.zeros((0, 2)), [], np.zeros((0, 2)), [])
        np.testing.assert_allclose(s, [0, 0])

    def test_matches_projection_with_zero_target(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = random_feasible_qp(rng)
            s = min_norm_step(p.A_ineq, p.b_ineq, p.A_eq, p.b_eq)
            cert = solve_projection_qp(
                ProjectionQp(np.zeros(p.dim), p.A_ineq, p.b_ineq, p.A_eq, p.b_eq)
            )
            np.testing.assert_allclose(s, cert.solution, atol=1e-10)


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
def qp_draws(draw, infeasible=False):
    """Random QPs with n <= 10, m <= 4n inequality rows and 0-2 equality rows.

    Slacks are zeroed on some rows (degenerate vertices) and one row may be
    a scaled copy of another.  With infeasible=True a last row is
    -(y . A[:k]) with y > 0 and a right-hand side below -(y . b[:k]), so
    the rows certify their own emptiness.
    """
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1 if infeasible else 0, 4 * n))
    n_eq = draw(st.integers(0, min(2, n)))
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
