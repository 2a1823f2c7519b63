import itertools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from altproj import Polyhedron, qp
from altproj.errors import DimensionMismatch, Infeasible, MaxPivots
from altproj.qp import FEAS_TOL, VIOL_RTOL, ProjectionQp, solve_projection_qp

from oracles import entering_reference, fuse_reference, verify_certificate

# a tenth of the profile's examples, for properties added after the suite outgrew its time budget
FEW = settings(max_examples=max(10, settings.default.max_examples // 10), deadline=None)

KEPT_INSTANCE = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "data", "maxpivots_10x30.json"
)
SCALE_EXAMPLES = os.path.join(os.path.dirname(__file__), "data", "qp_scale_examples.json")


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

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e8, 1e12])
    @pytest.mark.parametrize("m", [0, 2], ids=["no-inequalities", "inequalities"])
    def test_redundant_equality_copy_at_scale(self, scale, m):
        # a.x = a.c and its copy scaled by w, for a point c of size scale: a.x - b of the
        # unit copy carries rounding of about eps (|x| + |b|), beyond FEAS_TOL at 1e8, so
        # the polyhedron is built and projects, cold or in a run's warm starts, only
        # with the relative bound
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, c, w = rng.standard_normal(3), rng.standard_normal(3) * scale, rng.standard_normal()
            G = rng.standard_normal((m, 3))
            P = Polyhedron(G, G @ c + rng.uniform(0.0, scale, m), [a, w * a], [a @ c, w * (a @ c)], dim=3)
            run = P._run_projection()
            for z in rng.standard_normal((3, 3)) * scale:
                for x in (P.project(z), run(z)):
                    # P's rows are unit-length: the bounds are on their residuals
                    rounding = VIOL_RTOL * (np.linalg.norm(x) + np.linalg.norm(z) + np.abs(P._rhs))
                    residual = P._rows @ x - P._rhs
                    assert np.all(np.abs(residual[m:]) <= rounding[m:])
                    assert np.all(residual[:m] <= np.maximum(FEAS_TOL, rounding[:m]))


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


@st.composite
def stress_draws(draw):
    """(p, targets): a QP of qp_draws and three targets to project onto it in turn, p.target first."""
    p = draw(qp_draws())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return p, [p.target, *rng.standard_normal((2, p.target.size)) * 2]


def stress_example(name):
    """A case of stress_draws stored bit for bit: feasible, but refused as empty or cycling at scale 1e8.

    The first two by an absolute entry test, the third by a redundancy
    bound that leaves out the rounding the working rows carry into a
    dependent row.
    """
    with open(SCALE_EXAMPLES) as fh:
        d = json.load(fh)[name]
    n = len(d["targets"][0])
    A, C = (np.array(d[k], dtype=float).reshape(-1, n) for k in ("A_ineq", "A_eq"))
    targets = [np.array(t) for t in d["targets"]]
    return ProjectionQp(targets[0], A, d["b_ineq"], C, d["b_eq"]), targets


def descaled(cert, scale):
    """The certificate of a QP whose right-hand sides and target were multiplied by scale, for the QP before."""
    return qp.KktCertificate(cert.solution / scale, cert.ineq_multipliers / scale, cert.slacks / scale,
                             cert.eq_multipliers / scale)


class TestScaleStress:
    """No feasible QP ends in Infeasible or MaxPivots at any scale, and every certificate verifies relative to it.

    A working row's slack is its rounding, which the certificate clamps to 0
    at any scale: at 1e8 half the certificates had one below 0 under an
    absolute clamp.
    """

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e8, 1e12])
    @FEW
    @given(case=stress_draws())
    @example(case=stress_example("cold MaxPivots at 1e8"))
    @example(case=stress_example("cold Infeasible at 1e8"))
    @example(case=stress_example("cold Infeasible at 1e8 without the working rows' rounding"))
    def test_scaled_polyhedron_builds_and_projects(self, scale, case):
        # b, b_eq and the targets times scale: construction, a cold solve of each target, and
        # the warm solves of one run, whose points have the bits of solves with one hint
        p, targets = case
        P = Polyhedron(p.A_ineq, p.b_ineq * scale, p.A_eq, p.b_eq * scale, dim=p.target.size)
        rows, rhs, n_i = stacked(p)
        rhs = rhs * scale
        run, hint = P._run_projection(), qp._Hint()
        for z in targets:
            cold = qp._solve(z * scale, rows, rhs, n_i)
            warm = qp._solve(z * scale, rows, rhs, n_i, hint)
            assert P.project(z * scale).tobytes() == cold.solution.tobytes()
            assert run(z * scale).tobytes() == warm.solution.tobytes()
            for cert in (cold, warm):
                assert verify_certificate(ProjectionQp(z, p.A_ineq, p.b_ineq, p.A_eq, p.b_eq),
                                          descaled(cert, scale)) <= 1e-8
                assert (cert.slacks[cert.active_set] >= 0.0).all()


@st.composite
def row_scaled_draws(draw):
    """(p, targets, u): a case of stress_draws and an exponent u in [-1, 1] for each of p's rows, inequality rows first."""
    p, targets = draw(stress_draws())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return p, targets, rng.uniform(-1.0, 1.0, p.A_ineq.shape[0] + p.A_eq.shape[0])


def row_scaled(p, c):
    """p with each row and its right-hand side times c, inequality rows first."""
    c_i, c_e = c[:p.A_ineq.shape[0]], c[p.A_ineq.shape[0]:]
    return ProjectionQp(p.target, p.A_ineq * c_i[:, None], p.b_ineq * c_i, p.A_eq * c_e[:, None], p.b_eq * c_e)


def row_relative_error(p, cert):
    """The largest violation of cert's KKT conditions on p, each row's terms divided by the row's norm.

    Stationarity, which no row scale changes, is checked on p's rows as they
    are; the other conditions on p's rows at unit length, with the
    multipliers times the norms and the slacks over them.
    """
    c_i, c_e = np.linalg.norm(p.A_ineq, axis=1), np.linalg.norm(p.A_eq, axis=1)
    stat = cert.solution - p.target + p.A_ineq.T @ cert.ineq_multipliers + p.A_eq.T @ cert.eq_multipliers
    unit_cert = qp.KktCertificate(cert.solution, cert.ineq_multipliers * c_i, cert.slacks / c_i,
                                  cert.eq_multipliers * c_e)
    return max(float(np.linalg.norm(stat)), verify_certificate(row_scaled(p, 1.0 / np.append(c_i, c_e)), unit_cert))


class TestRowScaleStress:
    """Scaling each row and its right-hand side by 10^(E u), u in [-1, 1], changes neither the projection nor its certificate.

    Before the rows were made unit-length, E = 6 gave 154 wrong projections
    in 6,000, all silent, 7 Infeasible and 177 certificates failing
    stationarity: an absolute DUAL_TOL let a working row of large scale go
    negative instead of blocking a step.
    """

    @pytest.mark.parametrize("E", [2, 4, 6, 8])
    @FEW
    @given(case=row_scaled_draws())
    def test_scaled_rows_give_the_unscaled_projection(self, E, case):
        # construction, a cold solve of each target, and the warm solves of one run, whose
        # points have the bits of solves with one hint, each against the unscaled solve
        p, targets, u = case
        s = row_scaled(p, 10.0 ** (E * u))
        P = Polyhedron(s.A_ineq, s.b_ineq, s.A_eq, s.b_eq, dim=p.target.size)
        rows, rhs, n_i = stacked(s)
        run, hint = P._run_projection(), qp._Hint()
        for z in targets:
            x = solve_projection_qp(ProjectionQp(z, p.A_ineq, p.b_ineq, p.A_eq, p.b_eq)).solution
            cold = qp._solve(z, rows, rhs, n_i)
            warm = qp._solve(z, rows, rhs, n_i, hint)
            assert P.project(z).tobytes() == cold.solution.tobytes()
            assert run(z).tobytes() == warm.solution.tobytes()
            for cert in (cold, warm):
                assert np.max(np.abs(cert.solution - x)) <= 1e-8 * (1.0 + np.linalg.norm(x))
                assert row_relative_error(ProjectionQp(z, s.A_ineq, s.b_ineq, s.A_eq, s.b_eq), cert) \
                    <= 1e-8 * (1.0 + np.linalg.norm(z))

    # a.a overflows to inf, or underflows below the smallest normal double (1e-340 to 0):
    # sqrt(a.a) would drop the row, and P(5, 0) would be (5, 0)
    @pytest.mark.parametrize("c", [1e200, 1e-170, 1e-160])
    def test_row_whose_squared_norm_leaves_the_normal_range(self, c):
        np.testing.assert_array_equal(Polyhedron([[c, 0.0]], [c]).project([5.0, 0.0]), [1.0, 0.0])
        rows, rhs, scale = qp._unit_rows(np.array([[c, 0.0], [0.0, 0.0], [3.0, 4.0]]), np.array([c, 0.0, 5.0]))
        assert rows.tolist() == [[1.0, 0.0], [0.0, 0.0], [0.6, 0.8]] and rhs.tolist() == [1.0, 0.0, 1.0]
        assert scale.tolist() == [c, 1.0, 5.0]


class TestTargetRange:
    """A target whose x.dot(x) overflows still projects; a NaN or infinite one raises DimensionMismatch, not Infeasible."""

    def test_huge_target_projects(self):
        # |x| beyond 1.3e154 comes from np.hypot: with an infinite |x| every entry bound was
        # infinite, no row entered, and the target came back 1e290 beyond the row
        rows, rhs = unit([[1e-9, 0.0]], [0.0])
        with pytest.warns(RuntimeWarning, match="overflow"):
            x = qp._nearest_point(np.array([1e299, 0.0]), rows, rhs, 1)[0]
        assert x.tolist() == [0.0, 0.0]

    def test_nan_target_is_not_an_empty_polyhedron(self):
        with pytest.raises(DimensionMismatch, match="NaN/Inf"):
            qp._nearest_point(np.array([math.nan, 0.0]), *unit(BOX_ROWS, BOX_RHS), 4)

    def test_infinite_target_in_a_run_is_not_an_empty_polyhedron(self):
        run = Polyhedron(BOX_ROWS, BOX_RHS)._run_projection()
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(DimensionMismatch, match="NaN/Inf"):
            run(np.array([math.inf, 0.0]))


SLAB = np.array([[1.0, 0.0], [-1.0, 0.0]])


def slab_rhs(c, w):
    """x_0 <= c and -x_0 <= -(c + w): SLAB's rows bound an empty slab of width -w."""
    return np.array([c, -(c + w)])


class TestEmptySlab:
    """An empty slab is found empty wherever its gap w exceeds the rounding of its rows, about 4e-13 c."""

    @pytest.mark.parametrize("c", [0.0, 1.0, 1e4, 1e8, 1e10])
    def test_gap_of_a_tenth(self, c):
        with pytest.raises(Infeasible):
            Polyhedron(SLAB, slab_rhs(c, 0.1))

    @given(c=st.floats(0.0, 1e12), t=st.floats(-2.0, 2.0))
    def test_relative_gap_at_every_scale(self, c, t):
        # construction projects 0; then cold solves from the x_0 axis, at and around the gap
        b = slab_rhs(c, 1e-3 * max(c, 1.0))
        with pytest.raises(Infeasible):
            Polyhedron(SLAB, b)
        with pytest.raises(Infeasible):
            qp._solve(np.array([t * max(c, 1.0), 0.0]), SLAB, b, 2)


def stacked(p):
    """p's rows and right-hand sides stacked as _solve takes them."""
    return np.vstack([p.A_ineq, p.A_eq]), np.concatenate([p.b_ineq, p.b_eq]), p.A_ineq.shape[0]


def unit(rows, rhs, n_i=None):
    """rows and rhs made unit-length as _nearest_point takes them, with n_i when given: the rows _solve solves on."""
    rows, rhs, _ = qp._unit_rows(np.asarray(rows, dtype=float), np.asarray(rhs, dtype=float))
    return (rows, rhs) if n_i is None else (rows, rhs, n_i)


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
    earlier = {"right": p.target, "stale": rng.standard_normal(p.target.size) * 2, "negative": p.target}[kind]
    hint = qp._Hint()
    cert = qp._solve(earlier, rows, rhs, n_i, hint)
    if kind == "negative":
        p = ProjectionQp(2 * cert.solution - p.target, p.A_ineq, p.b_ineq, p.A_eq, p.b_eq)
    return p, hint, kind, cert


@st.composite
def general_position_qps(draw):
    """A QP with random rows and target, each inequality row with a positive slack at a feasible point.

    Unlike qp_draws, no slack is zeroed and no row repeated, so every
    multiplier and every slack at the answer is clear of 0 but by chance.
    """
    n = draw(st.integers(1, 10))
    m, n_eq = draw(st.integers(0, 4 * n)), draw(st.integers(0, min(2, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x_feas = rng.standard_normal(n)
    A, C = rng.standard_normal((m, n)), rng.standard_normal((n_eq, n))
    return ProjectionQp(rng.standard_normal(n) * 2, A, A @ x_feas + rng.uniform(0.0, 1.0, m), C, C @ x_feas)


def certificate_bits(cert):
    """cert's solution, multipliers and slacks as bits, with its active set and pivots."""
    arrays = (cert.solution, cert.ineq_multipliers, cert.eq_multipliers, cert.slacks)
    return [a.tobytes() for a in arrays] + [cert.active_set, cert.pivots]


def outcome(solve):
    """solve()'s (x, u, work, pivots) as bits, or the class and message of the error it raised."""
    try:
        x, u, work, pivots = solve()
    except (DimensionMismatch, Infeasible, MaxPivots) as exc:
        return type(exc).__name__, str(exc)
    return x.tobytes(), u.tobytes(), work.tobytes(), pivots


def renewed(work):
    """A hint holding the working rows work alone, as a solve on new rows finds it."""
    hint = qp._Hint()
    hint.keep(np.array(work), None, None)
    hint.renew()
    return hint


BOX_ROWS, BOX_RHS = [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0]
WEDGE_ROWS = [[1.0, 0.2], [-1.0, 0.2]]      # below both rows: a wedge with its vertex at (0, 5)
# (rows, rhs, n_i, work, z): a hint that the one-shot start on renewed rows refuses
REFUSED_RENEWALS = {
    # x_0 <= 0 and x_1 = 1: W's point (0, 0) has u = 1 and meets every inequality row
    "an equality row missing from W": ([[1, 0], [0, 1]], [0, 1], 1, [0], [1, 0]),
    # x_0 = 0 and x_0 + 1e-14 x_1 = 0: a cold solve finds the second row redundant and
    # ends at (0, 1); W's point would be (0, 0), with a multiplier of -1e14
    "a hinted row dependent on the one before": ([[1, 0], [1, 1e-14]], [0, 0], 0, [0, 1], [1, 1]),
    "a negative multiplier": (BOX_ROWS, BOX_RHS, 4, [0], [0.5, 0.5]),
    "a NaN multiplier": (BOX_ROWS, BOX_RHS, 4, [0], [math.nan, 0.0]),
    # c = R^{-T} b_W = (1e300, 1e300 / 1e-9): the second overflows to inf
    "an infinite multiplier": ([[1, 0], [1, 1e-9]], [0, 1e300], 2, [0, 1], [1, 0]),
    "another inequality row violated at the warm point": (BOX_ROWS, BOX_RHS, 4, [0], [3, 3]),
    # violated by 2e-15, within its entry bound of about 2e-13: the cold loop leaves x at z
    "a working row within its entry bound at z": (BOX_ROWS, BOX_RHS, 4, [0], [1 + 2e-15, 0.5]),
    # row 0 enters at z, and then row 2 is violated by 2e-15, within its entry bound
    "a working row within its entry bound once another is in": (BOX_ROWS, BOX_RHS, 4, [0, 2], [3, 1 + 2e-15]),
    # at W's point (1, 1 - 1e-15) row 2 is met by 1e-15, within its entry bound
    "another row met within its entry bound": (BOX_ROWS, BOX_RHS, 4, [0], [2, 1 - 1e-15]),
    # z violates both rows by 4e-13, within their entry bounds of 6e-13, so the cold loop
    # leaves x at z; either row is violated by about 8e-13 at the point optimal for the other
    "no working row violated beyond its entry bound where the cold loop starts":
        (WEDGE_ROWS, np.dot(WEDGE_ROWS, [0, 5]), 2, [0, 1], [0, 5 + 2e-12]),
}


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
        # a warm start is the answer, with no pivot, or the solve is the cold one, bit for bit
        assert warm.pivots == 0 or certificate_bits(warm) == certificate_bits(cold)
        # the hint now holds this solve's working set
        assert sorted(int(j) for j in hint.work if j < n_i) == warm.active_set

    @given(case=hinted_qps())
    def test_hint_with_a_negative_multiplier_is_refused(self, case):
        p, hint, kind, earlier = case
        if kind == "negative" and np.any(earlier.ineq_multipliers > 1e-6):
            assert qp._warm_start(p.target, *unit(*stacked(p)), hint) is None

    @given(case=hinted_qps())
    def test_fused_map_gives_the_point_optimal_for_the_working_rows(self, case):
        # y = [x; e; s]: x solves N x = b_W with x - z in the row space of N, e holds u
        # on W's equality rows, and s holds u on W's inequality rows and then b - A x on
        # the other inequality rows; W's equality rows come first, so the warm start
        # returns x and u = [e; s[:q_i]]
        p, hint, _, _ = case
        rows, rhs, n_i = unit(*stacked(p))
        warm = qp._warm_start(p.target, rows, rhs, n_i, hint)
        if warm is None:
            return
        W, n = hint.work, p.target.size
        q_i = int(np.count_nonzero(W < n_i))
        y = hint.T.dot(p.target) + hint.t
        x, e, s = np.split(y, [n, n + W.size - q_i])
        assert s.shape == (n_i,) and e.shape == (W.size - q_i,)
        assert (W[:e.size] >= n_i).all()
        assert warm[0].tobytes() == x.tobytes() and warm[1].tobytes() == np.concatenate([e, s[:q_i]]).tobytes()
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
        # the hint holds x_0 = 1 alone; its point (1, 2) violates x_1 <= 0, so the solve
        # goes cold: x_0 = 1 enters, then x_1 <= 0
        p = ProjectionQp([0.0, 2.0], [[0.0, 1.0]], [0.0], [[1.0, 0.0]], [1.0])
        rows, rhs, n_i = stacked(p)
        hint = qp._Hint()
        assert qp._solve(np.array([5.0, -1.0]), rows, rhs, n_i, hint).pivots == 1
        assert hint.work.tolist() == [1]
        cert = qp._solve(p.target, rows, rhs, n_i, hint)
        assert cert.pivots == 2
        assert hint.work.tolist() == [1, 0]
        np.testing.assert_allclose(cert.solution, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(cert.eq_multipliers, [-1.0], atol=1e-15)

    @FEW
    @given(p=general_position_qps())
    def test_renewed_hint_with_the_right_rows_needs_no_pivot(self, p):
        # a solve on new rows keeps the working rows W and drops their factors: the one-shot
        # start from the W of a cold solve at the same target takes no pivot and lands on
        # the cold point to rounding, which cond(N) of W's rows N amplifies
        rows, rhs, n_i = unit(*stacked(p))
        hint = qp._Hint()
        cold = qp._nearest_point(p.target, rows, rhs, n_i, hint)[0]
        W = hint.work
        hint.renew()
        before = held(hint)
        x, _, work, pivots = qp._nearest_point(p.target, rows, rhs, n_i, hint)
        assert pivots == 0 and work.tolist() == W.tolist() and unchanged(before)
        kappa = np.linalg.cond(rows[W]) if W.size else 1.0
        assert np.max(np.abs(x - cold), initial=0.0) <= 1e-14 * (1.0 + np.linalg.norm(p.target)) * kappa

    @pytest.mark.parametrize("name", REFUSED_RENEWALS)
    def test_refused_renewal_gives_the_cold_bits(self, name):
        rows, rhs, n_i, work, z = REFUSED_RENEWALS[name]
        (rows, rhs), z = unit(rows, rhs), np.array(z, dtype=float)
        hint = renewed(work)
        before = held(hint)
        assert qp._warm_start(z, rows, rhs, n_i, hint) is None
        got = outcome(lambda: qp._nearest_point(z, rows, rhs, n_i, hint))
        assert got == outcome(lambda: qp._nearest_point(z, rows, rhs, n_i))
        assert unchanged(before)

    @FEW
    @given(case=hinted_qps())
    def test_renewed_hint_starts_in_one_shot_or_gives_the_cold_bits(self, case):
        p, hint, _, _ = case
        rows, rhs, n_i = unit(*stacked(p))
        hint.renew()
        before = held(hint)
        start = qp._warm_start(p.target, rows, rhs, n_i, hint)
        got = outcome(lambda: qp._nearest_point(p.target, rows, rhs, n_i, hint))
        assert unchanged(before)
        if start is None:
            assert got == outcome(lambda: qp._nearest_point(p.target, rows, rhs, n_i))
        else:
            assert got[3] == 0 and got[0] == start[0].tobytes()
            cold = qp._solve(p.target, *stacked(p))
            scale = 1.0 + np.linalg.norm(p.target)
            assert np.max(np.abs(start[0] - cold.solution), initial=0.0) <= 1e-12 * scale

    def test_nan_target_falls_back_to_cold_start(self):
        p = ProjectionQp([2, -1], [[1, 0], [0, -1]], [1, 0], np.zeros((0, 2)), [])
        hint = qp._Hint()
        qp._solve(p.target, *stacked(p), hint)
        assert hint.work.size == 2
        assert qp._warm_start(np.array([np.nan, 0.0]), *unit(*stacked(p)), hint) is None


@st.composite
def hinted_runs(draw):
    """(rows, rhs, n_i, targets): a QP's stacked unit rows and three targets to solve in turn with one hint.

    The rows are qp_draws' with both blocks or no inequality rows.  Half the
    time a copy of one equality row, scaled by w in [-4, 4], is inserted
    among the equality rows, so that one of the two is redundant.  The rows
    are then made unit-length, as the solver core takes them.
    """
    p = draw(qp_draws(blocks=draw(st.sampled_from(["both", "no inequality rows"]))))
    rows, rhs, n_i = stacked(p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rows.shape[0]
    if m > n_i and draw(st.booleans()):
        j, k, w = rng.integers(n_i, m), rng.integers(n_i, m + 1), rng.uniform(-4.0, 4.0)
        rows, rhs = np.insert(rows, k, w * rows[j], axis=0), np.insert(rhs, k, w * rhs[j])
    return *unit(rows, rhs), n_i, [p.target, rng.standard_normal(p.target.size) * 2, rng.standard_normal(p.target.size) * 2]


class TestWorkingSetLayout:
    """Every solve leaves W with its equality rows first, in row order, and out of W only redundant ones."""

    @given(case=hinted_runs())
    def test_hint_holds_equality_rows_first_and_every_one_not_redundant(self, case):
        rows, rhs, n_i, targets = case
        hint = qp._Hint()
        for z in targets:               # a cold solve, then warm ones
            x = qp._nearest_point(z, rows, rhs, n_i, hint)[0]
            W = hint.work
            eq = W[W >= n_i]
            assert W[:eq.size].tolist() == sorted(eq.tolist())
            basis = np.linalg.qr(rows[eq].T)[0]
            for j in np.setdiff1d(np.arange(n_i, rows.shape[0]), eq):
                # dependent on W's equality rows, and met to the redundancy bound; a warm
                # start's x meets W's rows only to rounding of about eps |z|, so |z| counts too
                a, a_norm = rows[j], np.linalg.norm(rows[j])
                assert np.linalg.norm(a - basis @ (basis.T @ a)) <= 1e-9 * (1.0 + a_norm)
                bound = max(FEAS_TOL, VIOL_RTOL * (a_norm * (np.linalg.norm(x) + np.linalg.norm(z)) + abs(rhs[j])))
                assert abs(a @ x - rhs[j]) <= bound


MULTIPLIERS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, -5e-324, 1.7e308])
SLACKS = st.sampled_from([0.0, -0.0, math.inf, 1.0, -1.0, math.nan]) | MULTIPLIERS


class NegativeZeroMap:
    """A stand-in for a warm-start map T whose T z is -0.0 in every row.

    -0.0 is IEEE's additive identity, so T z + t has the bits of t, where
    a product of zeros would give +0.0 and turn a -0.0 in t into +0.0.
    """

    def __init__(self, rows):
        self.rows = rows

    def dot(self, z):
        return np.full(self.rows, -0.0)


class TestSignTest:
    """The warm start's one sign test on s accepts exactly the warm starts that are the answer.

    Accepted: u finite, u >= +0 on W's inequality rows, and every slack of an
    inequality row outside W finite and >= +0.  -0.0 refuses, as NaN does.
    """

    @given(u=st.lists(MULTIPLIERS, min_size=1, max_size=6), slacks=st.lists(SLACKS, max_size=4), data=st.data())
    # one value in the last place of s, behind a valid multiplier: the sign test must
    # read the largest entry, not the first or the smallest
    @example(u=[2.0, -0.0], slacks=[], data=None)
    @example(u=[2.0, math.inf], slacks=[], data=None)
    @example(u=[2.0, math.nan], slacks=[], data=None)
    @example(u=[2.0, np.finfo(float).max], slacks=[], data=None)
    @example(u=[2.0, 5e-324], slacks=[], data=None)
    def test_accepts_exactly_the_answer(self, u, slacks, data):
        u, slacks = np.array(u), np.array(slacks, dtype=float)
        q, k = u.size, slacks.size
        # an explicit example has only inequality rows, in row order
        q_i = q if data is None else data.draw(st.integers(0, q))
        order = range(q_i) if data is None else data.draw(st.permutations(range(q_i)))
        # q unit rows of R^q in work, laid out as a solve leaves them: its q - q_i equality
        # rows first, in row order, then its q_i inequality rows in a drawn order;
        # k more unit inequality rows outside work
        E = np.eye(q)
        rows = np.vstack([E[:q_i], np.full((k, q), q ** -0.5), E[q_i:]])
        n_i = q_i + k
        rhs = np.zeros(n_i + q - q_i)
        work = np.array([*range(n_i, n_i + q - q_i), *order])
        hint = qp._Hint()
        hint.keep(work, np.eye(q), np.eye(q))
        qp._fuse(hint, rows, rhs, n_i)
        # the map gives u as multipliers and these slacks at every target, -0.0 included:
        # y = [x; e; s] = T z + t with u = y[q:2q], the slacks last
        hint.T = NegativeZeroMap(hint.t.size)
        hint.t[hint.t.size - k:], hint.t[q:2 * q] = slacks, u
        s = np.concatenate([u[work < n_i], slacks])
        accepted = np.isfinite(u).all() and (np.isfinite(s) & ~np.signbit(s)).all()
        warm = qp._warm_start(np.zeros(q), rows, rhs, n_i, hint)
        assert (warm is not None) == accepted
        if warm is not None:
            np.testing.assert_array_equal(warm[1], u)


ENTRY_RATIOS = (-1.0, 0.0, 0.5, 0.999, 1.001, 2.0, 1e3)     # a row's violation over its own bound


@st.composite
def entry_tests(draw):
    """(x, A, b, skip, met): the entry test's arguments, each row violated near its own bound.

    x is drawn at a scale of 1 to 1e12, and the rows a at unit length, as
    the solver takes them.  Each row's violation is a drawn multiple of its
    bound VIOL_RTOL (|x| + |b|), within it or beyond it.  The bounds differ
    with |b|, by up to twice, so a row within its bound can be the most
    violated while a lower one is beyond its own.  Some rows are exact
    copies of others (ties), about a fifth of the draws hold a NaN b, and
    skip and met hold drawn rows.  m = 0 gives an empty b.
    """
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    scale = draw(st.sampled_from([1.0, 1e4, 1e8, 1e12]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = scale * rng.standard_normal(n)
    A = unit(rng.standard_normal((m, n)), np.zeros(m))[0]
    ax = A @ x
    ratios = np.array(draw(st.lists(st.sampled_from(ENTRY_RATIOS), min_size=m, max_size=m)))
    b = ax - ratios * VIOL_RTOL * (np.linalg.norm(x) + np.abs(ax))
    rows = st.integers(0, max(m - 1, 0))
    for i, j in draw(st.lists(st.tuples(rows, rows), max_size=2)) if m else ():
        A[i], b[i] = A[j], b[j]
    if m and draw(st.integers(0, 4)) == 4:
        b[draw(rows)] = math.nan
    skip = draw(st.none() | st.lists(rows, unique=True, max_size=m).map(lambda r: np.array(r, dtype=int)))
    met = draw(st.lists(rows, unique=True, max_size=min(m, 2))) if m else []
    return x, A, b, skip, met


def entry_case(x, A, b, skip=None, met=()):
    """The entry test's arguments from lists of unit rows."""
    x, b = np.array(x, dtype=float), np.array(b, dtype=float)
    return x, np.array(A, dtype=float).reshape(b.size, x.size), b, skip, met


ENTRY_EXAMPLES = {  # name: (arguments, the row that enters)
    # row 0 is the most violated, by about 1.5e-13, but within its bound of about 2e-13;
    # row 1, violated by 1.2e-13, is beyond its bound of about 1e-13 and enters
    "top row within its bound": (entry_case([1.0, 0.0], np.eye(2), [1.0 - 1.5e-13, -1.2e-13]), 1),
    "top row within its bound at 1e12": (entry_case([1e12, 0.0], np.eye(2), [1e12 - 0.15, -0.12]), 1),
    # every row violated by exactly 2^-43, about 1.14e-13; bounds 2e-13, 1e-13 and 1e-13:
    # rows 1 and 2 tie
    "exact tie": (entry_case([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
                             [1.0 - 2.0**-43, -(2.0**-43), -(2.0**-43)]), 1),
    "skip and met": (entry_case([1.0, 1.0, 1.0], np.eye(3), [0.0, 0.0, 0.5], np.array([0]), [1]), 2),
    "NaN violation": (entry_case([1.0], [[1.0], [1.0], [1.0]], [0.0, math.nan, -1.0]), 1),
    "NaN row met": (entry_case([1.0], [[1.0], [1.0], [1.0]], [0.0, math.nan, -1.0], None, [1]), 2),
    "empty b": (entry_case([1.0, 2.0], [], []), None),
    "no row violated": (entry_case([1.0, 0.0], np.eye(2), [2.0, 0.0], np.zeros(0, dtype=int)), None),
}


class TestEnteringRow:
    """The entry test tries the most-violated row against its own bound first and picks the row the full-vector rule picks.

    The rule, as first written in tests/oracles.py entering_reference: every
    unit row's bound VIOL_RTOL (|x| + |b|) applied at once, the working and met
    rows masked, the most-violated row left entering, the lowest index on
    ties and a NaN before any number.
    """

    @given(case=entry_tests())
    def test_picks_the_row_of_the_full_vector_rule(self, case):
        assert qp._entering(*case) == entering_reference(*case)

    @pytest.mark.parametrize("name", ENTRY_EXAMPLES)
    def test_examples(self, name):
        case, row = ENTRY_EXAMPLES[name]
        assert qp._entering(*case) == entering_reference(*case) == row


@st.composite
def working_sets(draw):
    """(rows, rhs, n_i, work, Q, R): a QP's stacked rows and a working set on them with its factors.

    The rows are qp_draws' with both blocks, no inequality rows or no
    equality rows.  work is a random set of independent rows laid out as a
    solve leaves them: its equality rows first, in row order, then its
    inequality rows in a random order.  N^T = Q[:, :q] R[:q, :q] factors
    them.  Either numpy's QR gives the factors, or work's rows are
    replaced by signed powers of two times distinct unit rows, with small
    integer right-hand sides, so that Q is a permutation and all the
    arithmetic of the map is exact.
    """
    p = draw(qp_draws(blocks=draw(st.sampled_from(["both", "no inequality rows", "no equality rows"]))))
    rows, rhs, n_i = stacked(p)
    n, m = p.target.size, rows.shape[0]
    assume(m > 0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, exact = int(rng.integers(1, min(n, m) + 1)), draw(st.booleans())
    if exact:
        work = rng.permutation(m)[:q]
    else:                               # independent rows, greedily, up to q of them
        work = []
        for j in rng.permutation(m):
            if len(work) < q and np.linalg.matrix_rank(rows[work + [j]]) == len(work) + 1:
                work.append(j)
        work, q = np.array(work), len(work)
    work = np.concatenate([np.sort(work[work >= n_i]), work[work < n_i]])
    if exact:                           # signed powers of two times unit rows
        axes = rng.permutation(n)
        d = rng.choice([-1.0, 1.0], q) * 2.0 ** rng.integers(-2, 3, q)
        rows[work] = 0.0
        rows[work, axes[:q]] = d
        rhs[work] = rng.integers(-3, 4, q)
        Q, R = np.eye(n)[:, axes], np.zeros((n, n))
        R[range(q), range(q)] = d
    else:
        assume(np.linalg.cond(rows[work]) < 1e6)
        Q, Rc = np.linalg.qr(rows[work].T, mode="complete")
        R = np.zeros((n, n))
        R[:, :q] = Rc
    return rows, rhs, n_i, work, Q, R


class TestFusedMap:
    """The warm-start map has the bits of its blocks stacked, and a warm start refuses a negative multiplier it gives."""

    @FEW
    @given(case=working_sets())
    def test_map_has_the_bits_of_the_stacked_blocks(self, case):
        rows, rhs, n_i, work, Q, R = case
        hint = qp._Hint()
        hint.keep(work, Q, R)
        qp._fuse(hint, rows, rhs, n_i)
        T, t = fuse_reference(work, Q, R, rows, rhs, n_i)
        assert hint.T.shape == T.shape and hint.T.tobytes() == T.tobytes() and hint.t.tobytes() == t.tobytes()

    def test_multiplier_within_rounding_is_refused(self):
        # one row a = (1/2)(1, 1, 1, 1), a Hadamard column: Q and R = 1 are exact, and at
        # z = (1, 1, -1, -1 - 2^-51) the multiplier a.z = -2^-52 is exact too, and refused
        H = np.array([[1.0, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2
        rows, rhs = H[:, :1].T.copy(), np.zeros(1)
        hint = qp._Hint()
        hint.keep(np.array([0]), H, np.eye(4))
        assert qp._warm_start(np.array([1.0, 1.0, -1.0, -1.0 - 2.0**-51]), rows, rhs, 1, hint) is None
        # at (1, 1, -1, -3) the multiplier is -1
        assert qp._warm_start(np.array([1.0, 1.0, -1.0, -3.0]), rows, rhs, 1, hint) is None

    def test_map_built_for_a_refused_hint_serves_the_next_start(self):
        # BOX's corner (1, 0) from (2, -1) has multipliers 1 and 1; reflected through it, at (0, 1), both are -1
        rows, rhs, n_i = stacked(BOX)
        hint = qp._Hint()
        qp._solve(BOX.target, rows, rhs, n_i, hint)
        assert hint.work.tolist() == [0, 3] and hint.T is None
        assert qp._warm_start(np.array([0.0, 1.0]), rows, rhs, n_i, hint) is None
        T = hint.T                      # built by the warm start that refused the hint
        assert T is not None
        assert qp._warm_start(np.array([3.0, -2.0]), rows, rhs, n_i, hint) is not None
        assert hint.T is T


def held(hint):
    """The arrays a hint holds, each with a copy of its bits."""
    return [(a, a.tobytes()) for a in (hint.work, hint.Q, hint.R) if a is not None]


def unchanged(arrays):
    return all(a.tobytes() == bits for a, bits in arrays)


BOX = ProjectionQp([2, -1], [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0], np.zeros((0, 2)), [])


class TestHintArrays:
    """A solve reads a hint's arrays and never writes them: the loop pivots on arrays of its own."""

    @given(case=hinted_qps())
    def test_solve_leaves_the_arrays_it_was_given(self, case):
        p, hint, _, _ = case
        warm = qp._warm_start(p.target, *unit(*stacked(p)), hint) is not None
        before = held(hint)
        cert = qp._solve(p.target, *stacked(p), hint)
        assert unchanged(before)
        if warm:
            # returned before the loop, with no pivot: the hint keeps the very same arrays
            assert cert.pivots == 0
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

    def test_redundant_equality_row_warm_starts_before_the_loop(self, monkeypatch):
        # x_1 <= 0 with x_0 = 1 and its copy 2 x_0 = 2: the cold solve finds the copy
        # redundant, and a warm solve returns with no row to enter, the copy included
        p = ProjectionQp([0.0, 2.0], [[0.0, 1.0]], [0.0], [[1.0, 0.0], [2.0, 0.0]], [1.0, 2.0])
        hint = qp._Hint()
        assert qp._solve(p.target, *stacked(p), hint).pivots == 2
        rows, rhs, n_i = unit(*stacked(p))
        assert hint.work.tolist() == [1, 0]
        before = held(hint)
        monkeypatch.setattr(qp, "_add", None)   # the loop would fail at its first pivot
        monkeypatch.setattr(qp, "_drop", None)
        x, u, work, pivots = qp._nearest_point(np.array([5.0, 3.0]), rows, rhs, n_i, hint)
        assert (x.tolist(), u.tolist(), work.tolist(), pivots) == ([1.0, 0.0], [4.0, 3.0], [1, 0], 0)
        assert work is hint.work and unchanged(before)

    def test_infeasible_hinted_solve_leaves_the_hint(self):
        # the hint's rows x <= 1 and -y <= 0 with y >= 2 instead: the warm point violates
        # y <= 1, so the solve goes cold and proves the box empty
        rows, rhs, n_i = stacked(BOX)
        hint = qp._Hint()
        qp._solve(BOX.target, rows, rhs, n_i, hint)
        before = held(hint)
        empty = np.array([1.0, 0.0, 1.0, -2.0])
        assert qp._warm_start(np.array([3.0, -5.0]), rows, empty, n_i, hint) is None
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
