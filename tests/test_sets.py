import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import altproj
from altproj import (
    AffineSubspace,
    Ball,
    Box,
    ConstraintSystem,
    FinitePointSet,
    FixedRankMatrices,
    Halfspace,
    Hyperplane,
    InclusionProblem,
    Monomial,
    PolyMap,
    Polyhedron,
    ProjectableSet,
    SolveOptions,
    Sphere,
    check_transversality,
    qp,
    run_exact,
    set_from_json,
    solve_constraint_system,
    solve_inclusion,
)
from altproj.errors import DimensionMismatch, RankDrop, UnsupportedVariant
from altproj.linalg import RANK_TOL
from altproj.qp import VIOL_RTOL
from altproj.sets import ON_SET_TOL, NormalCone, _cone_intersection

from oracles import normal_cone_reference

RNG = np.random.default_rng(29)

CONVEX_SETS = [
    Box([0, 0], [1, 1]),
    Ball([0.5, -0.5], 2.0),
    AffineSubspace([1, 0, 0], [[0, 1, 0], [0, 0, 1]]),
    Hyperplane([1.0, 2.0], 3.0),
    Halfspace([1.0, -1.0], 0.5),
    Polyhedron([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 0, 0]),
]
NONCONVEX_SETS = [
    Sphere([0, 0], 1.0),
    FinitePointSet([[0, 0], [1, 1], [2, 0]]),
    FixedRankMatrices(2, 2, 1),
]


def ambient_sample(s, rng):
    return rng.standard_normal(s.ambient_dim) * 2.0


class TestProjectionBasics:
    def test_ball_distance(self):
        assert Ball([0, 0], 1.0).distance([2, 0]) == pytest.approx(1.0)

    def test_box_interior(self):
        assert Box([0, 0], [1, 1]).distance([0.5, 0.5]) == 0.0

    def test_sphere_345(self):
        assert Sphere([0, 0], 1.0).distance([0.6, 0.8]) == pytest.approx(0.0, abs=1e-12)

    def test_box_clamp(self):
        np.testing.assert_allclose(Box([0, 0], [1, 1]).project([2, 0.5]), [1, 0.5])

    def test_fixed_rank_truncation(self):
        s = FixedRankMatrices(2, 2, 1)
        z = np.diag([3.0, 1.0]).reshape(-1)
        np.testing.assert_allclose(s.project(z), np.diag([3.0, 0.0]).reshape(-1))

    def test_sphere_center_tie_break(self):
        np.testing.assert_allclose(Sphere([0, 0], 1.0).project([0, 0]), [1, 0])

    def test_finite_point_lowest_index_tie(self):
        s = FinitePointSet([[1, 0], [-1, 0]])
        np.testing.assert_allclose(s.project([0, 0]), [1, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Ball([0, 0], 1.0).project([1, 2, 3])

    def test_polyhedron_empty_rejected(self):
        with pytest.raises(Exception):
            Polyhedron([[1.0], [-1.0]], [0.0, -1.0])


# a tenth of the profile's examples, for properties added after the suite outgrew its time budget
FEW = settings(max_examples=max(10, settings.default.max_examples // 10), deadline=None)


class TestTieBreaks:
    """Each documented tie-break of a nonconvex projection holds, and two calls give the same bits."""

    @FEW
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_sphere_center_goes_to_first_basis_direction(self, n, seed):
        rng = np.random.default_rng(seed)
        center, r = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3)
        s = Sphere(center, r)
        p = s.project(center)
        assert np.array_equal(p, center + r * np.eye(n)[0])
        assert s.project(center).tobytes() == p.tobytes()

    @FEW
    @given(n=st.integers(1, 4), k=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_finite_point_ties_go_to_lowest_index(self, n, k, seed):
        # small integer coordinates: squared distances are exact, so ties are exact and frequent
        rng = np.random.default_rng(seed)
        points, z = rng.integers(-2, 3, (k, n)), rng.integers(-2, 3, n)
        squared = ((points - z) ** 2).sum(axis=1)
        s = FinitePointSet(points)
        p = s.project(z)
        assert np.array_equal(p, points[np.flatnonzero(squared == squared.min())[0]])
        assert s.project(z).tobytes() == p.tobytes()

    @FEW
    @given(rows=st.integers(2, 4), cols=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_fixed_rank_ties_keep_earlier_svd_columns(self, rows, cols, seed, data):
        # sigma_r = sigma_(r+1): the truncation keeps the first r columns of the SVD's factors
        r = data.draw(st.integers(1, min(rows, cols) - 1))
        rng = np.random.default_rng(seed)
        sigma = np.sort(rng.uniform(1.0, 3.0, min(rows, cols)))[::-1]
        sigma[r] = sigma[r - 1]
        U = np.linalg.qr(rng.standard_normal((rows, rows)))[0][:, : sigma.size]
        V = np.linalg.qr(rng.standard_normal((cols, cols)))[0][:, : sigma.size]
        z = ((U * sigma) @ V.T).reshape(-1)
        s = FixedRankMatrices(rows, cols, r)
        p = s.project(z)
        Uz, sz, Vzt = np.linalg.svd(z.reshape(rows, cols))
        np.testing.assert_allclose(p, ((Uz[:, :r] * sz[:r]) @ Vzt[:r]).reshape(-1), atol=1e-12)
        assert np.linalg.matrix_rank(p.reshape(rows, cols)) == r
        assert s.project(z).tobytes() == p.tobytes()


class TestPublicBoundary:
    """project, distance and normal_cone check their argument; the variants do not."""

    @pytest.mark.parametrize("method", ["project", "distance", "normal_cone"])
    @pytest.mark.parametrize("s", CONVEX_SETS + NONCONVEX_SETS, ids=lambda s: type(s).__name__)
    def test_bad_point_raises_dimension_mismatch(self, s, method):
        n = s.ambient_dim
        for bad in ([0.0] * (n + 1), [0.0] * (n - 1) + [np.nan], [np.inf] + [0.0] * (n - 1)):
            with pytest.raises(DimensionMismatch):
                getattr(s, method)(bad)

    @pytest.mark.parametrize("cls", [type(s) for s in CONVEX_SETS + NONCONVEX_SETS],
                             ids=lambda cls: cls.__name__)
    def test_variants_implement_the_private_methods_only(self, cls):
        assert {"_project", "_normal_cone"} <= set(vars(cls))
        assert not {"project", "distance", "normal_cone"} & set(vars(cls))
        assert "_check" not in inspect.getsource(cls)

    def test_user_subclass_gets_the_checks(self):
        class Origin(ProjectableSet):
            ambient_dim = 2

            def _project(self, z):
                return np.zeros(2)

        s = Origin()
        assert s.distance([3, 4]) == 5.0
        with pytest.raises(DimensionMismatch):
            s.project([1, 2, 3])
        with pytest.raises(UnsupportedVariant):
            s.normal_cone([0, 0])


class TestPolyhedron:
    @pytest.mark.parametrize("field", ["A_ineq", "b_ineq", "A_eq", "b_eq"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_field_named(self, field, bad):
        data = {"A_ineq": [[1.0, 0.0]], "b_ineq": [1.0], "A_eq": [[0.0, 1.0]], "b_eq": [0.0]}
        data[field] = np.full(np.shape(data[field]), bad)
        with pytest.raises(ValueError, match=f"polyhedron {field} contains NaN/Inf"):
            Polyhedron(**data)

    @pytest.mark.parametrize("given", ["A_eq", "b_eq"])
    def test_equality_block_needs_both_fields(self, given):
        data = {"A_ineq": [[1.0, 0.0]], "b_ineq": [1.0], given: [[0.0, 1.0]] if given == "A_eq" else [0.0]}
        with pytest.raises(ValueError, match="both A_eq and b_eq"):
            Polyhedron(**data)

    def test_right_hand_side_length_named(self):
        with pytest.raises(DimensionMismatch, match="b_ineq"):
            Polyhedron([[1.0, 0.0], [0.0, 1.0]], [1.0])

    def test_generator_polyhedra_at_20x100(self):
        # the primal active-set loop hit its pivot cap in this constructor
        rng = np.random.default_rng(2024)
        for _ in range(2):
            A = rng.standard_normal((100, 20))
            b = A @ rng.standard_normal(20) + rng.uniform(0.0, 1.0, 100)
            P = Polyhedron(A, b)
            x = P.project(rng.standard_normal(20) * 2)
            assert np.all(A @ x - b <= 1e-9)

    def test_projection_exact_to_rounding(self):
        # x_1 <= 1 - 1e-10 is violated by 1e-10 once x_0 <= 0 is met; the
        # projection used to stop there, 1e-10 outside the polyhedron
        A, b = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.0, 1.0 - 1e-10])
        x = Polyhedron(A, b).project([1.0, 1.0])
        scale = np.linalg.norm(A, axis=1) * np.linalg.norm(x) + np.abs(b)
        assert np.all(A @ x - b <= VIOL_RTOL * scale)

    def test_projection_imports_no_scipy(self):
        # numpy is the only run-time dependency: with scipy blocked, any
        # import of it raises, and the QP decides both cone cases
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from altproj import Box, Halfspace, Polyhedron, check_transversality\n"
            "from altproj.qp import ProjectionQp, solve_projection_qp\n"
            "P = Polyhedron([[1, 0], [0, 1], [1, 1]], [1, 1, 1.5], [[1, -1]], [0])\n"
            "P.project([3, 2])\n"
            "solve_projection_qp(ProjectionQp([3, 2], [[1, 1]], [1], np.zeros((0, 2)), []))\n"
            "if not check_transversality(Box([0, 0], [1, 1]), Halfspace([1, 0], 1), [1, 1]).transversal:\n"
            "    sys.exit('box corner and halfspace should be transversal')\n"
            "if check_transversality(Halfspace([1, 0], 0), Halfspace([-1, 0], 0), [0, 0]).transversal:\n"
            "    sys.exit('opposing halfspaces should not be transversal')\n"
        )
        src = os.path.dirname(os.path.dirname(altproj.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)



def thin_lens(n=6, m=12, seed=5):
    """A polyhedron and a ball that overlap by 0.01, and a start: runs take tens of iterations.

    The first n rows have normals near one axis u and b = 1, so several of
    them are nearly active where the sets meet.
    """
    rng = np.random.default_rng(seed)
    u = np.eye(n)[0]
    G = rng.standard_normal((m, n))
    G -= np.outer(G @ u, u)
    A = G.copy()
    A[:n] = u + 0.3 * G[:n]
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    b = np.append(np.ones(n), rng.uniform(1.0, 2.0, m - n))
    center = u * (1.0 / np.max(A[:n] @ u) + 1.0 - 0.01)
    return Polyhedron(A, b), Ball(center, 1.0), center + 2.0 * rng.standard_normal(n) / np.sqrt(n)


LENS_OPTS = SolveOptions(1e-9, 3000)
# each driver with the polyhedron as one of its sets; the last ones end on
# a nonempty working set of the polyhedron
LENS_RUNS = {
    "inclusion": lambda P, B, z0: solve_inclusion(
        InclusionProblem(cubic_map(B.ambient_dim), P), z0, LENS_OPTS),
    "linconstr": lambda P, B, z0: solve_constraint_system(
        ConstraintSystem(ball_constraint(B), PolyMap.empty(B.ambient_dim),
                         PolyMap.empty(B.ambient_dim), P, B.ambient_dim), z0, LENS_OPTS),
    "exact-Q": lambda P, B, z0: run_exact(P, B, z0, LENS_OPTS),
    "exact-M": lambda P, B, z0: run_exact(B, P, z0, LENS_OPTS),
}


def ball_constraint(B):
    """|x - c|^2 - r^2 <= 0 as a PolyMap."""
    n = B.ambient_dim
    monomials = [Monomial(float(B.center @ B.center - B.radius**2), (0,) * n)]
    for i in range(n):
        monomials.append(Monomial(1.0, tuple(2 * (k == i) for k in range(n))))
        if B.center[i]:
            monomials.append(Monomial(-2.0 * B.center[i], tuple(int(k == i) for k in range(n))))
    return PolyMap(n, [monomials])


def cubic_map(n):
    """x_i + x_i^3 / 2 in each coordinate, so that Gauss-Newton takes several steps."""
    return PolyMap(n, [[Monomial(1.0, tuple(int(k == i) for k in range(n))),
                        Monomial(0.5, tuple(3 * int(k == i) for k in range(n)))] for i in range(n)])


def trace_bits(tr):
    columns = (tr.zs, tr.xs, tr.gaps, tr.dist_q, tr.dist_m)
    return (tr.status,) + tuple(np.asarray(c, dtype=float).tobytes() for c in columns)


class TestPolyhedronRuns:
    """A run warm-starts each polyhedron QP from its previous one, and only within the run."""

    @pytest.mark.parametrize("driver", LENS_RUNS)
    def test_trace_does_not_depend_on_earlier_runs(self, driver):
        P, B, z0 = thin_lens()
        run = LENS_RUNS[driver]
        first = run(P, B, z0)
        for other in LENS_RUNS.values():
            other(P, B, z0[::-1])
        assert trace_bits(run(P, B, z0)) == trace_bits(first)
        assert trace_bits(run(thin_lens()[0], B, z0)) == trace_bits(first)

    def test_project_is_the_same_before_and_after_a_run(self):
        P, B, z0 = thin_lens()
        points = [z0, B.center, 3 * z0, z0[::-1]]
        cold = [qp._solve(z, P._rows, P._rhs, P.A_ineq.shape[0]).solution.tobytes() for z in points]
        assert [P.project(z).tobytes() for z in points] == cold
        assert run_exact(B, P, z0, LENS_OPTS).status == "Converged"
        assert [P.project(z).tobytes() for z in points] == cold

    @pytest.mark.parametrize("driver", LENS_RUNS)
    def test_warm_run_matches_cold_run(self, driver, monkeypatch):
        P, B, z0 = thin_lens()
        warm_starts = []
        warm_start = qp._warm_start

        def counted(*args):
            start = warm_start(*args)
            warm_starts.append(start is not None)
            return start

        monkeypatch.setattr(qp, "_warm_start", counted)
        warm = LENS_RUNS[driver](P, B, z0)
        assert warm.iterations >= 5
        assert sum(warm_starts) >= warm.iterations - 2
        monkeypatch.setattr(Polyhedron, "_run_projection", lambda self: self._project)
        cold = LENS_RUNS[driver](P, B, z0)
        assert (warm.status, warm.iterations) == (cold.status, cold.iterations)
        for a, b in zip(warm.zs, cold.zs):
            assert np.max(np.abs(a - b)) <= 1e-12 * (1 + np.linalg.norm(b))

class TestProjectionProperties:
    @pytest.mark.parametrize("s", CONVEX_SETS + NONCONVEX_SETS)
    def test_idempotence(self, s):
        for _ in range(25):
            z = ambient_sample(s, RNG)
            p = s.project(z)
            np.testing.assert_allclose(s.project(p), p, atol=1e-10)

    @pytest.mark.parametrize("s", CONVEX_SETS)
    def test_convex_projection_lipschitz(self, s):
        for _ in range(25):
            z1 = ambient_sample(s, RNG)
            z2 = ambient_sample(s, RNG)
            lhs = np.linalg.norm(s.project(z1) - s.project(z2))
            assert lhs <= np.linalg.norm(z1 - z2) + 1e-10

    @pytest.mark.parametrize("s", CONVEX_SETS + NONCONVEX_SETS)
    def test_distance_is_gap_to_projection(self, s):
        z = ambient_sample(s, RNG)
        assert s.distance(z) == pytest.approx(np.linalg.norm(z - s.project(z)))

    def test_finite_point_exhaustive(self):
        pts = RNG.standard_normal((7, 3))
        s = FinitePointSet(pts)
        for _ in range(30):
            z = RNG.standard_normal(3)
            best = pts[np.argmin(np.linalg.norm(pts - z, axis=1))]
            np.testing.assert_array_equal(s.project(z), best)

    def test_prox_regularity_sphere(self):
        # z - P(z) must lie in the normal space at P(z), for z within reach
        s = Sphere([0, 0, 0], 2.0)
        for _ in range(20):
            x = RNG.standard_normal(3)
            x = 2.0 * x / np.linalg.norm(x)
            z = x + RNG.uniform(-0.9, 0.9) * (x / 2.0)  # within radius/2
            p = s.project(z)
            cone = s.normal_cone(p)
            v = z - p
            if np.linalg.norm(v) < 1e-12:
                continue
            v = v / np.linalg.norm(v)
            proj = cone.lineality.T @ (cone.lineality @ v)
            assert np.linalg.norm(v - proj) <= 1e-8

    def test_prox_regularity_fixed_rank(self):
        s = FixedRankMatrices(3, 3, 2)
        A = RNG.standard_normal((3, 3))
        U, sig, Vt = np.linalg.svd(A)
        base = U @ np.diag([3.0, 2.0, 0.0]) @ Vt
        z = (base + 0.1 * RNG.standard_normal((3, 3))).reshape(-1)
        p = s.project(z)
        cone = s.normal_cone(p)
        v = z - p
        if np.linalg.norm(v) > 1e-12:
            v = v / np.linalg.norm(v)
            proj = cone.lineality.T @ (cone.lineality @ v)
            assert np.linalg.norm(v - proj) <= 1e-8


# signed zeros, magnitudes near the underflow and overflow ends, and plain values;
# |z - anchor| stays finite, as for any iterate the solvers accept
_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e300, -1e300]),
    st.floats(-1e300, 1e300),
)


@st.composite
def _coordinate_cases(draw):
    """A basis of k signed unit rows on distinct coordinates, in random order, and a, z."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, n))
    coords = draw(st.permutations(range(n)))[:k]
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=k, max_size=k))
    basis = np.where(draw(st.booleans()), -0.0, 0.0) * np.ones((k, n))
    basis[np.arange(k), coords] = signs
    anchor = np.array(draw(st.lists(_entries, min_size=n, max_size=n)))
    z = np.array(draw(st.lists(_entries, min_size=n, max_size=n)))
    return anchor, basis, z


def _dense(anchor, basis, z):
    return anchor + basis.T @ (basis @ (z - anchor))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestCoordinateBasis:
    """A basis of signed unit rows is projected by selection, bit for bit as the dense formula."""

    @settings(max_examples=300, deadline=None)
    @given(case=_coordinate_cases())
    def test_coordinate_projection_is_the_dense_formula_bitwise(self, case):
        anchor, basis, z = case
        s = AffineSubspace(anchor, basis)
        assert s._free is not None
        # array_equal would take -0.0 == 0.0; the bit patterns do not
        np.testing.assert_array_equal(_bits(s.project(z)), _bits(_dense(anchor, basis, z)))

    def test_rotated_line_takes_the_dense_path(self):
        s = AffineSubspace([1.0, -2.0], [[0.6, 0.8]])
        assert s._free is None
        z = np.array([3.0, 0.5])
        np.testing.assert_array_equal(s.project(z), _dense(s.anchor, s.basis, z))

    @pytest.mark.parametrize(
        "basis",
        [[[1, 0], [1, 0]], [[0, -1], [0, 1]], [[0.5, 0]], [[1, 0.5]], [[1, 0, 0], [0, 2, 0]],
         [[1, 1], [0, 0]]],
        ids=["repeated", "repeated-signed", "half", "two-nonzeros", "scaled-row", "zero-row"],
    )
    def test_non_orthonormal_still_rejected(self, basis):
        with pytest.raises(ValueError, match="not orthonormal"):
            AffineSubspace(np.zeros(len(basis[0])), basis)

    @pytest.mark.parametrize(
        "basis", [[[np.nan, 0]], [[np.inf, 0]], [[1, 0], [0, -np.inf]]], ids=["nan", "inf", "-inf"]
    )
    def test_non_finite_basis_rejected(self, basis):
        with pytest.raises(ValueError, match="basis contains NaN/Inf"):
            AffineSubspace([0, 0], basis)

    @pytest.mark.parametrize("basis", [[], np.zeros((0, 3))], ids=["list", "array"])
    def test_empty_basis_is_the_anchor(self, basis):
        s = AffineSubspace([1.0, -0.0, 2.0], basis)
        assert s.basis.shape == (0, 3)
        np.testing.assert_array_equal(_bits(s.project([5.0, 6.0, 7.0])), _bits([1.0, -0.0, 2.0]))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), coordinate=st.booleans())
    def test_idempotent_on_both_paths(self, data, coordinate):
        n = data.draw(st.integers(1, 10))
        k = data.draw(st.integers(1, n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if coordinate:
            basis = np.eye(n)[rng.permutation(n)[:k]] * rng.choice([-1.0, 1.0], (k, 1))
        else:
            basis = np.linalg.qr(rng.standard_normal((n, k)))[0].T
        scale = 10.0 ** data.draw(st.integers(-3, 3))
        anchor = scale * rng.standard_normal(n)
        s = AffineSubspace(anchor, basis)
        if coordinate:
            assert s._free is not None
        p = s.project(scale * rng.standard_normal(n))
        np.testing.assert_allclose(s.project(p), p, rtol=0, atol=1e-12 * scale)

    def test_setup_imports_no_numpy_ma(self):
        # np.unique imports numpy.ma on first use, which costs set-up time and memory
        code = (
            "import sys\n"
            "from altproj import AffineSubspace\n"
            "AffineSubspace([1, 2, 3], [[0, -1, 0], [1, 0, 0]]).project([4, 5, 6])\n"
            "AffineSubspace([1, 2], [[0.6, 0.8]]).project([4, 5])\n"
            "try:\n"
            "    AffineSubspace([1, 2], [[1, 0], [1, 0]])\n"
            "except ValueError:\n"
            "    pass\n"
            "if 'numpy.ma' in sys.modules:\n"
            "    sys.exit('numpy.ma was imported')\n"
        )
        src = os.path.dirname(os.path.dirname(altproj.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestNormalCones:
    def test_sphere_radial_normal(self):
        cone = Sphere([0, 0], 1.0).normal_cone([1, 0])
        assert cone.lineality.shape == (1, 2)
        np.testing.assert_allclose(np.abs(cone.lineality[0]), [1, 0], atol=1e-12)

    def test_hyperplane_normal(self):
        cone = Hyperplane([0.0, 2.0], 1.0).normal_cone([3.0, 0.5])
        np.testing.assert_allclose(np.abs(cone.lineality[0]), [0, 1], atol=1e-12)

    def test_box_corner_cone(self):
        cone = Box([0, 0], [1, 1]).normal_cone([1, 1])
        rays = sorted(map(tuple, cone.rays))
        assert rays == [(0.0, 1.0), (1.0, 0.0)]

    def test_finite_point_full_space(self):
        # all of R^n: no rays, and lineality of rank n
        cone = FinitePointSet([[0, 0, 0]]).normal_cone([0, 0, 0])
        assert cone.rays.shape == (0, 3)
        assert np.linalg.matrix_rank(cone.lineality) == 3

    @pytest.mark.parametrize("point, distance", [([0.0, 0.0], "1"), ([5.0, 0.0], "4")], ids=["centre", "outside"])
    def test_point_off_the_set_raises(self, point, distance):
        # at the centre the radial normal would divide by zero; outside it would be the normal of another point
        with pytest.raises(ValueError, match=f"Sphere normal cone: the point is at distance {distance} from the set"):
            Sphere([0, 0], 1.0).normal_cone(point)

    def test_projected_point_at_large_scale_is_on_the_set(self):
        # projecting p again moves it by a few ulps of 1e8, farther than ON_SET_TOL, but within ON_SET_TOL (1 + |p|)
        s = Sphere([0, 0], 1e8)
        p = s.project([-2.5e7, 9.1e7])
        assert ON_SET_TOL < s.distance(p) < 1e-7
        np.testing.assert_allclose(np.abs(s.normal_cone(p).lineality[0]), np.abs(p) / 1e8, rtol=1e-12)
        assert not check_transversality(s, s, p).transversal

    @pytest.mark.parametrize("cls", [Ball, Sphere])
    def test_projected_point_near_the_origin_of_a_large_set_is_on_it(self, cls):
        # p near 0 inherits the rounding of c + (r/|d|) d at |c| = r = 1e8, up to about 1.5e-8:
        # beyond ON_SET_TOL (1 + |p|) when |p| < 14, always within ON_SET_TOL (1 + |p| + |c| + r)
        S, rng = cls([1e8, 0.0], 1e8), np.random.default_rng(0)
        z = rng.uniform(-1.0, 1.0, (2000, 2)) * 60.0
        for p in map(S.project, z[np.linalg.norm(z, axis=1) <= 60.0]):
            S.normal_cone(p)

    def test_sphere_centre_within_the_bound_is_the_tie_break_line(self):
        # the centre is on a sphere of radius 1e-12; its cone is the line of e_0, where project sends it
        cone = Sphere([0, 0], 1e-12).normal_cone([0, 0])
        assert cone.rays.shape == (0, 2)
        assert np.array_equal(cone.lineality, [[1.0, 0.0]])

    def test_ball_centre_within_the_bound_is_interior(self):
        # the centre of a ball of radius 1e-12 is an interior point, whose cone is {0}
        cone = Ball([0, 0], 1e-12).normal_cone([0, 0])
        assert cone.rays.shape == (0, 2) and cone.lineality.shape == (0, 2)

    @FEW
    @pytest.mark.parametrize("kind", ["box", "polyhedron", "fixed_rank"])
    @given(seed=st.integers(0, 2**32 - 1))
    def test_array_cones_have_the_bits_of_the_row_loops(self, kind, seed):
        # small integer data: points on faces and corners, and singular vectors with signed zeros
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        if kind == "box":
            lower = rng.integers(-2, 1, n).astype(float)
            S = Box(lower, lower + rng.integers(0, 3, n))
            p = S.project(rng.integers(-3, 4, n).astype(float))
        elif kind == "polyhedron":
            A = rng.integers(-2, 3, (int(rng.integers(0, 6)), n)).astype(float)
            S = Polyhedron(A, A @ rng.integers(-1, 2, n) + rng.integers(0, 2, len(A)))
            p = S.project(rng.integers(-3, 4, n).astype(float))
        else:
            rows = int(rng.integers(1, 5))
            r = int(rng.integers(1, min(rows, n) + 1))
            S = FixedRankMatrices(rows, n, r)
            # a product of rank at most r, with zero rows and columns
            p = (rng.integers(-1, 2, (rows, r)) @ rng.integers(-1, 2, (r, n))).reshape(-1).astype(float)
        try:
            cone = S.normal_cone(p)
        except RankDrop:
            return
        rays, lineality = normal_cone_reference(S, p)
        assert cone.rays.tobytes() == rays.tobytes() and cone.rays.shape == rays.shape
        assert cone.lineality.tobytes() == lineality.tobytes() and cone.lineality.shape == lineality.shape

    def test_fixed_rank_drop(self):
        s = FixedRankMatrices(2, 2, 2)
        with pytest.raises(RankDrop):
            s.normal_cone(np.diag([1.0, 0.0]).reshape(-1))

    def test_fixed_rank_drop_is_linalg_rank_rule(self):
        # sigma_r / sigma_1 at or below RANK_TOL is a drop; just above it the probe has rank r
        s = FixedRankMatrices(2, 2, 2)
        with pytest.raises(RankDrop):
            s.normal_cone(np.diag([1.0, RANK_TOL]).reshape(-1))
        assert s.normal_cone(np.diag([1.0, 5 * RANK_TOL]).reshape(-1)).lineality.shape == (0, 4)

    def test_fixed_rank_normal_space(self):
        s = FixedRankMatrices(3, 2, 1)
        point = np.outer([1.0, 0, 0], [1.0, 0]).reshape(-1)
        cone = s.normal_cone(point)
        assert cone.lineality.shape == (2, 6)  # (rows - r) * (cols - r)


class TestTransversality:
    def test_orthogonal_axes(self):
        a = AffineSubspace([0, 0], [[1, 0]])
        b = AffineSubspace([0, 0], [[0, 1]])
        assert check_transversality(a, b, [0, 0]).transversal

    def test_identical_hyperplanes_degenerate(self):
        h = Hyperplane([0.0, 1.0], 0.0)
        res = check_transversality(h, h, [1, 0])
        assert not res.transversal
        np.testing.assert_allclose(np.abs(res.witness / np.linalg.norm(res.witness)),
                                   [0, 1], atol=1e-9)

    def test_sphere_vs_hyperplane(self):
        a = Sphere([0, 0], 1.0)
        b = Hyperplane([0.0, 1.0], 0.0)
        assert check_transversality(a, b, [1, 0]).transversal

    def test_opposing_halfspaces_degenerate(self):
        a = Halfspace([1.0, 0.0], 0.0)
        b = Halfspace([-1.0, 0.0], 0.0)
        res = check_transversality(a, b, [0, 0])
        assert not res.transversal
        w = res.witness / np.linalg.norm(res.witness)
        np.testing.assert_allclose(np.abs(w), [1, 0], atol=1e-9)

    def test_box_corner_vs_halfspace_transversal(self):
        a = Box([0, 0], [1, 1])
        b = Halfspace([1.0, 0.0], 1.0)
        assert check_transversality(a, b, [1, 1]).transversal

    def test_large_rows_keep_decision(self):
        # N = cone{e1} on both sides meets -N only at 0, whatever the row's scale
        P = Polyhedron([[1e5, 0]], [0])
        assert check_transversality(P, P, [0, 0]).transversal

    def test_point_off_either_set_rejected(self):
        S, h = Sphere([0, 0], 1.0), Hyperplane([0.0, 1.0], 0.0)
        for A, B in ((S, h), (h, S)):
            with pytest.raises(ValueError, match="Sphere normal cone: the point is at distance 1 from the set"):
                check_transversality(A, B, [2, 0])

    def test_sets_of_different_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            check_transversality(Sphere([0, 0], 1.0), Sphere([0, 0, 0], 1.0), [1, 0])


def _has_row(G, g):
    return bool((G == g).all(axis=1).any())


def _outside_points(kind, n, scale, rng):
    """A set of this kind in R^n whose data are about scale in size, and 5 points, most outside it."""
    if kind == "box":
        lower = rng.standard_normal(n) * scale
        upper = lower + rng.uniform(0.1, 2.0, n) * scale
        return Box(lower, upper), lower + (upper - lower) * rng.uniform(-1.0, 2.0, (5, n))
    if kind == "ball":
        center, r = rng.standard_normal(n) * scale, rng.uniform(0.1, 2.0) * scale
        u = rng.standard_normal((5, n))
        u /= np.linalg.norm(u, axis=1)[:, None]
        return Ball(center, r), center + u * r * rng.uniform(1.01, 4.0, (5, 1))
    if kind == "halfspace":
        a, offset = rng.standard_normal(n), rng.standard_normal() * scale
        w = rng.standard_normal((5, n)) * scale
        # w moved onto the boundary, then a distance s * scale out along a
        t = (offset - w @ a) / (a @ a) + rng.uniform(0.01, 3.0, 5) * scale / np.linalg.norm(a)
        return Halfspace(a, offset), w + t[:, None] * a
    A = rng.standard_normal((int(rng.integers(1, 7)), n))
    x0 = rng.standard_normal(n) * scale
    b = A @ x0 + rng.uniform(0.0, 1.0, len(A)) * scale
    return Polyhedron(A, b), x0 + rng.standard_normal((5, n)) * 3.0 * scale


def _unit(v):
    return v / np.linalg.norm(v)


class TestProjectionNormals:
    """z - P_C(z) lies in N_C(P_C(z)) for a closed convex set C, at any scale of its data.

    The cone's rays are checked in closed form: the clipped coordinates of a
    box, the radial ray of a ball, the unit normal of a halfspace, and for a
    polyhedron every row with a positive multiplier in the projection QP's
    certificate.  An absolute activity bound gives a ball, a halfspace or a
    polyhedron the cone {0} at many such points of size 1e8.
    """

    @FEW
    @pytest.mark.parametrize("kind", ["box", "ball", "halfspace", "polyhedron"])
    @given(n=st.integers(1, 5), e=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
    def test_residual_is_in_the_reported_cone(self, kind, n, e, seed):
        S, zs = _outside_points(kind, n, 10.0**e, np.random.default_rng(seed))
        for z in zs:
            p = S.project(z)
            if np.array_equal(p, z):
                continue
            rays = S.normal_cone(p).rays
            if kind == "box":
                for i in np.flatnonzero(z != p):
                    assert _has_row(rays, np.sign(z[i] - p[i]) * np.eye(n)[i])
            elif kind in ("ball", "halfspace"):
                assert rays.shape[0] == 1
                np.testing.assert_allclose(rays[0], _unit(z - p), atol=1e-9)
            else:
                cert = qp.solve_projection_qp(qp.ProjectionQp(z, S.A_ineq, S.b_ineq, S.A_eq, S.b_eq))
                assert np.array_equal(cert.solution, p)
                for i in np.flatnonzero(cert.ineq_multipliers > 0):
                    assert _has_row(rays, S.A_ineq[i])

    @FEW
    @given(seed=st.integers(0, 2**32 - 1))
    def test_tangent_line_at_large_radius_is_not_transversal(self, seed):
        # as at radius 1: N_B(p) = cone{u} and N_H(p) = span{u} share the ray u
        rng = np.random.default_rng(seed)
        center, u = rng.standard_normal(2) * 1e8, _unit(rng.standard_normal(2))
        B = Ball(center, 1e8)
        p = B.project(center + u * 1e8 * rng.uniform(1.01, 4.0))
        d = _unit(p - center)
        assert not check_transversality(B, Hyperplane(d, d @ p), p).transversal

    def test_point_just_outside_a_large_ball_gets_its_ray(self):
        # 0.05 outside, within ON_SET_TOL (1 + |p|) = 0.1: on the boundary, so the cone is not {0}
        cone = Ball([0, 0], 1e8).normal_cone([1e8 + 0.05, 0])
        assert np.array_equal(cone.rays, [[1.0, 0.0]])


def _subspace_type_set(draw, rng, n, p):
    """(S, d, S_dup): a set through p whose normal cone at p is a subspace of dimension d.

    S_dup is S, or for an equality-only Polyhedron the same set with one of
    its equality rows repeated at a random nonzero scale.
    """
    kind = draw(st.sampled_from(["affine_subspace", "hyperplane", "polyhedron", "finite_point_set"]))
    if kind == "affine_subspace":
        k = draw(st.integers(0, n))
        S = AffineSubspace(p, np.linalg.qr(rng.standard_normal((n, n)))[0][:, :k].T)
        return S, n - k, S
    if kind == "hyperplane":
        a = rng.standard_normal(n)
        S = Hyperplane(a, a @ p)
        return S, 1, S
    if kind == "finite_point_set":
        S = FinitePointSet([p + rng.standard_normal(n), p])
        return S, n, S
    A = rng.standard_normal((draw(st.integers(1, n)), n))
    row = A[draw(st.integers(0, len(A) - 1))] * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)
    A_dup = np.vstack([A, row])
    return (Polyhedron(np.zeros((0, n)), [], A, A @ p), len(A),
            Polyhedron(np.zeros((0, n)), [], A_dup, A_dup @ p))


@st.composite
def _subspace_type_pairs(draw):
    """Sets A and B through a point p of R^n, 2 <= n <= 6, and the dimensions of N_A(p) and N_B(p)."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.standard_normal(n)
    (A, da, A_dup), (B, db, B_dup) = (_subspace_type_set(draw, rng, n, p) for _ in range(2))
    return A, B, A_dup, B_dup, da, db, p


def _in_subspace(w, L):
    """|w - P w| <= 1e-9 |w|, P the orthogonal projection onto the span of L's rows, by least squares."""
    c = np.linalg.lstsq(L.T, w, rcond=None)[0]
    return np.linalg.norm(L.T @ c - w) <= 1e-9 * np.linalg.norm(w)


class TestSubspaceTransversality:
    """Cones without rays are decided on the subspaces they span, whatever rows describe them."""

    @FEW
    @given(pair=_subspace_type_pairs())
    def test_verdict_and_witness(self, pair):
        # random subspaces are in general position: they meet only at 0 exactly when da + db <= n
        A, B, A_dup, B_dup, da, db, p = pair
        for S, T in ((A, B), (A_dup, B_dup)):
            res = check_transversality(S, T, p)
            assert res.transversal == (da + db <= p.size)
            if not res.transversal:
                assert np.linalg.norm(res.witness) > 0
                assert _in_subspace(res.witness, S.normal_cone(p).lineality)
                assert _in_subspace(-res.witness, T.normal_cone(p).lineality)


def _linprog_transversal(linprog, na, nb):
    """The cone decision made with scipy's linprog: one feasibility LP per A-side generator."""
    n = na.dim
    ka, ma = na.rays.shape[0], na.lineality.shape[0]
    kb, mb = nb.rays.shape[0], nb.lineality.shape[0]
    blocks = np.hstack([na.rays.T, na.lineality.T, nb.rays.T, nb.lineality.T])
    a_cols = blocks[:, : ka + ma]
    bounds = [(0, None)] * ka + [(None, None)] * ma + [(0, None)] * kb + [(None, None)] * mb
    for g in [*na.rays, *na.lineality, *(-na.lineality)]:
        norm_row = np.concatenate([g @ a_cols, np.zeros(kb + mb)])
        res = linprog(np.zeros(blocks.shape[1]), A_eq=np.vstack([blocks, norm_row]),
                      b_eq=np.append(np.zeros(n), 1.0), bounds=bounds, method="highs")
        if res.status == 0 and np.linalg.norm(a_cols @ res.x[: ka + ma]) > 1e-9:
            return False
    return True


def _cone_residual(nnls, v, cone):
    """Distance from v to cone(rays) + span(lineality), by nonnegative least squares."""
    gens = np.vstack([cone.rays, cone.lineality, -cone.lineality])
    return nnls(gens.T, v)[1]


@st.composite
def _cone_pairs(draw):
    """Normal cones N_A, N_B in R^n, n <= 6, with up to 4 rays and 2 lineality rows each.

    At least one side has rays, as check_transversality requires.
    Integer generators in [-2, 2] bring zero, repeated and opposite rows;
    Gaussian ones are in general position.  Returns the pair twice: as
    drawn, and with each row scaled by 10**uniform(-6, 6), which describes
    the same cones.
    """
    n = draw(st.integers(1, 6))
    ka, ma, kb, mb = (draw(st.integers(0, k)) for k in (4, 2, 4, 2))
    assume(ka + kb > 0 and ka + ma > 0 and kb + mb > 0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        ra, la, rb, lb = (rng.integers(-2, 3, (k, n)).astype(float) for k in (ka, ma, kb, mb))
    else:
        ra, la, rb, lb = (rng.standard_normal((k, n)) for k in (ka, ma, kb, mb))
    scaled = [G * 10.0 ** rng.uniform(-6, 6, (G.shape[0], 1)) for G in (ra, la, rb, lb)]
    return (NormalCone(n, ra, la), NormalCone(n, rb, lb)), (
        NormalCone(n, *scaled[:2]), NormalCone(n, *scaled[2:])
    )


class TestConeDecisions:
    """The QP decides each cone case as linprog did, with a witness in N_A and in -N_B.

    The QP sees the rescaled rows; linprog and the witness checks see the
    rows as drawn.
    """

    @given(pairs=_cone_pairs())
    def test_agrees_with_linprog(self, pairs):
        optimize = pytest.importorskip("scipy.optimize")
        (na, nb), scaled = pairs
        res = _cone_intersection(*scaled)
        assert res.transversal == _linprog_transversal(optimize.linprog, na, nb)
        if not res.transversal:
            assert _cone_residual(optimize.nnls, res.witness, na) <= 1e-8
            assert _cone_residual(optimize.nnls, -res.witness, nb) <= 1e-8


# json.dumps(s.to_json()) for one set of each variant: the problem-file format, byte for byte
PINNED_JSON = [
    (Box([0, -1.5], [1, 2.25]), '{"type": "box", "lower": [0.0, -1.5], "upper": [1.0, 2.25]}'),
    (Ball([0.5, -0.5], 2.0), '{"type": "ball", "center": [0.5, -0.5], "radius": 2.0}'),
    (Sphere([0, 0, 1e-300], 1),
     '{"type": "sphere", "center": [0.0, 0.0, 1e-300], "radius": 1.0}'),
    (AffineSubspace([1, 0, 0], [[0, 1, 0], [0, 0, 1]]),
     '{"type": "affine_subspace", "anchor": [1.0, 0.0, 0.0],'
     ' "basis": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}'),
    (AffineSubspace([1, 2], np.zeros((0, 2))),
     '{"type": "affine_subspace", "anchor": [1.0, 2.0], "basis": []}'),
    (AffineSubspace([0, 0], [[2**-0.5, 2**-0.5]]),
     '{"type": "affine_subspace", "anchor": [0.0, 0.0],'
     ' "basis": [[0.7071067811865476, 0.7071067811865476]]}'),
    (Hyperplane([1.0, 2.0], 3), '{"type": "hyperplane", "normal": [1.0, 2.0], "offset": 3.0}'),
    (Halfspace([1.0, -1.0], 0.5), '{"type": "halfspace", "normal": [1.0, -1.0], "offset": 0.5}'),
    (FinitePointSet([[0, 0], [1, 1], [2, 0.1]]),
     '{"type": "finite_point_set", "points": [[0.0, 0.0], [1.0, 1.0], [2.0, 0.1]]}'),
    (FixedRankMatrices(2, 3, 1), '{"type": "fixed_rank_matrices", "rows": 2, "cols": 3, "rank": 1}'),
    (Polyhedron([[1, 0], [0, 1]], [1, 1]),
     '{"type": "polyhedron", "A_ineq": [[1.0, 0.0], [0.0, 1.0]], "b_ineq": [1.0, 1.0],'
     ' "A_eq": [], "b_eq": []}'),
    (Polyhedron([[1, 0], [0, 1], [1, 1]], [1, 1, 1.5], [[1, -1]], [0]),
     '{"type": "polyhedron", "A_ineq": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],'
     ' "b_ineq": [1.0, 1.0, 1.5], "A_eq": [[1.0, -1.0]], "b_eq": [0.0]}'),
]
# one complete set JSON per variant; a polyhedron's optional A_eq and b_eq are left out
COMPLETE_JSON = [
    {"type": "box", "lower": [0, 0], "upper": [1, 1]},
    {"type": "ball", "center": [0, 0], "radius": 1},
    {"type": "sphere", "center": [0, 0], "radius": 1},
    {"type": "affine_subspace", "anchor": [0, 0], "basis": [[1, 0]]},
    {"type": "hyperplane", "normal": [0, 1], "offset": 0},
    {"type": "halfspace", "normal": [0, 1], "offset": 0},
    {"type": "finite_point_set", "points": [[0, 0]]},
    {"type": "fixed_rank_matrices", "rows": 2, "cols": 2, "rank": 1},
    {"type": "polyhedron", "A_ineq": [[1, 0]], "b_ineq": [1]},
]


class TestJson:
    @pytest.mark.parametrize("s, text", PINNED_JSON, ids=lambda x: type(x).__name__)
    def test_bytes_pinned(self, s, text):
        assert json.dumps(s.to_json()) == text
        assert json.dumps(set_from_json(json.loads(text)).to_json()) == text

    @pytest.mark.parametrize("s", CONVEX_SETS + NONCONVEX_SETS)
    def test_round_trip(self, s):
        again = set_from_json(s.to_json())
        assert again.to_json() == s.to_json()
        z = ambient_sample(s, np.random.default_rng(1))
        np.testing.assert_allclose(again.project(z), s.project(z))

    def test_missing_type(self):
        with pytest.raises(ValueError, match="type"):
            set_from_json({"center": [0, 0]})

    def test_missing_field_named(self):
        # every required field of every variant
        for obj in COMPLETE_JSON:
            set_from_json(obj)
            for field in obj.keys() - {"type"}:
                message = f"^set JSON of type '{obj['type']}' missing field '{field}'$"
                with pytest.raises(ValueError, match=message):
                    set_from_json({k: v for k, v in obj.items() if k != field})

    def test_unknown_type_lists_accepted_names(self):
        with pytest.raises(ValueError, match="finite_point_set") as exc:
            set_from_json({"type": "finite_points"})
        assert "fixed_rank_matrices" in str(exc.value)
