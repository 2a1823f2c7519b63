import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import altproj
from altproj import (
    AffineSubspace,
    Ball,
    Box,
    FinitePointSet,
    FixedRankMatrices,
    Halfspace,
    Hyperplane,
    NormalConeProbe,
    Polyhedron,
    Sphere,
    check_transversality,
    set_from_json,
)
from altproj.errors import DimensionMismatch, RankDrop

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

    def test_projection_imports_no_scipy(self):
        # scipy.linalg cost set-up time and memory when the QP imported it
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from altproj import Polyhedron, ProjectionQp, solve_projection_qp\n"
            "P = Polyhedron([[1, 0], [0, 1], [1, 1]], [1, 1, 1.5], [[1, -1]], [0])\n"
            "P.project([3, 2])\n"
            "solve_projection_qp(ProjectionQp([3, 2], [[1, 1]], [1], np.zeros((0, 2)), []))\n"
            "if 'scipy' in sys.modules:\n"
            "    sys.exit('scipy was imported')\n"
        )
        src = os.path.dirname(os.path.dirname(altproj.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


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
        probe = NormalConeProbe(Sphere([0, 0], 1.0), [1, 0])
        cone = probe.set.normal_cone(probe.point)
        assert cone.lineality.shape == (1, 2)
        np.testing.assert_allclose(np.abs(cone.lineality[0]), [1, 0], atol=1e-12)

    def test_hyperplane_normal(self):
        h = Hyperplane([0.0, 2.0], 1.0)
        probe = NormalConeProbe(h, [3.0, 0.5])
        cone = probe.set.normal_cone(probe.point)
        np.testing.assert_allclose(np.abs(cone.lineality[0]), [0, 1], atol=1e-12)

    def test_box_corner_cone(self):
        probe = NormalConeProbe(Box([0, 0], [1, 1]), [1, 1])
        cone = probe.set.normal_cone(probe.point)
        rays = sorted(map(tuple, cone.rays))
        assert rays == [(0.0, 1.0), (1.0, 0.0)]

    def test_finite_point_full_space(self):
        probe = NormalConeProbe(FinitePointSet([[0, 0]]), [0, 0])
        cone = probe.set.normal_cone(probe.point)
        assert cone.full

    def test_fixed_rank_drop(self):
        s = FixedRankMatrices(2, 2, 2)
        with pytest.raises(RankDrop):
            s.normal_cone(np.diag([1.0, 0.0]).reshape(-1))

    def test_fixed_rank_normal_space(self):
        s = FixedRankMatrices(3, 2, 1)
        point = np.outer([1.0, 0, 0], [1.0, 0]).reshape(-1)
        cone = s.normal_cone(point)
        assert cone.lineality.shape == (2, 6)  # (rows - r) * (cols - r)

    def test_probe_rejects_off_set_point(self):
        with pytest.raises(ValueError):
            NormalConeProbe(Sphere([0, 0], 1.0), [2, 0])


class TestTransversality:
    def test_orthogonal_axes(self):
        a = NormalConeProbe(AffineSubspace([0, 0], [[1, 0]]), [0, 0])
        b = NormalConeProbe(AffineSubspace([0, 0], [[0, 1]]), [0, 0])
        assert check_transversality(a, b).transversal

    def test_identical_hyperplanes_degenerate(self):
        h = Hyperplane([0.0, 1.0], 0.0)
        a = NormalConeProbe(h, [1, 0])
        b = NormalConeProbe(h, [1, 0])
        res = check_transversality(a, b)
        assert not res.transversal
        np.testing.assert_allclose(np.abs(res.witness / np.linalg.norm(res.witness)),
                                   [0, 1], atol=1e-9)

    def test_sphere_vs_hyperplane(self):
        a = NormalConeProbe(Sphere([0, 0], 1.0), [1, 0])
        b = NormalConeProbe(Hyperplane([0.0, 1.0], 0.0), [1, 0])
        assert check_transversality(a, b).transversal

    def test_opposing_halfspaces_degenerate(self):
        a = NormalConeProbe(Halfspace([1.0, 0.0], 0.0), [0, 0])
        b = NormalConeProbe(Halfspace([-1.0, 0.0], 0.0), [0, 0])
        res = check_transversality(a, b)
        assert not res.transversal
        w = res.witness / np.linalg.norm(res.witness)
        np.testing.assert_allclose(np.abs(w), [1, 0], atol=1e-9)

    def test_box_corner_vs_halfspace_transversal(self):
        a = NormalConeProbe(Box([0, 0], [1, 1]), [1, 1])
        b = NormalConeProbe(Halfspace([1.0, 0.0], 1.0), [1, 1])
        assert check_transversality(a, b).transversal


class TestJson:
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
        with pytest.raises(ValueError, match="radius"):
            set_from_json({"type": "ball", "center": [0, 0]})

    def test_unknown_type_lists_accepted_names(self):
        with pytest.raises(ValueError, match="finite_point_set") as exc:
            set_from_json({"type": "finite_points"})
        assert "fixed_rank_matrices" in str(exc.value)
