"""Invariants the theory guarantees, as property tests.

Projections onto closed sets are idempotent, and onto closed convex sets
nonexpansive.  Exact alternating projections between any two closed sets
never increase the gap: |z' - x'| <= |z' - x| <= |z - x| because each new
point is nearest to the last among points that include the old one.
A set read back from its JSON is the same set, bit for bit.
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from altproj import (
    AffineSubspace,
    Ball,
    Box,
    FinitePointSet,
    FixedRankMatrices,
    Halfspace,
    Hyperplane,
    Polyhedron,
    SolveOptions,
    Sphere,
    run_exact,
    run_inexact,
    set_from_json,
)

CONVEX = ["box", "ball", "affine_subspace", "hyperplane", "halfspace", "polyhedron"]
NONCONVEX = ["sphere", "finite_point_set", "fixed_rank_matrices"]
# Polyhedron projection has its own class below, with m up to 4n
OTHER_CONVEX = [k for k in CONVEX if k != "polyhedron"]
ALL = CONVEX + NONCONVEX


def _polyhedron(draw, n, rng):
    """A nonempty polyhedron in R^n with up to 4n inequality and 0-2 equality rows."""
    m = draw(st.integers(0, 4 * n))
    n_eq = draw(st.integers(0, min(2, n)))
    x_feas = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    C = rng.standard_normal((n_eq, n))
    return Polyhedron(A, A @ x_feas + rng.uniform(0.0, 1.0, m), C, C @ x_feas)


def _random_set(draw, kind, n, rng):
    """A random set of one of the nine variants in R^n."""
    c = rng.standard_normal(n)
    if kind == "box":
        return Box(c, c + rng.uniform(0.0, 2.0, n))
    if kind == "ball":
        return Ball(c, rng.uniform(0.1, 3.0))
    if kind == "sphere":
        return Sphere(c, rng.uniform(0.1, 3.0))
    if kind == "affine_subspace":
        k = rng.integers(0, n + 1)
        return AffineSubspace(c, np.linalg.qr(rng.standard_normal((n, k)))[0].T)
    if kind == "hyperplane":
        return Hyperplane(rng.standard_normal(n), rng.standard_normal())
    if kind == "halfspace":
        return Halfspace(rng.standard_normal(n), rng.standard_normal())
    if kind == "finite_point_set":
        return FinitePointSet(rng.standard_normal((rng.integers(1, 7), n)) * 2)
    if kind == "fixed_rank_matrices":
        rows = int(rng.choice([d for d in range(1, n + 1) if n % d == 0]))
        cols = n // rows
        return FixedRankMatrices(rows, cols, rng.integers(1, min(rows, cols) + 1))
    return _polyhedron(draw, n, rng)


@st.composite
def sets_and_points(draw, kind):
    """A random set of the given kind in R^n, n <= 10, and points z, w, w_near to project.

    z and w are independent N(0, 4I) draws.  w_near is z moved by 1e-3 to
    10 times a Gaussian step, so that some pairs land close together on
    the same face of the set.
    """
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    S = _random_set(draw, kind, n, rng)
    z, w = rng.standard_normal(n) * 2, rng.standard_normal(n) * 2
    step = 10.0 ** draw(st.floats(-3, 1)) * rng.standard_normal(n)
    return S, z, w, z + step


@st.composite
def pairs_and_starts(draw, q_kinds=ALL, m_kinds=ALL):
    """Two random sets Q, M in R^n, n <= 8, of kinds drawn from q_kinds and m_kinds, and a start."""
    q_kind, m_kind = draw(st.sampled_from(q_kinds)), draw(st.sampled_from(m_kinds))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q, M = _random_set(draw, q_kind, n, rng), _random_set(draw, m_kind, n, rng)
    return Q, M, rng.standard_normal(n) * 2


class TestPolyhedronProjection:
    @given(case=sets_and_points("polyhedron"))
    def test_idempotent(self, case):
        P, z, _, _ = case
        x = P.project(z)
        np.testing.assert_allclose(P.project(x), x, atol=1e-9)

    @given(case=sets_and_points("polyhedron"))
    def test_nonexpansive(self, case):
        P, z, *ws = case
        for w in ws:
            assert np.linalg.norm(P.project(z) - P.project(w)) <= np.linalg.norm(z - w) + 1e-9


class TestProjection:
    @pytest.mark.parametrize("kind", OTHER_CONVEX + NONCONVEX)
    @given(data=st.data())
    def test_idempotent(self, kind, data):
        S, z, _, _ = data.draw(sets_and_points(kind))
        x = S.project(z)
        np.testing.assert_allclose(S.project(x), x, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("kind", OTHER_CONVEX)
    @given(data=st.data())
    def test_nonexpansive(self, kind, data):
        S, z, *ws = data.draw(sets_and_points(kind))
        for w in ws:
            assert np.linalg.norm(S.project(z) - S.project(w)) <= np.linalg.norm(z - w) + 1e-9


class TestJson:
    @pytest.mark.parametrize("kind", ALL)
    @given(data=st.data())
    def test_round_trip_is_bitwise(self, kind, data):
        S, z, _, _ = data.draw(sets_and_points(kind))
        text = json.dumps(S.to_json())
        again = set_from_json(json.loads(text))
        assert json.dumps(again.to_json()) == text
        assert again._project(z).tobytes() == S._project(z).tobytes()


OPTS = SolveOptions(gap_tol=1e-10, max_iters=100)
WITHOUT_POLYHEDRON = [k for k in ALL if k != "polyhedron"]


class TestDrivers:
    @pytest.mark.parametrize(
        "q_kinds, m_kinds",
        [
            pytest.param(WITHOUT_POLYHEDRON, WITHOUT_POLYHEDRON, id="without-polyhedron"),
            pytest.param(["polyhedron"], ALL, id="polyhedron-first"),
            pytest.param(ALL, ["polyhedron"], id="polyhedron-second"),
        ],
    )
    @given(data=st.data())
    def test_exact_gap_nonincreasing(self, q_kinds, m_kinds, data):
        Q, M, z0 = data.draw(pairs_and_starts(q_kinds, m_kinds))
        g = run_exact(Q, M, z0, OPTS).gaps
        for k in range(len(g) - 1):
            assert g[k + 1] <= g[k] * (1 + 1e-12), (k, g[k], g[k + 1])

    @given(case=pairs_and_starts(), seed=st.integers(0, 2**32 - 1))
    def test_inexact_at_zero_eps_is_exact_bitwise(self, case, seed):
        Q, M, z0 = case
        a = run_exact(Q, M, z0, OPTS)
        b = run_inexact(Q, M, z0, 0.0, seed, OPTS)
        assert (a.status, a.initial_projected) == (b.status, b.initial_projected)
        for col in ("zs", "xs", "gaps", "dist_q", "dist_m"):
            bits_a, bits_b = (np.asarray(getattr(t, col)).view(np.int64) for t in (a, b))
            np.testing.assert_array_equal(bits_a, bits_b)
