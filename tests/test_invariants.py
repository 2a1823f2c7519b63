"""Invariants the theory guarantees, as property tests.

Projections onto closed convex sets are idempotent and nonexpansive.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from altproj import Polyhedron


@st.composite
def polyhedra_and_points(draw):
    """A nonempty polyhedron in R^n, n <= 10, with up to 4n inequality and 0-2 equality rows."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(0, 4 * n))
    n_eq = draw(st.integers(0, min(2, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x_feas = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    C = rng.standard_normal((n_eq, n))
    P = Polyhedron(A, A @ x_feas + rng.uniform(0.0, 1.0, m), C, C @ x_feas)
    return P, rng.standard_normal(n) * 2, rng.standard_normal(n) * 2


class TestPolyhedronProjection:
    @given(case=polyhedra_and_points())
    def test_idempotent(self, case):
        P, z, _ = case
        x = P.project(z)
        np.testing.assert_allclose(P.project(x), x, atol=1e-9)

    @given(case=polyhedra_and_points())
    def test_nonexpansive(self, case):
        P, z, w = case
        assert np.linalg.norm(P.project(z) - P.project(w)) <= np.linalg.norm(z - w) + 1e-9
