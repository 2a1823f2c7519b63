"""Exact alternating projections between random linear subspaces contract at rate at most c_F^2.

For subspaces U and V the iterates from z0 converge to the projection of z0
onto U ∩ V, and every gap ratio is at most c_F^2, where c_F, the cosine of
the Friedrichs angle, is the largest cosine of a principal angle between U
and V outside their intersection (Deutsch, Best Approximation in Inner
Product Spaces, 2001, ch. 9; the linear case of Lewis, Luke & Malick, FoCM 9,
2009).  The cosines are the singular values of B_U B_V^T, computed here
apart from the package.

z0 is drawn orthogonal to U ∩ V, so the iterates converge to 0 and each gap
is rounded relative to its own size.  From a z0 with a component in U ∩ V
they converge to a point of norm about 1, and the last gaps before the
default gap_tol of 1e-10 carry about 1e-6 of relative rounding: the measured
rate then exceeds c_F^2 by up to about 1e-6.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from altproj import AffineSubspace, fit_rate, run_exact
from altproj.errors import InsufficientData

C_F_MAX = 0.995     # closer to 1 a run needs more than a few thousand iterations
SLACK = 1e-12       # rounding: the largest excess over 2789 draws was 2.6e-15
NOISE_FLOOR = 100 * np.finfo(float).eps     # fit_rate's: smaller gaps are rounding


@st.composite
def subspace_pairs(draw):
    """(B_U, B_V, z0): orthonormal bases of random subspaces of R^n, 3 <= n <= 8, and a start point."""
    n = draw(st.integers(3, 8))
    k_u, k_v = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B_u = np.linalg.qr(rng.standard_normal((n, k_u)))[0].T
    B_v = np.linalg.qr(rng.standard_normal((n, k_v)))[0].T
    return B_u, B_v, rng.standard_normal(n)


def friedrichs(B_u, B_v):
    """(c_F, I): the Friedrichs cosine of U and V, and orthonormal rows spanning U ∩ V.

    Random subspaces are in general position, so U ∩ V has dimension
    d = max(0, k_U + k_V - n): the d largest cosines are 1, and the next is c_F.
    """
    d = max(0, B_u.shape[0] + B_v.shape[0] - B_u.shape[1])
    left, cosines, _ = np.linalg.svd(B_u @ B_v.T)
    return cosines[d], (B_u.T @ left[:, :d]).T


@settings(max_examples=max(10, settings.default.max_examples // 10), deadline=None)
@given(pair=subspace_pairs())
def test_exact_rate_is_at_most_the_squared_friedrichs_cosine(pair):
    B_u, B_v, z0 = pair
    c_f, meet = friedrichs(B_u, B_v)
    assume(c_f <= C_F_MAX)
    z0 = z0 - meet.T @ (meet @ z0)
    n = z0.size
    trace = run_exact(AffineSubspace(np.zeros(n), B_u), AffineSubspace(np.zeros(n), B_v), z0)
    assert trace.status == "Converged"
    gaps = trace.gaps[trace.gaps > NOISE_FLOOR]
    assert np.all(gaps[1:] <= (c_f**2 + SLACK) * gaps[:-1])
    try:
        rate = fit_rate(trace).rate
    except InsufficientData:
        return      # fewer than 6 gaps above the floor: the ratios above are all there is
    assert rate <= c_f**2 + SLACK
