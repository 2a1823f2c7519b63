import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altproj import linalg
from altproj.errors import RankDeficient


def reconstruct(U, sigma, V, shape):
    S = np.zeros(shape)
    S[: len(sigma), : len(sigma)][np.diag_indices(len(sigma))] = sigma
    return U @ S @ V.T


class TestLeastSquares:
    def test_identity(self):
        s = linalg.least_squares(np.eye(2), [3, 4])
        np.testing.assert_allclose(s, [3, 4])

    def test_single_column(self):
        # normal equations A^T A s = A^T b give 2s = 2
        s = linalg.least_squares(np.array([[1.0], [1.0]]), [0, 2])
        np.testing.assert_allclose(s, [1.0])

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            linalg.least_squares(np.zeros((2, 2)), [1, 1])

    def test_residual_orthogonal_to_range(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = rng.integers(2, 9)
            n = rng.integers(1, m + 1)
            A = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            s = linalg.least_squares(A, b)
            resid = A.T @ (A @ s - b)
            assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(A) * max(
                np.linalg.norm(b), 1.0
            )

    def test_agrees_with_normal_equations_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            A = rng.standard_normal((6, 3))
            b = rng.standard_normal(6)
            s = linalg.least_squares(A, b)
            oracle = np.linalg.solve(A.T @ A, A.T @ b)
            np.testing.assert_allclose(s, oracle, atol=1e-10)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 0)])
    def test_no_columns_gives_empty_step(self, shape):
        assert linalg.least_squares(np.zeros(shape), np.ones(shape[0])).shape == (0,)

    def test_wide_rejected(self):
        with pytest.raises(RankDeficient):
            linalg.least_squares(np.eye(2, 3), [1, 1])

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 12),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_agrees_with_lstsq(self, m, data, seed, log_scale):
        # A = U diag(sigma) V^T with condition number <= 1e6
        n = data.draw(st.integers(1, m))
        log_sigma = data.draw(st.lists(st.floats(-6.0, 0.0), min_size=n, max_size=n))
        b = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m)))
        rng = np.random.default_rng(seed)
        U, _ = np.linalg.qr(rng.standard_normal((m, m)))
        V, _ = np.linalg.qr(rng.standard_normal((n, n)))
        sigma = 10.0 ** (log_scale + np.array(log_sigma))
        A = (U[:, :n] * sigma) @ V.T
        oracle = np.linalg.lstsq(A, b, rcond=None)[0]
        s = linalg.least_squares(A, b)
        # Any backward-stable solve has a forward error term u * kappa^2 * |r| / |A|
        # besides the relative one; with kappa near 1e6 and a large residual r it
        # exceeds 1e-9 |x| for both solvers.
        kappa = sigma.max() / sigma.min()
        tol = 1e-9 * np.linalg.norm(oracle) + 1e-13 * kappa**2 * np.linalg.norm(A @ oracle - b) / sigma.max()
        assert np.linalg.norm(s - oracle) <= tol

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 12), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_low_inner_dimension_rejected(self, m, data, seed):
        n = data.draw(st.integers(1, m))
        r = data.draw(st.integers(0, n - 1))
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        with pytest.raises(RankDeficient):
            linalg.least_squares(A, rng.standard_normal(m))


class TestSvd:
    def test_diagonal(self):
        _, sigma, _ = linalg.svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(sigma, [3, 1])

    def test_zero(self):
        _, sigma, _ = linalg.svd(np.zeros((2, 2)))
        np.testing.assert_allclose(sigma, [0, 0])

    def test_antidiagonal(self):
        # eigenvalues of A^T A are 4 and 1
        _, sigma, _ = linalg.svd(np.array([[0.0, 2.0], [1.0, 0.0]]))
        np.testing.assert_allclose(sigma, [2, 1])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            A = rng.standard_normal((6, 6))
            U, sigma, V = linalg.svd(A)
            err = np.linalg.norm(reconstruct(U, sigma, V, A.shape) - A)
            assert err <= 1e-9 * np.linalg.norm(A)
            assert np.all(np.diff(sigma) <= 1e-12)
            assert np.all(sigma >= 0)

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((5, 3))
        U, _, V = linalg.svd(A)
        assert np.max(np.abs(U.T @ U - np.eye(U.shape[1]))) <= 1e-9
        assert np.max(np.abs(V.T @ V - np.eye(V.shape[1]))) <= 1e-9


class TestRank:
    def test_counts_above_rank_tol_of_the_largest(self):
        sigma = np.array([2.0, 2.0 * linalg.RANK_TOL * 1.5, 2.0 * linalg.RANK_TOL, 0.0])
        assert linalg.rank(sigma) == 2
        assert linalg.rank(np.zeros(3)) == linalg.rank(np.zeros(0)) == 0

    def test_row_basis_spans_dependent_rows_orthonormally(self):
        # three rows spanning a plane of R^3, one of them a scaled copy
        L = np.array([[1.0, 2.0, 0.0], [-3e5, -6e5, 0.0], [0.0, 1.0, 1.0]])
        Q = linalg.row_basis(L)
        assert Q.shape == (2, 3)
        np.testing.assert_allclose(Q @ Q.T, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(L - (L @ Q.T) @ Q, 0.0, atol=1e-9)

    def test_row_basis_of_no_rows_is_empty(self):
        assert linalg.row_basis(np.zeros((0, 4))).shape == (0, 4)


def same_norm(v):
    """linalg.norm(v) is a float, the same float64 as np.linalg.norm(v) bit for bit or both NaN.

    An overflow of the dot to inf warns in both; the comparison ignores it.
    """
    with np.errstate(over="ignore"):
        a, b = linalg.norm(v), float(np.linalg.norm(v))
    return type(a) is float and ((math.isnan(a) and math.isnan(b)) or
                                 np.float64(a).tobytes() == np.float64(b).tobytes())


class TestNorm:
    @pytest.mark.parametrize("v", [
        [], [0.0], [-0.0], [0.0, -0.0], [3.0, 4.0], [-3.0, -4.0],
        [1e200, 1e200], [-1e308, 1e308], [np.inf, 1.0], [-np.inf],
        [1e-200, 1e-200, 1e-200], [5e-324], [np.nan, 1.0], [np.inf, np.nan],
    ])
    def test_edge_vectors_match_numpy(self, v):
        assert same_norm(np.array(v, dtype=float))

    @given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=64))
    def test_any_floats_match_numpy(self, values):
        assert same_norm(np.array(values, dtype=float))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200), log_scale=st.integers(-160, 160))
    def test_random_vectors_match_numpy(self, seed, n, log_scale):
        # huge scales overflow the dot to inf and tiny ones underflow it to 0, in numpy too
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n) * 10.0 ** (log_scale * rng.random(n) ** 0.25 * np.sign(log_scale))
        d = v - rng.standard_normal(n)  # a difference, as the drivers pass
        assert same_norm(v) and same_norm(d) and same_norm(v[::-1].copy())

    def test_overflow_warns_as_numpy_does(self):
        v = np.array([1e200, 1e200])
        for norm in (linalg.norm, np.linalg.norm):
            with pytest.warns(RuntimeWarning, match="overflow"):
                assert norm(v) == math.inf
