import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altproj import linalg
from altproj.errors import NonConvergence, RankDeficient


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
