"""Jacobian factorization, null-space bases, and reduced eigenproblems."""

import numpy as np
import pytest

from cubeq.errors import RankDeficient
from cubeq.linalg import (factorize_jacobian, min_eig_reduced,
                          range_least_squares, reduce_matrix)


def _random_full_rank(rng, m, n):
    # rejection keeps the smallest singular value healthy
    while True:
        A = rng.standard_normal((m, n))
        if np.linalg.svd(A, compute_uv=False)[-1] > 0.1:
            return A


class TestFactorization:
    @pytest.mark.parametrize("m,n", [(1, 2), (2, 4), (3, 7)])
    def test_null_space_basis(self, m, n):
        """A Z = 0 and Z^T Z = I for the returned basis."""
        rng = np.random.default_rng(11 + m)
        for _ in range(25):
            A = _random_full_rank(rng, m, n)
            fact = factorize_jacobian(A)
            assert fact.Z.shape == (n, n - m)
            np.testing.assert_allclose(A @ fact.Z, 0, atol=1e-12)
            np.testing.assert_allclose(fact.Z.T @ fact.Z, np.eye(n - m),
                                       atol=1e-13)

    def test_smallest_singular_value_matches_svd(self):
        rng = np.random.default_rng(5)
        A = _random_full_rank(rng, 2, 5)
        fact = factorize_jacobian(A)
        s = np.linalg.svd(A, compute_uv=False)
        assert fact.smallest_singular_value == pytest.approx(s[-1], rel=1e-14)

    def test_rank_deficient_rows_raise(self):
        A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        with pytest.raises(RankDeficient):
            factorize_jacobian(A)

    def test_zero_matrix_raises(self):
        with pytest.raises(RankDeficient):
            factorize_jacobian(np.zeros((1, 3)))

    def test_near_deficiency_respects_rank_tol(self):
        A = np.array([[1.0, 0.0, 0.0], [1.0, 1e-12, 0.0]])  # s2/s1 ~ 7e-13
        with pytest.raises(RankDeficient):
            factorize_jacobian(A, rank_tol=1e-10)
        fact = factorize_jacobian(A, rank_tol=1e-14)
        assert fact.Z.shape == (3, 1)

    def test_square_jacobian_rejected(self):
        with pytest.raises(ValueError, match="1 <= m < n"):
            factorize_jacobian(np.eye(2))


class TestRangeLeastSquares:
    def test_matches_pseudoinverse(self):
        """range_least_squares(F, r) = -pinv(A) r for full row rank A."""
        rng = np.random.default_rng(17)
        for m, n in [(1, 2), (2, 4), (3, 6)]:
            for _ in range(20):
                A = _random_full_rank(rng, m, n)
                rhs = rng.standard_normal(m)
                fact = factorize_jacobian(A)
                x = range_least_squares(fact, rhs)
                np.testing.assert_allclose(x, -np.linalg.pinv(A) @ rhs,
                                           atol=1e-12)
                # exact solve for full row rank: A x + rhs = 0
                np.testing.assert_allclose(A @ x + rhs, 0, atol=1e-12)
                # x lies in range(A^T)
                np.testing.assert_allclose(fact.Z.T @ x, 0, atol=1e-12)


class TestReducedEig:
    def test_reduce_matrix_symmetric(self):
        rng = np.random.default_rng(23)
        A = _random_full_rank(rng, 2, 5)
        M = rng.standard_normal((5, 5))
        M = M + M.T
        fact = factorize_jacobian(A)
        R = reduce_matrix(fact, M)
        np.testing.assert_array_equal(R, R.T)
        np.testing.assert_allclose(R, fact.Z.T @ M @ fact.Z, atol=1e-13)

    def test_min_eig_matches_dense_solver(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            A = _random_full_rank(rng, 2, 6)
            M = rng.standard_normal((6, 6))
            M = 0.5 * (M + M.T)
            fact = factorize_jacobian(A)
            lam, q = min_eig_reduced(fact, M)
            R = fact.Z.T @ M @ fact.Z
            assert lam == pytest.approx(np.linalg.eigvalsh(R)[0], abs=1e-12)
            np.testing.assert_allclose(R @ q, lam * q, atol=1e-10)
            assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)

    def test_eigenvalue_interlacing(self):
        """Eigenvalues of Z^T M Z interlace those of M."""
        rng = np.random.default_rng(31)
        m, n = 2, 6
        for _ in range(25):
            A = _random_full_rank(rng, m, n)
            M = rng.standard_normal((n, n))
            M = 0.5 * (M + M.T)
            fact = factorize_jacobian(A)
            outer = np.linalg.eigvalsh(M)
            inner = np.linalg.eigvalsh(fact.Z.T @ M @ fact.Z)
            for i, val in enumerate(inner):
                assert outer[i] - 1e-10 <= val <= outer[i + m] + 1e-10
