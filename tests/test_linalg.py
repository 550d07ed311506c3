"""Jacobian factorization, null-space maps, reduced eigenproblems, least-squares
multiplier estimates, normal steps and correction steps."""

import importlib.util
from types import SimpleNamespace

import numpy as np
import pytest

from cubeq import linalg
from cubeq.errors import RankDeficient
from cubeq.linalg import (compute_correction, compute_vc, estimate_multipliers,
                          factorize_jacobian, range_least_squares, reduce_matrix)
from helpers import null_basis, random_full_rank, random_system

EPS = np.finfo(float).eps


class TestFactorization:
    @pytest.mark.parametrize("m,n", [(1, 2), (2, 4), (3, 7)])
    def test_null_space_basis(self, m, n):
        """A Z = 0 and Z^T Z = I for the returned basis."""
        rng = np.random.default_rng(11 + m)
        for _ in range(25):
            A = random_full_rank(rng, m, n)
            Z = null_basis(factorize_jacobian(A))
            assert Z.shape == (n, n - m)
            np.testing.assert_allclose(A @ Z, 0, atol=1e-12)
            np.testing.assert_allclose(Z.T @ Z, np.eye(n - m),
                                       atol=1e-13)

    def test_smallest_singular_value_matches_svd(self):
        rng = np.random.default_rng(5)
        A = random_full_rank(rng, 2, 5)
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
        assert null_basis(fact).shape == (3, 1)

    def test_square_jacobian_rejected(self):
        with pytest.raises(ValueError, match="1 <= m < n"):
            factorize_jacobian(np.eye(2))


class TestRangeLeastSquares:
    def test_matches_pseudoinverse(self):
        """range_least_squares(F, r) = -pinv(A) r for full row rank A."""
        rng = np.random.default_rng(17)
        for m, n in [(1, 2), (2, 4), (3, 6)]:
            for _ in range(20):
                A = random_full_rank(rng, m, n)
                rhs = rng.standard_normal(m)
                fact = factorize_jacobian(A)
                x = range_least_squares(fact, rhs)
                np.testing.assert_allclose(x, -np.linalg.pinv(A) @ rhs,
                                           atol=1e-12)
                # exact solve for full row rank: A x + rhs = 0
                np.testing.assert_allclose(A @ x + rhs, 0, atol=1e-12)
                # x lies in range(A^T)
                np.testing.assert_allclose(fact.to_null(x), 0, atol=1e-12)


class TestComputeCorrection:
    def test_zero_residual_gives_zero_step(self):
        fact = factorize_jacobian(np.array([[1.0, 0.0]]))
        w = compute_correction(fact, np.zeros(1), 0.0, 0.0)
        np.testing.assert_array_equal(w, np.zeros(2))

    def test_axis_example(self):
        fact = factorize_jacobian(np.array([[1.0, 0.0]]))
        w = compute_correction(fact, np.array([0.08]), 0.0, 0.0)
        np.testing.assert_allclose(w, [-0.08, 0.0], atol=1e-15)

    def test_matches_pseudoinverse(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            A = rng.standard_normal((2, 4))
            c_trial = rng.standard_normal(2)
            fact = factorize_jacobian(A)
            w = compute_correction(fact, c_trial, 0.0, 0.0)
            np.testing.assert_allclose(w, -np.linalg.pinv(A) @ c_trial,
                                       atol=1e-10)
            # row-space membership and exact least-squares residual
            np.testing.assert_allclose(null_basis(fact).T @ w, 0, atol=1e-10)
            np.testing.assert_allclose(A @ w + c_trial, 0, atol=1e-10)


class TestComputeVc:
    def test_zero_constraints_give_zero_step(self):
        A = np.array([[1.0, 0.0]])
        v_c, norm_vc = compute_vc(factorize_jacobian(A), np.zeros(1), 0.0)
        np.testing.assert_array_equal(v_c, np.zeros(2))
        assert norm_vc == 0.0

    def test_matches_pseudoinverse(self):
        """v_c = -A^T (A A^T)^{-1} c, the minimum-norm linearized restorer."""
        rng = np.random.default_rng(41)
        for m, n in [(1, 2), (2, 5)]:
            for _ in range(20):
                A, c = random_system(rng, m, n)
                fact = factorize_jacobian(A)
                v_c, norm_vc = compute_vc(fact, c, 0.0)
                expected = -A.T @ np.linalg.solve(A @ A.T, c)
                np.testing.assert_allclose(v_c, expected, atol=1e-11)
                assert norm_vc == np.linalg.norm(v_c)
                residual = np.sum(np.abs(A @ v_c + c))
                assert residual <= 1e-11 * max(1.0, np.sum(np.abs(c)))

    def test_axis_aligned_example(self):
        A = np.array([[1.0, 0.0]])
        v_c, _ = compute_vc(factorize_jacobian(A), np.array([0.3]), 0.0)
        np.testing.assert_allclose(v_c, [-0.3, 0.0], atol=1e-15)


class TestReducedEig:
    def test_reduce_matrix_symmetric(self):
        rng = np.random.default_rng(23)
        A = random_full_rank(rng, 2, 5)
        M = rng.standard_normal((5, 5))
        M = M + M.T
        fact = factorize_jacobian(A)
        R = reduce_matrix(fact, M)
        np.testing.assert_array_equal(R, R.T)
        Z = null_basis(fact)
        np.testing.assert_allclose(R, Z.T @ M @ Z, atol=1e-13)

    def test_eigenvalue_interlacing(self):
        """Eigenvalues of Z^T M Z interlace those of M."""
        rng = np.random.default_rng(31)
        m, n = 2, 6
        for _ in range(25):
            A = random_full_rank(rng, m, n)
            M = rng.standard_normal((n, n))
            M = 0.5 * (M + M.T)
            fact = factorize_jacobian(A)
            outer = np.linalg.eigvalsh(M)
            inner = np.linalg.eigvalsh(reduce_matrix(fact, M))
            for i, val in enumerate(inner):
                assert outer[i] - 1e-10 <= val <= outer[i + m] + 1e-10


def _conditioned(rng, m, n, cond):
    """U diag(s) V^T with s from 1 down to 1/cond, random orthonormal U and V."""
    s = np.sort(cond ** -rng.uniform(0.0, 1.0, m))[::-1]
    s[0], s[-1] = 1.0, 1.0 / cond
    U, _ = np.linalg.qr(rng.standard_normal((m, m)))
    V, _ = np.linalg.qr(rng.standard_normal((n, m)))
    return (U * (10.0 ** rng.uniform(-2.0, 2.0) * s)) @ V.T


def _oracle_cases(count=150):
    """(A, cond, rng) with n in 2..40, m in 1..n-1 and cond(A) from 1 to 1e9."""
    rng = np.random.default_rng(2024)
    for _ in range(count):
        n = int(rng.integers(2, 41))
        m = int(rng.integers(1, n))
        cond = 10.0 ** rng.uniform(0.0, 9.0)
        yield _conditioned(rng, m, n, cond), cond, rng


class TestAgainstSVD:
    """The QR factorization against an SVD oracle (numpy's full SVD of A)."""

    def test_singular_values_agree(self):
        for A, _, _ in _oracle_cases():
            fact = factorize_jacobian(A)
            s = np.linalg.svd(A, compute_uv=False)
            # QR is backward stable: R's singular values are A's to eps |A|_2
            np.testing.assert_allclose(fact.singular_values, s, rtol=0,
                                       atol=100 * A.shape[1] * EPS * s[0])

    def test_null_map_is_an_isometry_into_null_A(self):
        for A, _, rng in _oracle_cases():
            fact = factorize_jacobian(A)
            m, n = A.shape
            p = rng.standard_normal(n - m)
            Zp = fact.from_null(p)
            norm_A = fact.largest_singular_value
            assert np.linalg.norm(A @ Zp) <= 100 * n * EPS * norm_A * np.linalg.norm(p)
            assert np.linalg.norm(Zp) == pytest.approx(np.linalg.norm(p), rel=100 * n * EPS)

    def test_round_trip_projects_onto_null_A(self):
        """Z (Z^T x) = (I - V_1 V_1^T) x for the SVD's leading right singular vectors V_1."""
        for A, cond, rng in _oracle_cases():
            fact = factorize_jacobian(A)
            m, n = A.shape
            x = rng.standard_normal(n)
            V1 = np.linalg.svd(A)[2][:m]
            expected = x - V1.T @ (V1 @ x)
            # the null space of the rounded A is itself only known to eps cond(A)
            assert (np.linalg.norm(fact.from_null(fact.to_null(x)) - expected)
                    <= 100 * n * EPS * cond * np.linalg.norm(x))

    def test_range_solves_match_the_pseudoinverse(self):
        for A, cond, rng in _oracle_cases():
            fact = factorize_jacobian(A)
            m, n = A.shape
            rhs = rng.standard_normal(m)
            v = range_least_squares(fact, rhs)
            expected = -np.linalg.pinv(A, rcond=1e-15) @ rhs
            assert (np.linalg.norm(v - expected)
                    <= 100 * n * EPS * cond * np.linalg.norm(expected))

    def test_multipliers_minimize_the_lagrangian_gradient(self):
        """A (g + A^T lam) = 0 to rounding, and |g + A^T lam| = |Z^T g|."""
        for A, _, rng in _oracle_cases():
            fact = factorize_jacobian(A)
            m, n = A.shape
            g = rng.standard_normal(n)
            lam = estimate_multipliers(fact, g)
            residual = g + A.T @ lam
            norm_A = fact.largest_singular_value
            bound = 100 * n * EPS * norm_A * (np.linalg.norm(g)
                                              + norm_A * np.linalg.norm(lam))
            assert np.linalg.norm(A @ residual) <= bound
            assert np.linalg.norm(residual) == pytest.approx(
                np.linalg.norm(fact.to_null(g)), rel=1e-8, abs=bound / norm_A)

    def test_reduced_spectrum_matches_the_svd_basis(self):
        for A, cond, rng in _oracle_cases():
            fact = factorize_jacobian(A)
            m, n = A.shape
            H = rng.standard_normal((n, n))
            H = 0.5 * (H + H.T)
            Z_svd = np.linalg.svd(A)[2][m:].T
            expected = np.linalg.eigvalsh(Z_svd.T @ H @ Z_svd)
            spectrum = np.linalg.eigvalsh(reduce_matrix(fact, H))
            np.testing.assert_allclose(spectrum, expected, rtol=0,
                                       atol=100 * n * EPS * cond * np.linalg.norm(H))

    def test_rank_deficient_jacobians_raise(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 41))
            m = int(rng.integers(1, n))
            A = _conditioned(rng, m, n, 1e12) if m > 1 else np.zeros((1, n))
            with pytest.raises(RankDeficient):
                factorize_jacobian(A)


class TestMultipliers:
    def test_matches_normal_equations(self):
        """lam = -(A A^T)^{-1} A g minimizes |g + A^T lam|."""
        rng = np.random.default_rng(61)
        for m, n in [(1, 3), (2, 4), (3, 7)]:
            for _ in range(20):
                A = random_full_rank(rng, m, n)
                g = rng.standard_normal(n)
                fact = factorize_jacobian(A)
                lam = estimate_multipliers(fact, g)
                expected = -np.linalg.solve(A @ A.T, A @ g)
                np.testing.assert_allclose(lam, expected, atol=1e-11)

    def test_normal_equations_residual_vanishes(self):
        """A (g + A^T lam) = 0 characterizes the least-squares minimizer."""
        rng = np.random.default_rng(67)
        A = random_full_rank(rng, 2, 6)
        g = rng.standard_normal(6)
        fact = factorize_jacobian(A)
        lam = estimate_multipliers(fact, g)
        np.testing.assert_allclose(A @ (g + A.T @ lam), 0, atol=1e-12)

    def test_gradient_in_null_space_gives_zero(self):
        A = np.array([[1.0, 0.0]])
        lam = estimate_multipliers(factorize_jacobian(A), np.array([0.0, 3.0]))
        np.testing.assert_allclose(lam, [0.0], atol=1e-15)

    def test_projected_gradient_identity(self):
        """|g + A^T lam| = |Z^T g| at the least-squares multiplier."""
        rng = np.random.default_rng(71)
        for _ in range(25):
            A = random_full_rank(rng, 2, 5)
            g = rng.standard_normal(5)
            fact = factorize_jacobian(A)
            lam = estimate_multipliers(fact, g)
            lhs = np.linalg.norm(g + A.T @ lam)
            rhs = np.linalg.norm(null_basis(fact).T @ g)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_lapack_falls_back_to_scipy_linalg(monkeypatch, tmp_path):
    """Where scipy's directory holds no ``_flapack``, ``_lapack`` returns the
    routines by scipy.linalg.lapack instead."""
    from scipy.linalg import lapack
    find_spec = importlib.util.find_spec
    elsewhere = SimpleNamespace(origin=str(tmp_path / "__init__.py"))
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *args: (
        elsewhere if name == "scipy" else find_spec(name, *args)))
    assert linalg._lapack.__wrapped__() is lapack  # the uncached body; the cache keeps _flapack
