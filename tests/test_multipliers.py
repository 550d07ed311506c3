"""Least-squares multiplier estimates."""

import numpy as np
import pytest

from cubeq.linalg import estimate_multipliers, factorize_jacobian
from helpers import null_basis


def _random_full_rank(rng, m, n):
    while True:
        A = rng.standard_normal((m, n))
        if np.linalg.svd(A, compute_uv=False)[-1] > 0.1:
            return A


class TestMultipliers:
    def test_matches_normal_equations(self):
        """lam = -(A A^T)^{-1} A g minimizes |g + A^T lam|."""
        rng = np.random.default_rng(61)
        for m, n in [(1, 3), (2, 4), (3, 7)]:
            for _ in range(20):
                A = _random_full_rank(rng, m, n)
                g = rng.standard_normal(n)
                fact = factorize_jacobian(A)
                lam = estimate_multipliers(fact, g)
                expected = -np.linalg.solve(A @ A.T, A @ g)
                np.testing.assert_allclose(lam, expected, atol=1e-11)

    def test_normal_equations_residual_vanishes(self):
        """A (g + A^T lam) = 0 characterizes the least-squares minimizer."""
        rng = np.random.default_rng(67)
        A = _random_full_rank(rng, 2, 6)
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
            A = _random_full_rank(rng, 2, 5)
            g = rng.standard_normal(5)
            fact = factorize_jacobian(A)
            lam = estimate_multipliers(fact, g)
            lhs = np.linalg.norm(g + A.T @ lam)
            rhs = np.linalg.norm(null_basis(fact).T @ g)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
