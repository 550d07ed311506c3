"""Normal step toward the linearized constraints and its scaling factor."""

import math

import numpy as np
import pytest

from cubeq.driver import select_beta
from cubeq.linalg import compute_vc, factorize_jacobian
from helpers import null_basis


def _random_system(rng, m, n):
    while True:
        A = rng.standard_normal((m, n))
        if np.linalg.svd(A, compute_uv=False)[-1] > 0.1:
            return A, rng.standard_normal(m)


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
                A, c = _random_system(rng, m, n)
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


class TestSelectBeta:
    def test_unit_when_vc_zero(self):
        assert select_beta(0.0, 4.0) == 1.0

    def test_unit_inside_radius(self):
        # |v_c| sqrt(sigma) = 0.5 <= 1 keeps the full step
        assert select_beta(0.25, 4.0) == 1.0

    def test_scales_outside_radius(self):
        # |v_c| sqrt(sigma) = 4 -> beta = 1/4
        assert select_beta(2.0, 4.0) == pytest.approx(0.25, abs=0)

    def test_scaled_step_within_radius(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            norm_vc = float(rng.uniform(0, 10))
            sigma = float(rng.uniform(1e-4, 1e4))
            beta = select_beta(norm_vc, sigma)
            assert 0.0 < beta <= 1.0
            assert beta * norm_vc <= 1.0 / math.sqrt(sigma) + 1e-12


def _normal_step(fact, c, sigma):
    """(v_c, beta, v = beta v_c) as the driver forms them."""
    v_c, norm_vc = compute_vc(fact, c, 0.0)
    beta = select_beta(norm_vc, sigma)
    return v_c, beta, beta * v_c


class TestAssembleNormal:
    def test_linearized_contraction(self):
        """|c + A v|_1 <= (1 - beta (1 - r_v)) |c|_1 for v = beta v_c."""
        rng = np.random.default_rng(47)
        for _ in range(30):
            A, c = _random_system(rng, 2, 4)
            sigma = float(rng.uniform(0.1, 100.0))
            fact = factorize_jacobian(A)
            _, beta, v = _normal_step(fact, c, sigma)
            c_l1 = np.sum(np.abs(c))
            lhs = np.sum(np.abs(c + A @ v))
            assert lhs <= (1.0 - beta) * c_l1 + 1e-10 * max(1.0, c_l1)

    def test_step_in_range_space(self):
        rng = np.random.default_rng(53)
        A, c = _random_system(rng, 2, 5)
        fact = factorize_jacobian(A)
        _, _, v = _normal_step(fact, c, 1.0)
        np.testing.assert_allclose(null_basis(fact).T @ v, 0, atol=1e-12)

    def test_feasible_point_short_circuit(self):
        A = np.array([[2.0, 1.0, 0.0]])
        v_c, beta, v = _normal_step(factorize_jacobian(A), np.zeros(1), 3.0)
        assert beta == 1.0
        np.testing.assert_array_equal(v, np.zeros(3))
        np.testing.assert_array_equal(v_c, np.zeros(3))
