"""Second-order correction step: eligibility and computation."""

import numpy as np
import pytest

from cubeq.driver import SolverConfig, in_correction_region, solve
from cubeq.linalg import compute_correction, factorize_jacobian
from cubeq.problems import builtin_problem
from helpers import null_basis


class TestRegion:
    def test_feasible_always_qualifies(self):
        assert in_correction_region(0.0, 1.0, zeta=0.25)
        assert in_correction_region(0.0, 1e8, zeta=0.25)

    def test_large_normal_step_disqualifies(self):
        assert not in_correction_region(1.0, 1.0, zeta=0.25)

    def test_threshold_scales_with_regularization(self):
        assert in_correction_region(0.2, 1.0, zeta=0.25)
        # same offset fails once sigma inflates the test
        assert not in_correction_region(0.2, 4.0, zeta=0.25)


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


class TestCorrectionInSolver:
    def test_steps_stay_second_order_small(self):
        """Every correction is O(|d|^2) along the curved-valley run."""
        problem = builtin_problem("maratos")
        result = solve(problem, config=SolverConfig())
        corrected = [r for r in result.history if r.correction_computed]
        assert corrected
        for rec in corrected:
            assert np.linalg.norm(rec.w) <= 1.0 * np.linalg.norm(rec.v + rec.u)**2
