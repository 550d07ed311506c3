"""Reduced cubic model construction and its global subproblem solver."""

import math

import numpy as np
import pytest

from cubeq import tangential
from cubeq.linalg import factorize_jacobian, reduce_matrix
from cubeq.tangential import ReducedHessian, model_decrease, solve_cubic
from helpers import cauchy_point, model_value, null_basis, ray_polish_min

DELTA = 0.1


def _direct_model(g_red, H_red, sigma):
    """(hessian, g_red, sigma) of a model in already-reduced coordinates (Z = identity)."""
    g_red = np.asarray(g_red, dtype=float).reshape(-1)
    H_red = np.atleast_2d(np.asarray(H_red, dtype=float))
    return ReducedHessian(H_red), g_red, float(sigma)


def _arrays(model):
    """(H_red, g_red, sigma): what cauchy_point and model_decrease read."""
    hessian, g_red, sigma = model
    return hessian.matrix, g_red, sigma


def _model_at(fact, g, H, v, sigma):
    """(hessian, g_red, sigma) of the tangential step after the normal step
    ``v``, as the driver forms them."""
    return ReducedHessian(reduce_matrix(fact, H)), fact.to_null(g + H @ v), sigma


class TestBuildReducedModel:
    """The model at an iterate: g_red = Z^T (g + H v) on its ReducedHessian."""

    def test_projection_of_shifted_gradient(self):
        """g_red represents the null-space part of g + H v."""
        A = np.array([[1.0, 0.0]])
        fact = factorize_jacobian(A)
        _, g_red, _ = _model_at(fact, np.array([3.0, 4.0]), np.eye(2),
                                np.array([-0.5, 0.0]), sigma=1.0)
        # lifted back to full space the reduced gradient must be (0, 4)
        np.testing.assert_allclose(fact.from_null(g_red), [0.0, 4.0],
                                   atol=1e-14)
        assert abs(np.linalg.norm(g_red) - 4.0) <= 1e-14

    def test_feasible_point_uses_plain_gradient(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((2, 5))
        g = rng.standard_normal(5)
        H = rng.standard_normal((5, 5))
        H = 0.5 * (H + H.T)
        fact = factorize_jacobian(A)
        hessian, g_red, _ = _model_at(fact, g, H, np.zeros(5), sigma=2.0)
        np.testing.assert_allclose(g_red, null_basis(fact).T @ g, atol=1e-14)
        np.testing.assert_array_equal(hessian.matrix, hessian.matrix.T)

    def test_zero_hessian(self):
        A = np.array([[1.0, 1.0, 0.0]])
        fact = factorize_jacobian(A)
        hessian, _, _ = _model_at(fact, np.ones(3), np.zeros((3, 3)), np.zeros(3), sigma=1.0)
        np.testing.assert_array_equal(hessian.matrix, np.zeros((2, 2)))

    def test_model_carries_its_tridiagonal_form(self):
        """H_red = Q_T T Q_T^T, and lam_min is T's smallest eigenvalue."""
        rng = np.random.default_rng(23)
        for k in (1, 2, 3, 7):
            H = rng.standard_normal((k, k))
            hessian = ReducedHessian(0.5 * (H + H.T))
            T = np.diag(hessian.d) + np.diag(hessian.e, 1) + np.diag(hessian.e, -1)
            Q = np.column_stack([hessian.rotate("N", col) for col in np.eye(k)])
            np.testing.assert_allclose(Q @ T @ Q.T, hessian.matrix, rtol=0, atol=1e-13)
            np.testing.assert_allclose(Q.T @ Q, np.eye(k), rtol=0, atol=1e-13)
            np.testing.assert_allclose(hessian.rotate("T", Q[:, 0]), np.eye(k)[0], atol=1e-13)
            lam = np.linalg.eigvalsh(hessian.matrix)
            assert hessian.lam_min == pytest.approx(lam[0], rel=0, abs=1e-13)
            assert hessian.norm >= np.max(np.abs(lam))
            # k <= 2 carries its eigendecomposition; larger k none until a solve asks
            assert hessian.eigh_at_hand == (k <= 2)

    def test_reuse_keeps_reduced_hessian_and_spectrum(self, monkeypatch):
        """Models for several sigmas and reduced gradients share one
        ReducedHessian and solve as on a fresh one; eigh(H_red) is computed
        once, by the first solve that needs it, and kept."""
        rng = np.random.default_rng(11)
        k = 40
        H = rng.standard_normal((k, k))
        hessian = ReducedHessian(0.5 * (H + H.T))
        eigh, shared_eigh_calls = np.linalg.eigh, []

        def counted_eigh(M):
            shared_eigh_calls.append(1)
            return eigh(M)

        # g_red = 0 takes the eigenbasis, which later solves keep using
        for sigma, g in ((1.0, rng.standard_normal(k)), (2.0, np.zeros(k)),
                         (4.0, rng.standard_normal(k)), (8.0, np.zeros(k))):
            fresh = solve_cubic(ReducedHessian(hessian.matrix), g, sigma, DELTA).p
            monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
            shared = solve_cubic(hessian, g, sigma, DELTA).p
            monkeypatch.undo()
            np.testing.assert_allclose(shared, fresh, rtol=0,
                                       atol=1e-12 * max(1.0, np.linalg.norm(fresh)))
        assert shared_eigh_calls == [1]
        assert hessian.eigh_at_hand


class TestModelDecrease:
    def test_zero_step(self):
        model = _direct_model([-1.0], [[1.0]], sigma=1.0)
        assert model_decrease(*_arrays(model), np.zeros(1)) == 0.0

    def test_hand_value_without_cubic_term(self):
        # g p + p^2/2 = -1 + 0.5 at p = 1: decrease 0.5
        assert model_decrease(np.array([[1.0]]), np.array([-1.0]), 0.0,
                              np.array([1.0])) == pytest.approx(0.5, abs=0)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            dim = int(rng.integers(1, 4))
            g = rng.standard_normal(dim)
            H = rng.standard_normal((dim, dim))
            H = 0.5 * (H + H.T)
            sigma = float(rng.uniform(0.2, 4.0))
            p = rng.standard_normal(dim)
            model = _direct_model(g, H, sigma)
            assert model_decrease(*_arrays(model), p) == pytest.approx(
                -model_value(g, H, sigma, p), rel=1e-13, abs=1e-13)


class TestCauchyPoint:
    def test_zero_gradient(self):
        model = _direct_model([0.0, 0.0], np.eye(2), sigma=1.0)
        assert cauchy_point(*_arrays(model)) == (0.0, 0.0)

    def test_positive_curvature_case(self):
        # |g|=1, g^T H g = 1, sigma = 3; values frozen from a dense
        # 1-D grid search with bisection refinement on the step length
        model = _direct_model([-1.0], [[1.0]], sigma=3.0)
        alpha, dec = cauchy_point(*_arrays(model))
        assert alpha == pytest.approx(0.4342585459106648, rel=1e-13)
        assert alpha == pytest.approx((-1.0 + math.sqrt(13.0)) / 6.0, rel=1e-13)
        assert dec == pytest.approx(0.2580756164910358, rel=1e-13)
        # stationarity of the line search: -gn^2 + a gHg + sigma a^2 gn^3 = 0
        assert -1.0 + alpha + 3.0 * alpha**2 == pytest.approx(0.0, abs=1e-13)

    def test_negative_curvature_case(self):
        # |g|=1, g^T H g = -1, sigma = 1: alpha is the golden ratio
        model = _direct_model([-1.0], [[-1.0]], sigma=1.0)
        alpha, dec = cauchy_point(*_arrays(model))
        assert alpha == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-13)
        assert dec == pytest.approx(1.5150283239582458, rel=1e-13)

    def test_decrease_matches_step_evaluation(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            dim = int(rng.integers(1, 4))
            g = rng.standard_normal(dim)
            H = rng.standard_normal((dim, dim))
            H = 0.5 * (H + H.T)
            model = _direct_model(g, H, float(rng.uniform(0.5, 3.0)))
            alpha, dec = cauchy_point(*_arrays(model))
            assert dec == pytest.approx(model_decrease(*_arrays(model), -alpha * g),
                                        rel=1e-11, abs=1e-11)
            assert dec >= 0.0


class TestSolveCubic:
    def test_tiny_gradient_with_positive_curvature(self):
        """The secular bracket must not cancel to zero when H_red is PD."""
        model = _direct_model([1e-15], [[2.0]], sigma=0.125)
        sol = solve_cubic(*model, DELTA)
        # (2 + sigma r) p = -g with r = |p| ~ 5e-16, so p = -g/2 to rounding
        assert sol.p[0] == pytest.approx(-5e-16, rel=1e-12)
        assert sol.delta_m > 0.0

    def test_scalar_model_root(self):
        # gradient of the model: -1 + p + p^2 = 0 at the positive root
        model = _direct_model([-1.0], [[1.0]], sigma=1.0)
        sol = solve_cubic(*model, DELTA)
        assert sol.p[0] == pytest.approx((-1.0 + math.sqrt(5.0)) / 2.0,
                                         rel=1e-12)
        assert sol.grad_model_norm <= 1e-10

    def test_zero_gradient_positive_definite(self):
        model = _direct_model([0.0, 0.0], np.eye(2), sigma=1.0)
        sol = solve_cubic(*model, DELTA)
        np.testing.assert_array_equal(sol.p, np.zeros(2))
        assert sol.delta_m == 0.0

    def test_eigen_step_on_pure_negative_curvature(self):
        # g = 0, H = (-2), sigma = 1: |p| = 2, decrease 4 - 8/3 = 4/3,
        # frozen against a dense grid search over [-5, 5]
        model = _direct_model([0.0], [[-2.0]], sigma=1.0)
        sol = solve_cubic(*model, DELTA)
        assert abs(sol.p[0]) == pytest.approx(2.0, rel=1e-12)
        assert sol.delta_m == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_hard_case_adds_eigenvector_component(self):
        # leftmost direction is e1, g has no component along it; the
        # interior equation 3/(1+r) = r caps out below r = 2, so the
        # solution pads e1 until |p| = -lambda_1/sigma
        g = np.array([0.0, 3.0])
        H = np.diag([-2.0, 1.0])
        model = _direct_model(g, H, sigma=1.0)
        sol = solve_cubic(*model, DELTA)
        assert np.linalg.norm(sol.p) == pytest.approx(2.0, rel=1e-12)
        assert sol.p[1] == pytest.approx(-1.0, rel=1e-12)
        assert abs(sol.p[0]) == pytest.approx(math.sqrt(3.0), rel=1e-12)
        assert sol.delta_m == pytest.approx(17.0 / 6.0, rel=1e-12)
        # cross-check the value against the brute-force oracle
        _, best_val = ray_polish_min(g, H, 1.0)
        assert -sol.delta_m == pytest.approx(best_val, abs=1e-8)

    def test_oracle_conditions_hold_on_random_models(self):
        """Decrease >= Cauchy, gradient residual budget, curvature floor."""
        rng = np.random.default_rng(17)
        for _ in range(40):
            dim = int(rng.integers(1, 4))
            g = rng.standard_normal(dim)
            H = rng.standard_normal((dim, dim))
            H = 0.5 * (H + H.T)
            sigma = float(rng.uniform(0.3, 5.0))
            model = _direct_model(g, H, sigma)
            sol = solve_cubic(*model, DELTA)
            norm_u = np.linalg.norm(sol.p)  # Z = I
            assert sol.delta_m >= cauchy_point(*_arrays(model))[1] - 1e-10 * max(
                1.0, abs(sol.delta_m))
            assert sol.grad_model_norm <= DELTA * sigma * norm_u**2 + 1e-10
            assert min(model[0].lam_min, 0.0) >= -sigma * norm_u - 1e-10
            # decrease floors in terms of the gradient and the step size
            gn = np.linalg.norm(g)
            norm_h = np.linalg.norm(H, 2)
            floor = 0.3 * gn * min(gn / (1.0 + norm_h), math.sqrt(gn / sigma))
            assert sol.delta_m >= floor - 1e-10
            assert sol.delta_m >= (1.0 / 6.0 - DELTA) * sigma * norm_u**3 - 1e-10
            assert norm_u <= 3.0 * max(norm_h / sigma,
                                       math.sqrt(gn / sigma)) + 1e-10

    def test_secular_newton_needs_few_evaluations(self, monkeypatch):
        """Criterion 3's 100 models and the 40 above: at most 12 evaluations
        of the secular function per solve on average (bisection takes ~50)."""
        calls = 0
        secular = tangential._secular

        def counted(*args):
            nonlocal calls
            calls += 1
            return secular(*args)

        monkeypatch.setattr(tangential, "_secular", counted)
        models = []
        rng = np.random.default_rng(101)  # test_criterion_3's models
        for trial in range(100):
            dim = 1 if trial < 50 else 2
            g = rng.standard_normal(dim)
            H = rng.standard_normal((dim, dim))
            models.append((g, 0.5 * (H + H.T), float(rng.uniform(0.5, 4.0))))
        rng = np.random.default_rng(17)  # test_oracle_conditions_hold_on_random_models
        for _ in range(40):
            dim = int(rng.integers(1, 4))
            g = rng.standard_normal(dim)
            H = rng.standard_normal((dim, dim))
            models.append((g, 0.5 * (H + H.T), float(rng.uniform(0.3, 5.0))))
        for g, H, sigma in models:
            solve_cubic(*_direct_model(g, H, sigma), DELTA)
        assert calls / len(models) <= 12.0

    def test_lifted_step_stays_in_null_space(self):
        rng = np.random.default_rng(19)
        A = rng.standard_normal((2, 5))
        g = rng.standard_normal(5)
        H = rng.standard_normal((5, 5))
        H = 0.5 * (H + H.T)
        fact = factorize_jacobian(A)
        sol = solve_cubic(*_model_at(fact, g, H, np.zeros(5), sigma=1.0), DELTA)
        u = fact.from_null(sol.p)
        assert u.shape == (5,)
        np.testing.assert_allclose(A @ u, 0, atol=1e-10)


def _spectral_model(rng, k, kind, sigma=1.0):
    """H = Q diag(lam) Q^T with lam in (-5, 5); g shaped by ``kind``."""
    lam = np.sort(rng.uniform(-5.0, 5.0, k))
    ghat = rng.standard_normal(k)
    if kind == "hard":  # g orthogonal to a separated leftmost eigenvector
        lam[0] = -abs(lam[0]) - 0.5
        ghat[0] = 0.0
        ghat *= 0.1  # small enough that the curve stays below r_floor
    elif kind == "near_hard":
        ghat[0] *= 1e-4
    elif kind == "tiny":
        ghat *= 1e-12
    Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    H = (Q * lam) @ Q.T
    return _direct_model(Q @ ghat, 0.5 * (H + H.T), sigma)


class TestTridiagonalPath:
    @pytest.mark.parametrize("k", [60, 150])
    def test_agrees_with_the_eigenbasis_and_falls_back_where_it_must(self, k, monkeypatch):
        """The LDL^T Newton on T and the eigenbasis solve give the same step
        to 1e-12; hard and tiny-gradient models take the eigenbasis."""
        eigenbasis_step = tangential._eigenbasis_step
        fallbacks = []

        def spy(*args):
            fallbacks.append(1)
            return eigenbasis_step(*args)

        monkeypatch.setattr(tangential, "_eigenbasis_step", spy)
        rng = np.random.default_rng(k)
        for kind in ("generic", "near_hard", "hard", "tiny"):
            for _ in range(3):
                model = _spectral_model(rng, k, kind, sigma=float(rng.uniform(0.5, 4.0)))
                fallbacks.clear()
                sol = solve_cubic(*model, DELTA)
                assert len(fallbacks) == (kind in ("hard", "tiny")), kind
                hessian, g_red, sigma = model
                lam, Q = np.linalg.eigh(hessian.matrix)
                ref = eigenbasis_step(lam, Q, g_red, sigma, hessian.lam_min,
                                      np.linalg.norm(g_red))
                error = np.linalg.norm(sol.p - ref)
                assert error <= 1e-12 * max(1.0, np.linalg.norm(ref)), kind
