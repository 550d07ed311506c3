"""Exact-penalty merit function, its local model, and penalty updates."""

import math

import numpy as np
import pytest

from cubeq.merit import (merit_value, mu_candidate, predicted_reduction,
                         ratio, update_mu)
from helpers import model_q


class TestMeritValue:
    def test_feasible_point_is_plain_objective(self):
        assert merit_value(3.5, 0.0, 100.0) == 3.5

    def test_hand_value(self):
        assert merit_value(1.0, 2.0, 3.0) == 7.0

    def test_affine_in_penalty(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            f = float(rng.standard_normal())
            c_l1 = float(rng.uniform(0.0, 5.0))
            mu = float(rng.uniform(0.0, 50.0))
            assert merit_value(f, c_l1, mu) - merit_value(f, c_l1, 0.0) \
                == pytest.approx(mu * c_l1, rel=1e-14, abs=1e-14)


class TestModelQ:
    def test_zero_step_equals_merit(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal(3)
        H = np.eye(3)
        A = rng.standard_normal((1, 3))
        c = np.array([0.7])
        q0 = model_q(2.0, g, H, c, A, np.zeros(3), sigma=1.0, mu=4.0)
        assert q0 == pytest.approx(merit_value(2.0, 0.7, 4.0), rel=1e-15)

    def test_step_that_kills_linearization(self):
        # with A d = -c the penalty term vanishes from the model
        A = np.array([[1.0, 0.0]])
        c = np.array([0.5])
        d = np.array([-0.5, 0.0])
        q = model_q(0.0, np.zeros(2), np.zeros((2, 2)), c, A, d,
                    sigma=0.0, mu=1e6)
        assert q == pytest.approx(0.0, abs=1e-9)

    def test_term_by_term(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, m = 4, 2
            f = float(rng.standard_normal())
            g = rng.standard_normal(n)
            H = rng.standard_normal((n, n))
            H = 0.5 * (H + H.T)
            A = rng.standard_normal((m, n))
            c = rng.standard_normal(m)
            d = rng.standard_normal(n)
            sigma = float(rng.uniform(0.1, 3.0))
            mu = float(rng.uniform(0.0, 10.0))
            expect = (f + g @ d + 0.5 * d @ H @ d
                      + sigma / 3.0 * np.linalg.norm(d) ** 3
                      + mu * np.sum(np.abs(c + A @ d)))
            assert model_q(f, g, H, c, A, d, sigma, mu) == pytest.approx(
                expect, rel=1e-13)


class TestPredictedReduction:
    def test_zero_step_gives_zero(self):
        A = np.array([[1.0, 2.0]])
        dq = predicted_reduction(np.ones(2), np.eye(2), np.array([0.3]), A,
                                 np.zeros(2), sigma=1.0, mu=2.0)
        assert dq == 0.0

    def test_matches_difference_of_models(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n, m = 3, 1
            f = float(rng.standard_normal())
            g = rng.standard_normal(n)
            H = rng.standard_normal((n, n))
            H = 0.5 * (H + H.T)
            A = rng.standard_normal((m, n))
            c = rng.standard_normal(m)
            d = rng.standard_normal(n)
            sigma = float(rng.uniform(0.1, 3.0))
            mu = float(rng.uniform(0.0, 10.0))
            dq = predicted_reduction(g, H, c, A, d, sigma, mu)
            q0 = model_q(f, g, H, c, A, np.zeros(n), sigma, mu)
            qd = model_q(f, g, H, c, A, d, sigma, mu)
            assert dq == pytest.approx(q0 - qd, rel=1e-10, abs=1e-10)


class TestMuCandidate:
    def test_feasible_point(self):
        assert mu_candidate(np.ones(2), np.eye(2), np.zeros(2), np.ones(2),
                            np.ones(2), sigma=1.0, beta=1.0, c_l1=0.0,
                            r_v=0.0, tau=0.5) == 0.0

    def test_zero_numerator(self):
        # v orthogonal to g, no curvature, and |d| = |u| null the numerator
        g = np.array([0.0, 1.0])
        v = np.array([1.0, 0.0])
        d = np.array([1.0, 0.0])
        u = np.array([0.0, 1.0])
        assert mu_candidate(g, np.zeros((2, 2)), v, d, u, sigma=2.0,
                            beta=1.0, c_l1=3.0, r_v=0.0, tau=0.5) == 0.0

    def test_hand_value(self):
        # numerator -1 + 0 + 1/3, denominator (1 - 0 - 0.5) * 1 * 1
        g = np.array([-1.0, 0.0])
        v = np.array([1.0, 0.0])
        d = np.array([1.0, 0.0])
        u = np.zeros(2)
        cand = mu_candidate(g, np.zeros((2, 2)), v, d, u, sigma=1.0,
                            beta=1.0, c_l1=1.0, r_v=0.0, tau=0.5)
        assert cand == pytest.approx(-4.0 / 3.0, rel=1e-14)

    def test_denominator_scaling(self):
        rng = np.random.default_rng(23)
        g = rng.standard_normal(3)
        H = rng.standard_normal((3, 3))
        H = 0.5 * (H + H.T)
        v = rng.standard_normal(3)
        u = rng.standard_normal(3)
        d = v + u
        base = mu_candidate(g, H, v, d, u, 1.5, beta=1.0, c_l1=2.0,
                            r_v=0.0, tau=0.5)
        halved = mu_candidate(g, H, v, d, u, 1.5, beta=0.5, c_l1=2.0,
                              r_v=0.0, tau=0.5)
        assert halved == pytest.approx(2.0 * base, rel=1e-13)


class TestUpdateMu:
    def test_keeps_when_candidate_below(self):
        assert update_mu(1.0, 0.5, nu=2.0) == 1.0

    def test_jumps_to_scaled_candidate(self):
        assert update_mu(1.0, 2.0, nu=2.0) == 4.0

    def test_negative_candidate_never_raises_penalty(self):
        assert update_mu(1.0, -3.0, nu=2.0) == 1.0

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(29)
        mu = 1.0
        for _ in range(50):
            cand = float(rng.standard_normal() * 3.0)
            nxt = update_mu(mu, cand, nu=2.0)
            assert nxt >= mu
            mu = nxt


class TestRatio:
    def test_hand_values(self):
        assert ratio(1.0, 0.5, 0.5) == 1.0
        assert ratio(1.0, 1.0, 0.5) == 0.0
        assert ratio(1.0, 0.75, 0.5) == 0.5

    def test_zero_predicted_reduction(self):
        assert math.isinf(ratio(1.0, 0.0, 0.0))
        assert ratio(1.0, 2.0, 0.0) == -math.inf
