"""End-to-end solver behaviour: classification, updates, the normal step's
scaling, the correction region, and convergence."""

import dataclasses
import math

import numpy as np
import pytest

from cubeq import diagnostics, driver, tangential
from cubeq.diagnostics import audit_run
from cubeq.driver import (CONVERGED_SOSP, LICQ_FAILURE, MAX_ITERATIONS,
                          NUMERICAL_ERROR, SUCCESSFUL, UNSUCCESSFUL,
                          VERY_SUCCESSFUL, SolverConfig, check_stationarity,
                          classify_iteration, in_correction_region, select_beta,
                          solve, update_sigma)
from cubeq.errors import ConfigError
from cubeq.linalg import compute_vc, factorize_jacobian
from cubeq.problems import Problem, builtin_problem
from cubeq.trace_io import read_trace, write_trace
from helpers import assert_step_rule, null_basis, random_system
from test_corpus import _corpus_problem, _elec_problem, _elec_starts


def _merit(record):
    return record.f + record.mu * record.c_l1


class TestConfig:
    def test_defaults_are_valid(self):
        SolverConfig()

    def test_invalid_fields_rejected(self):
        bad = [
            dict(eta1=0.0), dict(eta1=0.95, eta2=0.9), dict(eta2=1.0),
            dict(nu=1.0), dict(tau=0.0), dict(tau=1.0), dict(theta=0.0),
            dict(zeta=0.0), dict(zeta=0.5, theta=0.5), dict(gamma1=1.0),
            dict(gamma1=6.0, gamma2=5.0), dict(gamma3=0.0), dict(gamma3=1.5),
            dict(delta=0.0), dict(delta=0.2), dict(r_v=0.5, tau=0.5),
            dict(r_lambda=-1.0), dict(r_w=-1.0), dict(sigma0=0.0),
            dict(sigma0=1e-9, sigma_min=1e-8), dict(mu_init=0.0),
            dict(eps_g=0.0), dict(eps_c=-1.0), dict(eps_h=0.0),
            dict(eps_c=math.nan), dict(eps_h=math.nan),
            dict(max_iter=0), dict(rank_tol=0.0), dict(rank_tol=1.0),
            dict(eps_g=math.inf), dict(sigma0=math.inf), dict(sigma0=math.inf, sigma_min=math.inf),
            dict(nu=math.inf), dict(gamma2=math.inf), dict(r_lambda=math.inf),
            dict(r_w=math.inf), dict(mu_init=math.inf), dict(max_iter=2.5),
            dict(max_iter=True), dict(r_w=True), dict(gamma3=True), dict(eta1="0.1"),
            dict(max_iter="5"),
            dict(eps_g=None), dict(tau=10**400), dict(sigma0=10**400), dict(r_w=10**400),
        ]
        for overrides in bad:
            with pytest.raises(ConfigError):
                SolverConfig(**overrides)

    def test_fields_cannot_be_assigned(self):
        """A config is checked once, when it is made, so it cannot change afterwards."""
        config = SolverConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.eta1 = 5.0
        assert dataclasses.replace(config, eta1=0.2).eta1 == 0.2
        with pytest.raises(ConfigError, match="need 0 < eta1 < eta2 < 1"):
            dataclasses.replace(config, eta1=5.0)


class TestClassification:
    def test_bands(self):
        assert classify_iteration(0.95, 0.1, 0.9) == VERY_SUCCESSFUL
        assert classify_iteration(0.5, 0.1, 0.9) == SUCCESSFUL
        assert classify_iteration(0.1, 0.1, 0.9) == SUCCESSFUL
        assert classify_iteration(0.05, 0.1, 0.9) == UNSUCCESSFUL

    def test_sigma_update(self):
        config = SolverConfig()
        assert update_sigma(2.0, VERY_SUCCESSFUL, config) == 1.0
        assert update_sigma(2.0, SUCCESSFUL, config) == 2.0
        assert update_sigma(2.0, UNSUCCESSFUL, config) == 4.0

    def test_sigma_floor(self):
        config = SolverConfig()
        assert update_sigma(1e-8, VERY_SUCCESSFUL, config) == 1e-8


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
            A, c = random_system(rng, 2, 4)
            sigma = float(rng.uniform(0.1, 100.0))
            fact = factorize_jacobian(A)
            _, beta, v = _normal_step(fact, c, sigma)
            c_l1 = np.sum(np.abs(c))
            lhs = np.sum(np.abs(c + A @ v))
            assert lhs <= (1.0 - beta) * c_l1 + 1e-10 * max(1.0, c_l1)

    def test_step_in_range_space(self):
        rng = np.random.default_rng(53)
        A, c = random_system(rng, 2, 5)
        fact = factorize_jacobian(A)
        _, _, v = _normal_step(fact, c, 1.0)
        np.testing.assert_allclose(null_basis(fact).T @ v, 0, atol=1e-12)

    def test_feasible_point_short_circuit(self):
        A = np.array([[2.0, 1.0, 0.0]])
        v_c, beta, v = _normal_step(factorize_jacobian(A), np.zeros(1), 3.0)
        assert beta == 1.0
        np.testing.assert_array_equal(v, np.zeros(3))
        np.testing.assert_array_equal(v_c, np.zeros(3))


class TestStationarity:
    def test_both_tolerances_needed(self):
        config = SolverConfig(eps_g=1e-6, eps_c=1e-6, eps_h=1e-6)
        assert check_stationarity(1e-7, 1e-7, 1.0, config).sosp
        assert not check_stationarity(1e-5, 1e-7, 1.0, config).fosp
        assert not check_stationarity(1e-7, 1e-5, 1.0, config).fosp

    def test_curvature_separates_orders(self):
        config = SolverConfig(eps_h=0.1)
        report = check_stationarity(0.0, 0.0, -0.5, config)
        assert report.fosp and not report.sosp
        assert check_stationarity(0.0, 0.0, -0.05, config).sosp


class TestConvergence:
    def test_affine_constrained_quadratic_hits_kkt_point(self):
        problem = builtin_problem("linear_eq_quadratic")
        # independent target: solve the stationarity system directly
        x0 = np.zeros(problem.n)
        Q = problem.objective_hessian(x0)
        q = problem.gradient(x0)
        A = problem.jacobian(x0)
        b = -problem.constraints(x0)
        kkt = np.block([[Q, A.T], [A, np.zeros((problem.m, problem.m))]])
        sol = np.linalg.solve(kkt, np.concatenate([-q, b]))
        result = solve(problem)
        assert result.status == CONVERGED_SOSP
        assert result.iterations <= 10
        np.testing.assert_allclose(result.x_final, sol[:problem.n], atol=1e-8)
        np.testing.assert_allclose(result.lambda_final, sol[problem.n:],
                                   atol=1e-6)

    def test_circle_reaches_known_minimum(self):
        problem = builtin_problem("circle_quadratic")
        result = solve(problem)
        assert result.status == CONVERGED_SOSP
        x_star, lam_star = problem.known_solution
        np.testing.assert_allclose(result.x_final, x_star, atol=1e-7)
        np.testing.assert_allclose(result.lambda_final, lam_star, atol=1e-6)

    def test_curved_valley_uses_corrections(self):
        result = solve(builtin_problem("maratos"))
        assert result.status == CONVERGED_SOSP
        assert any(r.correction_computed for r in result.history)
        assert result.counts.corrections >= 1

    def test_saddle_start_escapes(self):
        problem = builtin_problem("saddle_escape")
        result = solve(problem)
        assert result.status == CONVERGED_SOSP
        # the origin is first-order stationary; the solver must leave it
        assert abs(result.x_final[1]) == pytest.approx(1.0, abs=1e-6)

    def test_valley_floor_from_remote_start(self):
        problem = builtin_problem("rosenbrock_sphere")
        result = solve(problem)
        assert result.status == CONVERGED_SOSP
        np.testing.assert_allclose(result.x_final, [1.0, 1.0], atol=1e-6)

    def test_final_report_meets_tolerances(self):
        config = SolverConfig()
        for name in ("circle_quadratic", "linear_eq_quadratic", "maratos",
                     "rosenbrock_sphere", "saddle_escape"):
            result = solve(builtin_problem(name), config=config)
            report = result.final_report
            assert report.sosp
            assert report.grad_lagrangian_norm <= config.eps_g
            assert report.c_l1 <= config.eps_c
            assert report.lambda_min_red >= -config.eps_h


class TestCorrectionInSolver:
    def test_steps_stay_second_order_small(self):
        """Every correction is O(|d|^2) along the curved-valley run."""
        problem = builtin_problem("maratos")
        result = solve(problem, config=SolverConfig())
        corrected = [r for r in result.history if r.correction_computed]
        assert corrected
        for rec in corrected:
            assert np.linalg.norm(rec.w) <= 1.0 * np.linalg.norm(rec.v + rec.u)**2


class TestRunMechanics:
    def test_deterministic_reruns(self):
        problem = builtin_problem("rosenbrock_sphere")
        first = solve(problem)
        second = solve(problem)
        assert len(first.history) == len(second.history)
        for a, b in zip(first.history, second.history):
            assert np.array_equal(a.x, b.x)
            assert a.f == b.f and a.sigma == b.sigma and a.mu == b.mu
            assert a.rho == b.rho and a.classification == b.classification

    def test_merit_decreases_on_accepted_steps(self):
        for name in ("circle_quadratic", "rosenbrock_sphere", "maratos"):
            result = solve(builtin_problem(name))
            records = result.history
            for prev, nxt in zip(records, records[1:]):
                if not prev.accepted:
                    continue
                # merit is comparable only at the penalty in force for the
                # step; allow the rounding floor the acceptance test uses
                noise = 256 * np.finfo(float).eps * (
                    max(1.0, abs(prev.f)) + prev.mu * max(1.0, prev.c_l1))
                phi_next = nxt.f + prev.mu * nxt.c_l1
                assert phi_next <= _merit(prev) + noise

    def test_rejection_keeps_iterate_and_inflates_sigma(self):
        config = SolverConfig()
        found_rejection = False
        for name in ("circle_quadratic", "rosenbrock_sphere"):
            result = solve(builtin_problem(name), config=config)
            records = result.history
            for prev, nxt in zip(records, records[1:]):
                assert nxt.sigma == prev.sigma_next
                if not prev.accepted:
                    found_rejection = True
                    assert np.array_equal(nxt.x, prev.x)
                    assert prev.sigma_next == config.gamma1 * prev.sigma
        assert found_rejection

    def test_record_invariants(self):
        for name in ("circle_quadratic", "linear_eq_quadratic", "maratos",
                     "rosenbrock_sphere", "saddle_escape"):
            result = solve(builtin_problem(name))
            for rec in result.history:
                assert_step_rule(rec, SolverConfig())
                assert rec.accepted == (rec.classification != UNSUCCESSFUL)
                assert (rec.rho_corr is not None) == rec.correction_computed
                norm_d = np.linalg.norm(rec.v + rec.u)
                assert norm_d <= np.linalg.norm(rec.v) + np.linalg.norm(rec.u) + 1e-12
                assert rec.mu >= rec.mu_prev

    def test_mu_never_decreases_within_run(self):
        for name in ("circle_quadratic", "rosenbrock_sphere", "maratos"):
            records = solve(builtin_problem(name)).history
            mus = [r.mu for r in records]
            assert all(a <= b for a, b in zip(mus, mus[1:]))

    def test_counts_match_history(self):
        result = solve(builtin_problem("circle_quadratic"))
        records = result.history
        assert result.counts.very_successful == sum(
            r.classification == VERY_SUCCESSFUL for r in records)
        assert result.counts.successful == sum(
            r.classification == SUCCESSFUL for r in records)
        assert result.counts.unsuccessful == sum(
            r.classification == UNSUCCESSFUL for r in records)
        assert result.counts.corrections == sum(
            r.correction_computed for r in records)
        assert result.counts.accepted == sum(r.accepted for r in records)


def _degenerate_problem() -> Problem:
    # constraint gradient vanishes on the whole start fiber x1 = 0
    return Problem(
        name="degenerate", n=2, m=1,
        objective=lambda x: float(x[1]),
        gradient=lambda x: np.array([0.0, 1.0]),
        objective_hessian=lambda x: np.zeros((2, 2)),
        constraints=lambda x: np.array([x[0] ** 2]),
        jacobian=lambda x: np.array([[2.0 * x[0], 0.0]]),
        constraint_hessians=lambda x: [np.diag([2.0, 0.0])],
        default_start=np.array([0.0, 1.0]),
    )


def _nan_gradient_problem() -> Problem:
    return Problem(
        name="nan_gradient", n=2, m=1,
        objective=lambda x: float(x[0] ** 2 + x[1]),
        gradient=lambda x: np.array([np.nan, 1.0]),
        objective_hessian=lambda x: np.eye(2),
        constraints=lambda x: np.array([x[0] + x[1] - 1.0]),
        jacobian=lambda x: np.array([[1.0, 1.0]]),
        constraint_hessians=lambda x: [np.zeros((2, 2))],
        default_start=np.array([2.0, 0.0]),
    )


def _nan_gradient_region_problem() -> Problem:
    # min (x0 - 2)^2 + x1^2  s.t.  x0 = x1; f and c are finite everywhere, but g
    # and hess f are NaN for x0 > 0.5, where the first step from the origin lands.
    def nan_beyond(value, x):
        return np.full_like(value, np.nan) if x[0] > 0.5 else value

    return Problem(
        name="nan_gradient_region", n=2, m=1,
        objective=lambda x: float((x[0] - 2.0) ** 2 + x[1] ** 2),
        gradient=lambda x: nan_beyond(np.array([2.0 * (x[0] - 2.0), 2.0 * x[1]]), x),
        objective_hessian=lambda x: nan_beyond(2.0 * np.eye(2), x),
        constraints=lambda x: np.array([x[0] - x[1]]),
        jacobian=lambda x: np.array([[1.0, -1.0]]),
        constraint_hessians=lambda x: [np.zeros((2, 2))],
        default_start=np.zeros(2),
    )


def _nan_constraint_hessian_problem() -> Problem:
    # min x.x/2 + x0  s.t.  |x|^2 = 1 and x0 + x1 + x2 = 0; the linear
    # constraint's Hessian callback returns a NaN.
    def hessians(x):
        bad = np.zeros((3, 3))
        bad[0, 1] = np.nan
        return [2.0 * np.eye(3), bad]

    return Problem(
        name="nan_constraint_hessian", n=3, m=2,
        objective=lambda x: 0.5 * float(x @ x) + float(x[0]),
        gradient=lambda x: x + np.array([1.0, 0.0, 0.0]),
        objective_hessian=lambda x: np.eye(3),
        constraints=lambda x: np.array([x @ x - 1.0, x.sum()]),
        jacobian=lambda x: np.vstack([2.0 * x, np.ones(3)]),
        constraint_hessians=hessians,
        default_start=np.array([1.0, 0.0, 0.0]),
    )


class TestFailureModes:
    def test_rank_deficient_jacobian_reported(self):
        result = solve(_degenerate_problem())
        assert result.status == LICQ_FAILURE
        assert "rank" in result.message

    def test_non_finite_evaluation_reported(self):
        result = solve(_nan_gradient_problem())
        assert result.status == NUMERICAL_ERROR
        assert "NonFiniteValue" in result.message

    def test_failed_completion_leaves_one_iterate(self):
        """An accepted point whose gradient is NaN ends the run; x_final, lambda_final
        and final_report still describe one iterate, the last one completed."""
        problem = _nan_gradient_region_problem()
        result = solve(problem)
        assert result.status == NUMERICAL_ERROR and "NonFiniteValue" in result.message
        assert result.iterations == 1 and result.history[0].accepted
        x, lam = result.x_final, result.lambda_final
        np.testing.assert_array_equal(x, result.history[0].x)
        np.testing.assert_array_equal(lam, result.history[0].lam)
        grad_l = problem.gradient(x) + problem.jacobian(x).T @ lam
        assert result.final_report.grad_lagrangian_norm == np.linalg.norm(grad_l)
        assert result.final_report.c_l1 == np.abs(problem.constraints(x)).sum()

    def test_non_finite_constraint_hessian_reported(self):
        result = solve(_nan_constraint_hessian_problem())
        assert result.status == NUMERICAL_ERROR
        assert "NonFiniteValue" in result.message

    def test_failed_decomposition_of_t_reported(self, monkeypatch):
        """k = 19: with the Newton iteration on T handing over, a nonzero info
        from dstevd ends the run."""
        lapack = tangential._lapack()
        dstevd = lapack.dstevd
        monkeypatch.setattr(tangential, "_tridiagonal_step", lambda *args: None)
        monkeypatch.setattr(lapack, "dstevd", lambda d, e: (*dstevd(d, e)[:2], 1))
        x0 = 1.0 + 0.1 * np.random.default_rng(3).standard_normal(20)
        result = solve(_chained_rosenbrock_sphere(20), x0=x0)
        assert result.status == NUMERICAL_ERROR
        assert result.message.startswith("SecularSolveFailed: eigendecomposition of T failed")

    def test_failed_model_gradient_check_reported(self, monkeypatch):
        """A cubic step that misses the model's stationarity ends the run."""
        monkeypatch.setattr(tangential, "_eigenbasis_step", lambda lam, Q, g, *args: 0.0 * g)
        result = solve(builtin_problem("maratos"))
        assert result.status == NUMERICAL_ERROR
        assert result.message.startswith("SecularSolveFailed: model gradient")

    def test_nonpositive_predicted_reduction_reported(self, monkeypatch):
        monkeypatch.setattr(driver.merit, "predicted_reduction", lambda *args: -1.0)
        result = solve(builtin_problem("maratos"))
        assert result.status == NUMERICAL_ERROR
        assert result.message.startswith("NonpositivePredictedReduction: ")

    def test_wrong_start_length_rejected(self):
        with pytest.raises(ValueError):
            solve(builtin_problem("circle_quadratic"), x0=[1.0, 2.0, 3.0])

    def test_budget_exhaustion_status(self):
        problem = builtin_problem("rosenbrock_sphere")
        result = solve(problem, config=SolverConfig(max_iter=2))
        assert result.status == MAX_ITERATIONS
        assert result.iterations == 2
        assert "stopped after 2 iterations" in result.message

    def test_invalid_config_surfaces_before_running(self):
        with pytest.raises(ConfigError):
            solve(builtin_problem("circle_quadratic"),
                  config=SolverConfig(eta1=0.0))

    def test_config_not_mutated_by_solve(self):
        config = SolverConfig()
        snapshot = dataclasses.asdict(config)
        solve(builtin_problem("circle_quadratic"), config=config)
        assert dataclasses.asdict(config) == snapshot


def _log_barrier_problem() -> Problem:
    # min -log x1 + 10 x1 + x2^2  s.t.  x1 = x2; f is NaN where x1 <= 0.
    return Problem(
        name="log_barrier", n=2, m=1,
        objective=lambda x: ((-math.log(x[0]) if x[0] > 0.0 else math.nan)
                             + 10.0 * x[0] + x[1] ** 2),
        gradient=lambda x: np.array([-1.0 / x[0] + 10.0, 2.0 * x[1]]),
        objective_hessian=lambda x: np.array([[1.0 / x[0] ** 2, 0.0], [0.0, 2.0]]),
        constraints=lambda x: np.array([x[0] - x[1]]),
        jacobian=lambda x: np.array([[1.0, -1.0]]),
        constraint_hessians=lambda x: [np.zeros((2, 2))],
        default_start=np.array([0.9, 0.9]),
    )


def _near_singular_problem() -> Problem:
    # Jacobian rows (1, 1, 1) and (1, 1, 1 + e): singular-value ratio 2.5e-12.
    A = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0 + 1.06e-11]])
    b = np.ones(2)
    return Problem(
        name="near_singular", n=3, m=2,
        objective=lambda x: 0.5 * float(x @ x),
        gradient=lambda x: x.copy(),
        objective_hessian=lambda x: np.eye(3),
        constraints=lambda x: A @ x - b,
        jacobian=lambda x: A.copy(),
        constraint_hessians=lambda x: [np.zeros((3, 3)), np.zeros((3, 3))],
        default_start=np.array([1.0, -1.0, 0.5]),
    )


class TestRobustness:
    def test_non_finite_trial_point_is_rejected(self, tmp_path):
        problem = _log_barrier_problem()
        config = SolverConfig()
        result = solve(problem, config=config)
        assert result.status == CONVERGED_SOSP
        t = (-10.0 + math.sqrt(108.0)) / 4.0
        np.testing.assert_allclose(result.x_final, [t, t], atol=1e-8)
        np.testing.assert_allclose(result.lambda_final, [2.0 * t], atol=1e-7)
        assert audit_run(problem, result.history, config) == []
        rejected = [r for r in result.history if r.rho == -math.inf]
        assert rejected
        for record, nxt in zip(result.history, result.history[1:]):
            if record.rho == -math.inf:
                assert record.classification == UNSUCCESSFUL
                assert not record.correction_computed
                assert record.sigma_next == config.gamma1 * record.sigma
                assert np.array_equal(nxt.x, record.x)

        path = tmp_path / "log_barrier.trace"
        write_trace(path, problem.name, problem.default_start, config, result)
        data = read_trace(path)
        assert [r.rho for r in data.records] == [r.rho for r in result.history]
        assert audit_run(problem, data.records, data.config) == []

    def test_audit_does_not_change_near_singular_run(self):
        """The audit only reads the records it is given."""
        problem = _near_singular_problem()
        config = SolverConfig(rank_tol=1e-14, max_iter=20)
        result = solve(problem, config=config)

        def snapshot():
            return [[v.tobytes() if isinstance(v, np.ndarray) else v
                     for v in dataclasses.astuple(r)] for r in result.history]

        before = snapshot()
        audit_run(problem, result.history, config)
        assert snapshot() == before

    def test_near_singular_audit_allows_multiplier_rounding(self):
        """|lam| reaches 7e10 on this Jacobian, and A (g + A^T lam) of the exact
        multipliers is rounding of that size, not a failed residual condition."""
        problem = _near_singular_problem()
        config = SolverConfig(rank_tol=1e-14, max_iter=20)
        result = solve(problem, config=config)
        assert max(np.linalg.norm(r.lam) for r in result.history) > 1e10
        violations = audit_run(problem, result.history, config)
        assert "multiplier_residual" not in {v.code for v in violations}

    def test_frozen_step_ends_run(self):
        """An accepted step that leaves x unchanged is no progress: the run
        stops there instead of spending its budget on 1e-17 steps."""
        problem = _near_singular_problem()
        result = solve(problem, config=SolverConfig(rank_tol=1e-14, max_iter=1000))
        assert result.status == NUMERICAL_ERROR
        assert result.iterations <= 10
        last = result.history[-1]
        assert last.accepted
        np.testing.assert_array_equal(result.x_final, last.x)
        assert f"iteration {last.k} left x unchanged" in result.message
        assert f"|d| = {np.linalg.norm(last.v + last.u):.3e}" in result.message

    def test_audit_exception_becomes_violation(self, monkeypatch):
        def broken(record, context, c_trial, config):
            raise FloatingPointError(f"audit broke at k={record.k}")

        monkeypatch.setattr(diagnostics, "audit_iteration", broken)
        problem = builtin_problem("maratos")
        config = SolverConfig()
        result = solve(problem, config=config)
        assert result.status == CONVERGED_SOSP
        violations = audit_run(problem, result.history, config)
        assert [v.code for v in violations] == ["audit_error"] * result.iterations
        assert [v.k for v in violations] == list(range(result.iterations))
        assert violations[0].message == "FloatingPointError: audit broke at k=0"


def _projected_rayleigh_problem(seed: int, n: int = 40, k: int = 9) -> tuple:
    """min x^T Q x  s.t.  |x|^2 = 1 and B x = 0, with B of shape (k, n).

    The minimum is the smallest eigenvalue of Z^T Q Z, Z an orthonormal basis
    of null(B); Q gets a gap of at least 2 below the rest of that spectrum, so
    the minimizer is a strict second-order point.  Returns the problem and
    the minimum.
    """
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((k, n))
    Z = np.linalg.svd(B)[2][k:].T
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    Q = 0.5 * (G + G.T)
    y = Z @ np.linalg.eigh(Z.T @ Q @ Z)[1][:, 0]
    Q -= 2.0 * np.outer(y, y)
    f_min = float(np.linalg.eigvalsh(Z.T @ Q @ Z)[0])
    x0 = rng.standard_normal(n)
    problem = Problem(
        name="projected_rayleigh", n=n, m=k + 1,
        objective=lambda x: float(x @ Q @ x),
        gradient=lambda x: 2.0 * (Q @ x),
        objective_hessian=lambda x: 2.0 * Q,
        constraints=lambda x: np.concatenate([[x @ x - 1.0], B @ x]),
        jacobian=lambda x: np.vstack([2.0 * x, B]),
        constraint_hessians=lambda x: [2.0 * np.eye(n)] + [np.zeros((n, n))] * k,
        default_start=x0 / np.linalg.norm(x0),
    )
    return problem, f_min


def _chained_rosenbrock_sphere(n: int) -> Problem:
    """sum_i 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2  s.t.  |x|^2 = n; x* = 1."""

    def gradient(x):
        t = x[1:] - x[:-1] ** 2
        g = np.zeros(n)
        g[:-1] = -400.0 * x[:-1] * t - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * t
        return g

    def objective_hessian(x):
        H = np.zeros((n, n))
        i = np.arange(n - 1)
        H[i, i] = 1200.0 * x[:-1] ** 2 - 400.0 * x[1:] + 2.0
        H[i + 1, i + 1] += 200.0
        H[i, i + 1] = H[i + 1, i] = -400.0 * x[:-1]
        return H

    return Problem(
        name="chained_rosenbrock_sphere", n=n, m=1,
        objective=lambda x: float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                                         + (1.0 - x[:-1]) ** 2)),
        gradient=gradient, objective_hessian=objective_hessian,
        constraints=lambda x: np.array([x @ x - n]),
        jacobian=lambda x: 2.0 * x[None, :],
        constraint_hessians=lambda x: [2.0 * np.eye(n)],
        default_start=np.ones(n),
    )


class TestBeyondCatalog:
    def test_chained_rosenbrock_sphere_audited(self, monkeypatch):
        """n = 120, k = 119: an SOSP at x* = 1, a clean audit, and one
        Householder tridiagonalization per distinct iterate."""
        problem = _chained_rosenbrock_sphere(120)
        x0 = 1.0 + 0.1 * np.random.default_rng(3).standard_normal(120)
        lapack = tangential._lapack()
        dsytrd, reductions = lapack.dsytrd, []

        def counted(*args, **kwargs):
            reductions.append(1)
            return dsytrd(*args, **kwargs)

        monkeypatch.setattr(lapack, "dsytrd", counted)
        config = SolverConfig()
        result = solve(problem, x0=x0, config=config)
        monkeypatch.undo()
        assert result.status == CONVERGED_SOSP
        assert audit_run(problem, result.history, config) == []
        np.testing.assert_allclose(result.x_final, np.ones(120), rtol=0, atol=1e-8)
        assert len(reductions) == 1 + result.counts.accepted

    def test_projected_rayleigh_audited(self):
        """n = 40, m = 10: reaches the compressed lambda_min; the audit is clean."""
        problem, f_min = _projected_rayleigh_problem(seed=17)
        config = SolverConfig()
        result = solve(problem, config=config)
        assert result.status == CONVERGED_SOSP
        assert audit_run(problem, result.history, config) == []
        assert problem.objective(result.x_final) == pytest.approx(f_min, abs=1e-8)
        for rec in result.history:
            assert_step_rule(rec, config)

    def test_chained_rosenbrock_sphere_n300_audited(self):
        """n = 300, k = 299, the benchmark's `curved` size: an SOSP at x* = 1
        and a clean audit."""
        problem = _chained_rosenbrock_sphere(300)
        x0 = 1.0 + 0.1 * np.random.default_rng(5).standard_normal(300)
        config = SolverConfig()
        result = solve(problem, x0=x0, config=config)
        assert result.status == CONVERGED_SOSP
        assert audit_run(problem, result.history, config) == []
        np.testing.assert_allclose(result.x_final, np.ones(300), rtol=0, atol=1e-8)

    def test_projected_rayleigh_n300_audited(self):
        """n = 300, m = 75, the benchmark's `wide` size: reaches the compressed
        lambda_min and a clean audit."""
        problem, f_min = _projected_rayleigh_problem(seed=17, n=300, k=74)
        config = SolverConfig()
        result = solve(problem, config=config)
        assert result.status == CONVERGED_SOSP
        assert audit_run(problem, result.history, config) == []
        assert problem.objective(result.x_final) == pytest.approx(f_min, abs=1e-8)


class TestEvaluationEconomy:
    def test_work_once_per_iterate(self, monkeypatch):
        """Derivatives, v_c and one ReducedHessian per distinct iterate, no eigh;
        f and c per point."""
        base = builtin_problem("maratos")
        calls = dict.fromkeys(("objective", "gradient", "objective_hessian",
                               "constraints", "jacobian", "constraint_hessians"), 0)

        def counted(kind):
            fn = getattr(base, kind)

            def callback(x):
                calls[kind] += 1
                return fn(x)
            return callback

        problem = dataclasses.replace(base, **{kind: counted(kind) for kind in calls})
        reductions, eigh_calls, vc_calls = [], [], []
        eigh, compute_vc = np.linalg.eigh, driver.compute_vc

        def counted_reduction(H_red):
            reductions.append(1)
            return tangential.ReducedHessian(H_red)

        def counted_eigh(*args, **kwargs):
            eigh_calls.append(1)
            return eigh(*args, **kwargs)

        def counted_vc(*args):
            vc_calls.append(1)
            return compute_vc(*args)

        monkeypatch.setattr(driver, "ReducedHessian", counted_reduction)
        monkeypatch.setattr(driver, "compute_vc", counted_vc)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        # from this start the run both corrects and rejects steps
        result = solve(problem, x0=[0.0, 1.0], config=SolverConfig(sigma0=0.1))
        monkeypatch.undo()

        history = result.history
        assert result.status == CONVERGED_SOSP
        assert result.counts.corrections >= 1
        assert result.counts.unsuccessful >= 1
        iterates = 1 + result.counts.accepted  # the start and every accepted point
        points = 1 + len(history) + result.counts.corrections
        assert calls["objective"] == calls["constraints"] == points
        for kind in ("gradient", "jacobian", "objective_hessian", "constraint_hessians"):
            assert calls[kind] == iterates, kind
        assert len(reductions) == len(vc_calls) == iterates
        assert eigh_calls == []  # the eigenbasis fallback never ran


def _bits(value) -> bytes:
    if value is None or isinstance(value, str):
        return repr(value).encode()
    return np.asarray(value, dtype=float).tobytes()


def _tolerance_runs():
    """(label, problem, x0, max_iter) of the catalog, corpus seeds 0-19 and
    elec N = 4 from its five starts."""
    for name in ("circle_quadratic", "linear_eq_quadratic", "maratos",
                 "rosenbrock_sphere", "saddle_escape"):
        problem = builtin_problem(name)
        yield name, problem, problem.default_start, SolverConfig().max_iter
    for seed in range(20):
        problem, _ = _corpus_problem(seed)
        yield f"corpus_{seed}", problem, problem.default_start, 300
    problem = _elec_problem(4)
    for start, x0 in enumerate(_elec_starts(4)):
        yield f"elec_4/{start}", problem, x0, SolverConfig().max_iter


def test_a_looser_tolerance_stops_the_same_run_sooner():
    """The tolerances enter only the stop test: a solve at eps makes, bit for
    bit, the first records of the solve at the default 1e-8, and as many as the
    first k whose iterate meets eps in all three measures (the final report
    is the iterate a run stops at), or all of them if none does."""
    for label, problem, x0, max_iter in _tolerance_runs():
        tight = solve(problem, x0, SolverConfig(max_iter=max_iter))
        reports = [*tight.history, *filter(None, [tight.final_report])]
        for eps in (1e-2, 1e-4, 1e-6):
            config = SolverConfig(max_iter=max_iter, eps_g=eps, eps_c=eps, eps_h=eps)
            loose = solve(problem, x0, config)
            stop = next((k for k, r in enumerate(reports) if r.grad_lagrangian_norm <= eps
                         and r.c_l1 <= eps and r.lambda_min_red >= -eps), tight.iterations)
            assert loose.iterations == stop, (label, eps)
            for a, b in zip(loose.history, tight.history):
                for field in dataclasses.fields(a):
                    assert _bits(getattr(a, field.name)) == _bits(getattr(b, field.name)), (
                        label, eps, a.k, field.name)
