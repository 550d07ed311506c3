"""End-to-end solver behaviour: classification, updates, and convergence."""

import dataclasses
import math

import numpy as np
import pytest

from cubeq import diagnostics, driver, tangential
from cubeq.diagnostics import audit_run
from cubeq.driver import (CONVERGED_SOSP, LICQ_FAILURE, MAX_ITERATIONS,
                          NUMERICAL_ERROR, SUCCESSFUL, UNSUCCESSFUL,
                          VERY_SUCCESSFUL, SolverConfig, check_stationarity,
                          classify_iteration, solve, update_sigma)
from cubeq.errors import ConfigError
from cubeq.problems import Problem, builtin_problem
from cubeq.trace_io import read_trace, write_trace


def _merit(record):
    return record.f + record.mu * record.c_l1


class TestConfig:
    def test_defaults_are_valid(self):
        SolverConfig().validate()

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
            dict(max_iter=0), dict(rank_tol=0.0), dict(rank_tol=1.0),
        ]
        for overrides in bad:
            with pytest.raises(ConfigError):
                SolverConfig(**overrides).validate()


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
        for name in ("circle_quadratic", "maratos", "saddle_escape"):
            result = solve(builtin_problem(name))
            for rec in result.history:
                assert rec.accepted == (rec.classification != UNSUCCESSFUL)
                assert (rec.rho_corr is not None) == rec.correction_computed
                assert rec.norm_d <= rec.norm_v + rec.norm_u + 1e-12
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

    def test_non_finite_constraint_hessian_reported(self):
        result = solve(_nan_constraint_hessian_problem())
        assert result.status == NUMERICAL_ERROR
        assert "NonFiniteValue" in result.message

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
        config = SolverConfig(audit=True)
        result = solve(problem, config=config)
        assert result.status == CONVERGED_SOSP
        t = (-10.0 + math.sqrt(108.0)) / 4.0
        np.testing.assert_allclose(result.x_final, [t, t], atol=1e-8)
        np.testing.assert_allclose(result.lambda_final, [2.0 * t], atol=1e-7)
        assert result.violations == []
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
        problem = _near_singular_problem()
        plain = solve(problem, config=SolverConfig(rank_tol=1e-14, max_iter=20))
        audited = solve(problem, config=SolverConfig(rank_tol=1e-14, max_iter=20,
                                                     audit=True))
        assert audited.status == plain.status
        assert audited.iterations == plain.iterations
        np.testing.assert_array_equal(audited.x_final, plain.x_final)

    def test_near_singular_audit_allows_multiplier_rounding(self):
        """|lam| reaches 7e10 on this Jacobian, and A (g + A^T lam) of the exact
        multipliers is rounding of that size, not a failed residual condition."""
        problem = _near_singular_problem()
        result = solve(problem, config=SolverConfig(rank_tol=1e-14, max_iter=20, audit=True))
        assert max(np.linalg.norm(r.lam) for r in result.history) > 1e10
        assert "multiplier_residual" not in {v.code for v in result.violations}

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
        assert f"|d| = {last.norm_d:.3e}" in result.message

    def test_audit_exception_becomes_violation(self, monkeypatch):
        def broken(record, context, config):
            raise FloatingPointError(f"audit broke at k={record.k}")

        monkeypatch.setattr(diagnostics, "audit_iteration", broken)
        problem = builtin_problem("maratos")
        plain = solve(problem, config=SolverConfig())
        audited = solve(problem, config=SolverConfig(audit=True))
        assert audited.status == plain.status == CONVERGED_SOSP
        assert audited.iterations == plain.iterations
        np.testing.assert_array_equal(audited.x_final, plain.x_final)
        assert [v.code for v in audited.violations] == ["audit_error"] * plain.iterations
        assert [v.k for v in audited.violations] == list(range(plain.iterations))
        assert audited.violations[0].message == "FloatingPointError: audit broke at k=0"


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
        """n = 120, k = 119: an SOSP at x* = 1, a clean audit, one Householder
        tridiagonalization per distinct iterate, and the audit changes nothing."""
        problem = _chained_rosenbrock_sphere(120)
        x0 = 1.0 + 0.1 * np.random.default_rng(3).standard_normal(120)
        lapack = tangential._lapack()
        dsytrd, reductions = lapack.dsytrd, []

        def counted(*args, **kwargs):
            reductions.append(1)
            return dsytrd(*args, **kwargs)

        monkeypatch.setattr(lapack, "dsytrd", counted)
        plain = solve(problem, x0=x0)
        monkeypatch.undo()
        audited = solve(problem, x0=x0, config=SolverConfig(audit=True))
        assert audited.status == CONVERGED_SOSP
        assert audited.violations == []
        np.testing.assert_allclose(audited.x_final, np.ones(120), rtol=0, atol=1e-8)
        assert len(reductions) == 1 + plain.counts.accepted
        assert audited.status == plain.status
        assert audited.iterations == plain.iterations
        np.testing.assert_array_equal(audited.x_final, plain.x_final)

    def test_projected_rayleigh_audited(self):
        """n = 40, m = 10: reaches the compressed lambda_min; the audit is clean."""
        problem, f_min = _projected_rayleigh_problem(seed=17)
        plain = solve(problem)
        audited = solve(problem, config=SolverConfig(audit=True))
        assert audited.status == CONVERGED_SOSP
        assert audited.violations == []
        assert problem.objective(audited.x_final) == pytest.approx(f_min, abs=1e-8)
        assert audited.status == plain.status
        assert audited.iterations == plain.iterations
        np.testing.assert_array_equal(audited.x_final, plain.x_final)

    @pytest.mark.slow
    def test_chained_rosenbrock_sphere_n300_audited(self):
        """n = 300, k = 299, the benchmark's `curved` size: an SOSP at x* = 1,
        a clean audit, and the audited run takes the plain run's path."""
        problem = _chained_rosenbrock_sphere(300)
        x0 = 1.0 + 0.1 * np.random.default_rng(5).standard_normal(300)
        plain = solve(problem, x0=x0)
        audited = solve(problem, x0=x0, config=SolverConfig(audit=True))
        assert audited.status == CONVERGED_SOSP
        assert audited.violations == []
        np.testing.assert_allclose(audited.x_final, np.ones(300), rtol=0, atol=1e-8)
        assert [r.x.tobytes() for r in audited.history] == [r.x.tobytes() for r in plain.history]
        np.testing.assert_array_equal(audited.x_final, plain.x_final)

    @pytest.mark.slow
    def test_projected_rayleigh_n300_audited(self):
        """n = 300, m = 75, the benchmark's `wide` size: reaches the compressed
        lambda_min, a clean audit, and the audited run takes the plain run's path."""
        problem, f_min = _projected_rayleigh_problem(seed=17, n=300, k=74)
        plain = solve(problem)
        audited = solve(problem, config=SolverConfig(audit=True))
        assert audited.status == CONVERGED_SOSP
        assert audited.violations == []
        assert problem.objective(audited.x_final) == pytest.approx(f_min, abs=1e-8)
        assert [r.x.tobytes() for r in audited.history] == [r.x.tobytes() for r in plain.history]
        np.testing.assert_array_equal(audited.x_final, plain.x_final)


class TestEvaluationEconomy:
    def test_work_once_per_iterate(self, monkeypatch):
        """Derivatives and one ReducedHessian per distinct iterate, no eigh;
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
        reductions, eigh_calls = [], []
        eigh = np.linalg.eigh

        def counted_reduction(H_red):
            reductions.append(1)
            return tangential.ReducedHessian(H_red)

        def counted_eigh(*args, **kwargs):
            eigh_calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(driver, "ReducedHessian", counted_reduction)
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
        assert len(reductions) == iterates
        assert eigh_calls == []  # the eigenbasis fallback never ran
