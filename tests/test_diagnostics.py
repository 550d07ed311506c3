"""Invariant auditing, derivative checks, and rate estimation."""

import dataclasses

import numpy as np
import pytest

from cubeq.diagnostics import (audit_run, convergence_rate,
                               finite_difference_check, merit_gap_warnings)
from cubeq.driver import SolverConfig, solve
from cubeq.errors import InsufficientHistory
from cubeq.problems import Problem, builtin_problem
from helpers import perturb


class TestCleanRuns:
    def test_live_audit_finds_nothing(self):
        for name in ("circle_quadratic", "maratos"):
            result = solve(builtin_problem(name), config=SolverConfig(audit=True))
            assert result.violations == []

    def test_replay_audit_matches_live(self):
        problem = builtin_problem("circle_quadratic")
        config = SolverConfig(audit=True)
        result = solve(problem, config=config)
        replayed = audit_run(problem, result.history, config)
        assert replayed == result.violations == []


class TestTamperedRecords:
    """Each fixture breaks exactly one invariant and must be caught by name."""

    def _audit_with(self, problem_name, k, **replacements):
        problem = builtin_problem(problem_name)
        config = SolverConfig()
        result = solve(problem, config=config)
        records = list(result.history)
        records[k] = perturb(records[k], **replacements)
        return audit_run(problem, records, config)

    def test_inflated_tangential_step(self):
        result = solve(builtin_problem("linear_eq_quadratic"))
        rec = result.history[1]
        violations = self._audit_with("linear_eq_quadratic", 1,
                                      u=1.1 * rec.u,
                                      norm_u=1.1 * rec.norm_u)
        assert {v.code for v in violations} == {"or2_model_gradient"}
        assert all(v.k == 1 for v in violations)

    def test_understated_penalty(self):
        result = solve(builtin_problem("circle_quadratic"))
        rec = result.history[0]
        assert rec.mu_candidate > 0.0
        violations = self._audit_with("circle_quadratic", 0,
                                      mu=0.5 * rec.mu_candidate)
        assert {v.code for v in violations} == {"merit_reduction_bound"}

    def test_off_interval_step_fraction(self):
        violations = self._audit_with("circle_quadratic", 0, beta=0.5)
        assert {v.code for v in violations} == {"beta_interval"}

    def test_violation_carries_magnitudes(self):
        violations = self._audit_with("circle_quadratic", 0, beta=0.5)
        v = violations[0]
        assert v.k == 0
        assert v.value != v.bound
        assert "beta" in v.message


class TestFiniteDifferences:
    def test_catalog_derivatives_are_consistent(self):
        rng = np.random.default_rng(37)
        for name in ("circle_quadratic", "linear_eq_quadratic", "maratos",
                     "rosenbrock_sphere", "saddle_escape"):
            problem = builtin_problem(name)
            for _ in range(5):
                x = rng.standard_normal(problem.n)
                report = finite_difference_check(problem, x)
                assert report.passed, (name, report)

    def test_affine_constraints_have_tiny_jacobian_error(self):
        problem = builtin_problem("linear_eq_quadratic")
        report = finite_difference_check(problem, np.ones(problem.n))
        assert report.jacobian_error <= 1e-9

    def test_wrong_gradient_is_flagged(self):
        base = builtin_problem("circle_quadratic")
        broken = Problem(
            name="broken", n=base.n, m=base.m,
            objective=base.objective,
            gradient=lambda x: base.gradient(x) + np.array([0.5, 0.0]),
            objective_hessian=base.objective_hessian,
            constraints=base.constraints, jacobian=base.jacobian,
            constraint_hessians=base.constraint_hessians,
            default_start=base.default_start,
        )
        report = finite_difference_check(broken, np.array([0.3, -0.2]))
        assert not report.passed
        assert report.gradient_error > 0.1


class TestConvergenceRate:
    def test_too_few_accepted_steps(self):
        result = solve(builtin_problem("saddle_escape"))
        x_star = builtin_problem("saddle_escape").known_solution[0]
        with pytest.raises(InsufficientHistory):
            convergence_rate(result, x_star)

    def test_rate_on_circle(self):
        problem = builtin_problem("circle_quadratic")
        config = SolverConfig(eps_g=1e-12, eps_c=1e-12, eps_h=1e-12)
        result = solve(problem, config=config)
        report = convergence_rate(result, problem.known_solution[0])
        assert report.monotone_linear
        assert 0.0 < report.fitted_constant <= 1e3
        assert len(report.linear_ratios) == 3
        # errors themselves must be decreasing near the solution
        tail = report.errors[-4:]
        assert all(b < a for a, b in zip(tail, tail[1:]))


class TestMeritGapWarnings:
    def test_catalog_runs_stay_within_curvature_budget(self):
        config = SolverConfig()
        for name in ("circle_quadratic", "rosenbrock_sphere"):
            problem = builtin_problem(name)
            result = solve(problem, config=config)
            warnings = []
            for record in result.history:
                warnings.extend(merit_gap_warnings(problem, record, config))
            assert warnings == []

    def test_hessians_only_at_the_iterate(self):
        """x + d is evaluated for f, c, g and A; the Hessians only at x."""
        base = builtin_problem("circle_quadratic")
        config = SolverConfig()
        result = solve(base, config=config)
        hessian_points = []

        def counted(fn):
            def callback(x):
                hessian_points.append(np.array(x))
                return fn(x)
            return callback

        problem = dataclasses.replace(
            base, objective_hessian=counted(base.objective_hessian),
            constraint_hessians=counted(base.constraint_hessians))
        checked = [r for r in result.history
                   if r.accepted and not r.correction_computed and r.norm_d > 0.0]
        assert checked
        for record in result.history:
            merit_gap_warnings(problem, record, config)
        assert len(hessian_points) == 2 * len(checked)
        for i, record in enumerate(checked):
            for x in hessian_points[2 * i:2 * i + 2]:
                np.testing.assert_array_equal(x, record.x)
