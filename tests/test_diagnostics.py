"""Invariant auditing, derivative checks, and rate estimation."""

import dataclasses

import numpy as np
import pytest

from cubeq import diagnostics
from cubeq.diagnostics import (audit_run, convergence_rate,
                               finite_difference_check, merit_gap_warnings)
from cubeq.driver import SolverConfig, solve
from cubeq.errors import InsufficientHistory
from cubeq.linalg import factorize_jacobian
from cubeq.problems import Problem, builtin_problem
from helpers import perturb

# One tampered record per violation code: (code, problem, k, replacements,
# every code reported at k).  ``replacements`` maps the record r, z1 (the first
# column of Z at r.x) and a1 (the first constraint gradient there) to fields.
TAMPERED = [
    ("sigma_update", "circle_quadratic", 0,
     lambda r, z1, a1: {"sigma_next": 10.0 * r.sigma}, {"sigma_update"}),
    ("correction_residual", "maratos", 0,
     lambda r, z1, a1: {"w": 1.1 * r.w}, {"correction_residual"}),
    ("correction_range", "maratos", 0,
     lambda r, z1, a1: {"w": r.w + 1e-3 * z1}, {"correction_range"}),
    ("correction_beta_one", "maratos", 0,
     lambda r, z1, a1: {"beta": 0.999}, {"beta_interval", "correction_beta_one"}),
    ("normal_residual", "maratos", 0,
     lambda r, z1, a1: {"v_c": 1.1 * r.v_c}, {"normal_bound", "normal_residual"}),
    ("normal_range", "maratos", 0,
     lambda r, z1, a1: {"v_c": r.v_c + 1e-3 * z1}, {"normal_bound", "normal_range"}),
    ("linearized_contraction", "maratos", 0,
     lambda r, z1, a1: {"v": np.zeros_like(r.v)},
     {"correction_residual", "linearized_contraction", "merit_reduction_bound"}),
    ("tangential_nullspace", "maratos", 1,
     lambda r, z1, a1: {"u": r.u + 1e-3 * a1},
     {"correction_residual", "decrease_vs_gradient", "decrease_vs_step",
      "merit_reduction_bound", "or1_cauchy_dominance", "tangential_nullspace"}),
    # records 0-2 share x; a perturbed lam gives record 0 a context of its own
    ("multiplier_residual", "circle_quadratic", 0,
     lambda r, z1, a1: {"lam": r.lam + 1e-6}, {"multiplier_residual"}),
    ("or3_curvature", "saddle_escape", 0,
     lambda r, z1, a1: {"u": 1e-3 * r.u}, {"or2_model_gradient", "or3_curvature"}),
    ("or1_cauchy_dominance", "rosenbrock_sphere", 3,
     lambda r, z1, a1: {"u": 0.7 * r.u},
     {"or1_cauchy_dominance", "or2_model_gradient", "or3_curvature"}),
    ("decrease_vs_step", "saddle_escape", 0,
     lambda r, z1, a1: {"u": 2.0 * r.u},
     {"decrease_vs_gradient", "decrease_vs_step", "or1_cauchy_dominance",
      "or2_model_gradient"}),
    ("tangential_size", "saddle_escape", 0,
     lambda r, z1, a1: {"u": 50.0 * r.u},
     {"decrease_vs_gradient", "decrease_vs_step", "or1_cauchy_dominance",
      "or2_model_gradient", "tangential_size"}),
    # v_c = 0 at this record: the beta = 1 branch of the interval check
    ("beta_interval", "saddle_escape", 0,
     lambda r, z1, a1: {"beta": 0.5}, {"beta_interval", "correction_beta_one"}),
]


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

    @pytest.mark.parametrize("code, name, k, replace, codes", TAMPERED,
                             ids=[case[0] for case in TAMPERED])
    def test_every_code_has_a_tampered_record(self, code, name, k, replace, codes):
        problem = builtin_problem(name)
        config = SolverConfig()
        records = list(solve(problem, config=config).history)
        fact = factorize_jacobian(problem.jacobian(records[k].x))
        records[k] = perturb(records[k], **replace(records[k], fact.Z[:, 0], fact.A[0]))
        violations = audit_run(problem, records, config)
        assert code in codes
        assert {v.code for v in violations if v.k == k} == codes
        assert all(v.k == k for v in violations)

    def test_violation_carries_magnitudes(self):
        violations = self._audit_with("circle_quadratic", 0, beta=0.5)
        v = violations[0]
        assert v.k == 0
        assert v.value != v.bound
        assert "beta" in v.message


class TestAuditRun:
    def test_exception_at_one_record_is_a_violation_there(self, monkeypatch):
        """The other records keep their real results, a tampered one included."""
        problem = builtin_problem("rosenbrock_sphere")
        config = SolverConfig()
        records = list(solve(problem, config=config).history)
        records[1] = perturb(records[1], beta=0.5)
        broken_k = 3
        expected = audit_run(problem, records, config)
        audit_iteration = diagnostics.audit_iteration

        def broken(record, context, config):
            if record.k == broken_k:
                raise FloatingPointError(f"audit broke at k={record.k}")
            return audit_iteration(record, context, config)

        monkeypatch.setattr(diagnostics, "audit_iteration", broken)
        violations = audit_run(problem, records, config)
        assert [v.code for v in violations if v.k == 1] == ["beta_interval"]
        errors = [v for v in violations if v.code == "audit_error"]
        assert [(v.k, v.message) for v in errors] == [
            (broken_k, f"FloatingPointError: audit broke at k={broken_k}")]
        assert [v for v in violations if v.k != broken_k] == [
            v for v in expected if v.k != broken_k]

    def test_failed_rebuild_is_tried_again_at_the_same_iterate(self, monkeypatch):
        """Records 0-2 share their x: a rebuild that fails at k = 0 is redone at k = 1."""
        problem = builtin_problem("circle_quadratic")
        config = SolverConfig()
        records = solve(problem, config=config).history
        assert records[0].x.tobytes() == records[1].x.tobytes() == records[2].x.tobytes()
        rebuild_context = diagnostics.rebuild_context
        rebuilt_at = []

        def flaky(problem, record, rank_tol):
            rebuilt_at.append(record.k)
            if len(rebuilt_at) == 1:
                raise FloatingPointError("rebuild broke")
            return rebuild_context(problem, record, rank_tol)

        monkeypatch.setattr(diagnostics, "rebuild_context", flaky)
        violations = audit_run(problem, records, config)
        assert [(v.k, v.code) for v in violations] == [(0, "audit_error")]
        assert rebuilt_at[:3] == [0, 1, 3]


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
                warnings.extend(merit_gap_warnings(problem, record))
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
            merit_gap_warnings(problem, record)
        assert len(hessian_points) == 2 * len(checked)
        for i, record in enumerate(checked):
            for x in hessian_points[2 * i:2 * i + 2]:
                np.testing.assert_array_equal(x, record.x)
