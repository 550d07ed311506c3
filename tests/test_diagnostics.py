"""Invariant auditing, derivative checks, and rate estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeq import diagnostics
from cubeq.diagnostics import (TOLERANCE, audit_run, clears_floor, convergence_rate,
                               finite_difference_check, rebuild_context)
from cubeq.driver import SolverConfig, solve
from cubeq.errors import InsufficientHistory
from cubeq.linalg import factorize_jacobian, reduce_matrix
from cubeq.problems import Problem, builtin_problem, evaluate, lagrangian_hessian
from cubeq.trace_io import read_trace, write_trace
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


SPECTRAL_CODES = ("or3_curvature", "tangential_size", "decrease_vs_gradient")


def _spectral_magnitudes(problem, record, rank_tol):
    """(value, bound) of each check in SPECTRAL_CODES, with |H|_2 and
    lambda_min(Z^T H Z) from eigvalsh."""
    point = evaluate(problem, record.x)
    fact = factorize_jacobian(point.A, rank_tol)
    H = lagrangian_hessian(point, record.lam)
    norm_H = float(np.max(np.abs(np.linalg.eigvalsh(H))))
    lam_min = float(np.linalg.eigvalsh(reduce_matrix(fact, H))[0])
    g_shift = point.g + H @ record.v
    gn = float(np.linalg.norm(fact.Z.T @ g_shift))
    u, sigma = record.u, record.sigma
    norm_u = float(np.linalg.norm(u))
    delta_m = -(float(g_shift @ u) + 0.5 * float(u @ H @ u) + sigma / 3.0 * norm_u**3)
    return {
        "or3_curvature": (lam_min, -sigma * norm_u),
        "tangential_size": (norm_u, 3.0 * max(norm_H / sigma, math.sqrt(gn / sigma))),
        "decrease_vs_gradient": (delta_m, 0.3 * gn * min(gn / (1.0 + norm_H),
                                                         math.sqrt(gn / sigma))),
    }


def _assert_spectral_magnitudes(violations, problem, record, rank_tol):
    expected = _spectral_magnitudes(problem, record, rank_tol)
    for v in violations:
        if v.code in expected:
            value, bound = expected[v.code]
            assert v.value == pytest.approx(value, rel=1e-12, abs=1e-15), v.code
            assert v.bound == pytest.approx(bound, rel=1e-12, abs=1e-15), v.code


class TestCleanRuns:
    def test_live_audit_finds_nothing(self):
        config = SolverConfig()
        for name in ("circle_quadratic", "maratos"):
            problem = builtin_problem(name)
            assert audit_run(problem, solve(problem, config=config).history, config) == []

    def test_replay_audit_matches_live(self, tmp_path):
        """The audit of a trace read back equals the audit of the run's history."""
        problem = builtin_problem("circle_quadratic")
        config = SolverConfig()
        result = solve(problem, config=config)
        live = audit_run(problem, result.history, config)
        path = tmp_path / "run.trace"
        write_trace(path, problem.name, problem.default_start, config, result, live)
        data = read_trace(path)
        replayed = audit_run(problem, data.records, data.config)
        assert replayed == live == []


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
        violations = self._audit_with("linear_eq_quadratic", 1, u=1.1 * rec.u)
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
        _assert_spectral_magnitudes(violations, problem, records[k], config.rank_tol)

    def test_violation_carries_magnitudes(self):
        violations = self._audit_with("circle_quadratic", 0, beta=0.5)
        v = violations[0]
        assert v.k == 0
        assert v.value != v.bound
        assert "beta" in v.message


def _bilinear_on_sphere():
    """min x1 x2 on the unit sphere of R^3, from near the saddle at the pole.

    The start's multiplier is 0, so H there has a zero diagonal and |H|_2 = 1:
    the lower bound max |H_ii| = 0 is as weak as it gets.
    """
    bilinear = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return Problem(
        name="bilinear_on_sphere", n=3, m=1,
        objective=lambda x: float(x[0] * x[1]),
        gradient=lambda x: bilinear @ x,
        objective_hessian=lambda x: bilinear,
        constraints=lambda x: np.array([x @ x - 1.0]),
        jacobian=lambda x: 2.0 * x[None, :],
        constraint_hessians=lambda x: [2.0 * np.eye(3)],
        default_start=np.array([1e-3, 0.0, math.sqrt(1.0 - 1e-6)]),
    )


class TestSpectralFallbacks:
    """The checks that read |H|_2 or lambda_min(Z^T H Z) report what the exact
    values decide, also where the cheap test cannot decide."""

    def _run(self):
        problem = _bilinear_on_sphere()
        config = SolverConfig()
        return problem, config, list(solve(problem, config=config).history)

    def test_norm_bound_that_trips_falls_back_to_the_exact_norm(self, monkeypatch):
        problem, config, records = self._run()
        context = rebuild_context(problem, records[0], config.rank_tol)
        assert np.all(np.diagonal(context.H) == 0.0)
        assert context.norm_H == pytest.approx(1.0)
        # with |H| = 0 the size bound is 3 sqrt(|g_red| / sigma), which |u| exceeds
        gn_red = float(np.linalg.norm(context.fact.Z.T @ context.point.g))
        assert np.linalg.norm(records[0].u) > 6.0 * math.sqrt(gn_red / records[0].sigma)
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(M):
            sizes.append(len(M))
            return eigvalsh(M)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert audit_run(problem, records, config) == []
        assert sizes.count(problem.n) >= 1  # |H|_2 was computed, at k = 0 at least

    @pytest.mark.parametrize("scale, codes", [
        (0.0, {"or3_curvature", "decrease_vs_gradient"}),
        (5.0, {"tangential_size", "decrease_vs_gradient"}),
    ])
    def test_tripped_checks_report_exact_spectral_values(self, scale, codes):
        problem, config, records = self._run()
        records[0] = perturb(records[0], u=scale * records[0].u)
        violations = [v for v in audit_run(problem, records, config) if v.k == 0]
        assert {v.code for v in violations} & set(SPECTRAL_CODES) == codes
        _assert_spectral_magnitudes(violations, problem, records[0], config.rank_tol)

    def test_curvature_within_the_cholesky_margin(self):
        """sigma |u| placed ulps around the or3 threshold: the Cholesky cannot
        decide, and the verdict is the exact lambda_min's on both sides."""
        problem, config, records = self._run()
        record = records[0]
        context = rebuild_context(problem, record, config.rank_tol)
        lam_min = float(np.linalg.eigvalsh(context.H_red)[0])
        unit_u = record.u / np.linalg.norm(record.u)
        outcomes = set()
        for j in range(-8, 9):
            target = -lam_min / (1.0 + TOLERANCE) * (1.0 + 2e-16 * j)
            tampered = perturb(record, u=unit_u * (target / record.sigma))
            floor = -record.sigma * float(np.linalg.norm(tampered.u))
            assert not clears_floor(context.H_red, floor - TOLERANCE * max(1.0, -floor))
            trips = min(lam_min, 0.0) < floor - TOLERANCE * max(1.0, -floor, abs(lam_min))
            reported = [(v.value, v.bound) for v in audit_run(problem, [tampered], config)
                        if v.code == "or3_curvature"]
            assert reported == ([(lam_min, floor)] if trips else [])
            outcomes.add(trips)
        assert outcomes == {False, True}


@st.composite
def spectra(draw, gap):
    """(M, floor): symmetric k x k M with |M|_2 about 10^(-6..6) and lambda_min
    placed ``gap(draw, scale)`` above the floor."""
    k = draw(st.integers(1, 60))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    floor = scale * draw(st.floats(-1.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam_min = floor + gap(draw, scale)
    spectrum = np.concatenate([[lam_min], lam_min + scale * rng.uniform(0.0, 1.0, k - 1)])
    Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    M = (Q * spectrum) @ Q.T
    return 0.5 * (M + M.T), floor


def _ulps(draw, scale):
    return draw(st.sampled_from([-1.0, 1.0])) * draw(st.integers(1, 1000)) * np.spacing(scale)


def _clearance(draw, scale):
    return scale * 10.0 ** draw(st.floats(-8.0, 0.0))


class TestCholeskyCertificate:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(spectra(_ulps))
    def test_certified_implies_the_floor(self, case):
        M, floor = case
        original = M.tobytes()
        certified = clears_floor(M, floor)
        assert M.tobytes() == original  # the shifted diagonal is restored bit for bit
        if certified:
            assert np.linalg.eigvalsh(M)[0] >= floor

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(spectra(_clearance))
    def test_clear_margin_is_certified(self, case):
        M, floor = case
        eigenvalues = np.linalg.eigvalsh(M)
        if eigenvalues[0] >= floor + 1e-8 * np.max(np.abs(eigenvalues)):
            assert clears_floor(M, floor)


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

        def broken(record, context, c_trial, config):
            if record.k == broken_k:
                raise FloatingPointError(f"audit broke at k={record.k}")
            return audit_iteration(record, context, c_trial, config)

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
