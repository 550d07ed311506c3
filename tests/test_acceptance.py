"""Acceptance suite: nine behavioural criteria, one pass/fail line each."""

import time

import numpy as np

from cubeq.diagnostics import (audit_run, convergence_rate,
                               finite_difference_check)
from cubeq.driver import CONVERGED_SOSP, SolverConfig, solve
from cubeq.problems import builtin_problem, problem_names
from cubeq.tangential import ReducedHessian, solve_cubic
from helpers import perturb, ray_polish_min

RUNTIME_BUDGET_S = 5.0
SWEEP_EPS = (1e-2, 1e-3, 1e-4, 1e-5)


def _report(number, ok, detail):
    print(f"criterion {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_audit_clean():
    """Every built-in problem runs audit-clean within the runtime budget,
    solve and audit together."""
    worst_time = 0.0
    dirty = []
    config = SolverConfig()
    for name in problem_names():
        start = time.perf_counter()
        problem = builtin_problem(name)
        violations = audit_run(problem, solve(problem, config=config).history, config)
        elapsed = time.perf_counter() - start
        worst_time = max(worst_time, elapsed)
        if violations or elapsed >= RUNTIME_BUDGET_S:
            dirty.append((name, len(violations), elapsed))
    _report(1, not dirty,
            f"all {len(problem_names())} problems audit clean, "
            f"worst runtime {worst_time:.3f}s"
            + (f"; failures: {dirty}" if dirty else ""))


def test_criterion_2_catalog_convergence():
    """Every built-in problem reaches second-order stationarity at 1e-8."""
    failures = []
    iteration_counts = {}
    for name in problem_names():
        result = solve(builtin_problem(name))
        iteration_counts[name] = result.iterations
        if result.status != CONVERGED_SOSP or result.iterations > 200:
            failures.append((name, result.status, result.iterations))
    _report(2, not failures,
            f"all problems converged, iterations {iteration_counts}"
            + (f"; failures: {failures}" if failures else ""))


def test_criterion_3_subproblem_oracle_equivalence():
    """Subproblem solutions match a brute-force ray oracle on 100 models."""
    rng = np.random.default_rng(101)
    worst_gap = 0.0
    for trial in range(100):
        dim = 1 if trial < 50 else 2
        g = rng.standard_normal(dim)
        H = rng.standard_normal((dim, dim))
        H = 0.5 * (H + H.T)
        sigma = float(rng.uniform(0.5, 4.0))
        sol = solve_cubic(ReducedHessian(H), g, sigma, 0.1)
        _, best_value = ray_polish_min(g, H, sigma)
        worst_gap = max(worst_gap, abs(-sol.delta_m - best_value))
    _report(3, worst_gap <= 1e-6,
            f"worst model-value gap over 100 random models: {worst_gap:.3e}")


def test_criterion_4_quadratic_local_rate():
    """Final accepted steps contract quadratically toward the known solution."""
    config = SolverConfig(eps_g=1e-12, eps_c=1e-12, eps_h=1e-12)
    details = []
    ok = True
    for name in ("circle_quadratic", "rosenbrock_sphere"):
        problem = builtin_problem(name)
        result = solve(problem, config=config)
        rate = convergence_rate(result, problem.known_solution[0])
        good = (result.status == CONVERGED_SOSP
                and rate.fitted_constant <= 1e3 and rate.monotone_linear)
        ok = ok and good
        details.append(f"{name}: C={rate.fitted_constant:.3g} "
                       f"monotone={rate.monotone_linear}")
    _report(4, ok, "; ".join(details))


def test_criterion_5_correction_advantage():
    """Corrections fire on the curved valley and save iterations."""
    problem = builtin_problem("maratos")
    with_corr = solve(problem, config=SolverConfig())
    without = solve(problem, config=SolverConfig(corrections_enabled=False))
    fired = with_corr.counts.corrections >= 1
    converged = with_corr.status == CONVERGED_SOSP
    slower = (without.status != CONVERGED_SOSP
              or without.iterations > with_corr.iterations)
    _report(5, fired and converged and slower,
            f"corrections={with_corr.counts.corrections}, "
            f"iterations {with_corr.iterations} vs {without.iterations} "
            f"({without.status}) without corrections")


def _run_sweep():
    problem = builtin_problem("rosenbrock_sphere")
    results = {}
    for eps in SWEEP_EPS:
        config = SolverConfig(eps_g=eps, eps_c=eps, eps_h=eps)
        results[eps] = solve(problem, config=config)
    return results


def test_criterion_6_complexity_scaling():
    """Accepted-iteration growth stays below the eps^{-3/2} envelope."""
    results = _run_sweep()
    counts = {eps: r.counts.accepted for eps, r in results.items()}
    assert all(r.status == CONVERGED_SOSP for r in results.values())
    logs_x = np.log([1.0 / eps for eps in SWEEP_EPS])
    logs_y = np.log([float(counts[eps]) for eps in SWEEP_EPS])
    slope = float(np.polyfit(logs_x, logs_y, 1)[0])
    _report(6, slope <= 1.5 + 0.25,
            f"accepted iterations {counts}, fitted slope {slope:.3g} "
            f"(budget 1.75)")


def test_criterion_7_parameter_boundedness():
    """Peak regularization and final penalty are tolerance-independent."""
    results = _run_sweep()
    max_sigmas = {eps: max(rec.sigma for rec in r.history)
                  for eps, r in results.items()}
    final_mus = {eps: r.history[-1].mu for eps, r in results.items()}
    sigma_ok = len(set(max_sigmas.values())) == 1
    mu_ok = len(set(final_mus.values())) == 1
    _report(7, sigma_ok and mu_ok,
            f"max sigma values {sorted(set(max_sigmas.values()))}, "
            f"final mu values {sorted(set(final_mus.values()))}")


def test_criterion_8_derivative_verification():
    """All callback derivatives agree with central differences everywhere."""
    rng = np.random.default_rng(211)
    worst = 0.0
    failures = []
    for name in problem_names():
        problem = builtin_problem(name)
        for _ in range(100):
            x = rng.standard_normal(problem.n)
            report = finite_difference_check(problem, x)
            worst = max(worst, report.gradient_error,
                        report.objective_hessian_error, report.jacobian_error,
                        report.constraint_hessian_error)
            if not report.passed:
                failures.append((name, x.tolist()))
    _report(8, not failures,
            f"worst relative derivative error {worst:.3e} over "
            f"{100 * len(problem_names())} points (tolerance 1e-6)")


def test_criterion_9_negative_controls():
    """Each tampered record trips exactly its intended audit check."""
    config = SolverConfig()

    def tripped(problem_name, k, **replacements):
        problem = builtin_problem(problem_name)
        records = list(solve(problem, config=config).history)
        records[k] = perturb(records[k], **replacements)
        return {v.code for v in audit_run(problem, records, config)}

    linear_rec = solve(builtin_problem("linear_eq_quadratic"),
                       config=config).history[1]
    circle_rec = solve(builtin_problem("circle_quadratic"),
                       config=config).history[0]
    outcomes = {
        "inflated tangential step": (
            tripped("linear_eq_quadratic", 1, u=1.1 * linear_rec.u),
            {"or2_model_gradient"}),
        "understated penalty": (
            tripped("circle_quadratic", 0, mu=0.5 * circle_rec.mu_candidate),
            {"merit_reduction_bound"}),
        "off-interval step fraction": (
            tripped("circle_quadratic", 0, beta=0.5),
            {"beta_interval"}),
    }
    bad = {label: (got, want) for label, (got, want) in outcomes.items()
           if got != want}
    _report(9, not bad,
            "each fixture trips exactly its intended check: "
            + ", ".join(f"{label} -> {sorted(got)}"
                        for label, (got, _) in outcomes.items())
            + (f"; mismatches: {bad}" if bad else ""))
