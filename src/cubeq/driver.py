"""Outer loop: step assembly, acceptance, penalty and weight updates.

At each new iterate the solver completes the point with its derivatives,
factorizes the Jacobian, estimates multipliers, forms the Lagrangian Hessian
and the eigendecomposition of its reduction Z^T H Z, and checks
stationarity; none of that depends on sigma, so it is done once per
distinct iterate and reused after an unsuccessful step.  Each iteration then
builds the normal step v = beta v_c toward the linearized constraints and
solves the reduced cubic model, with the stored eigendecomposition, for the
tangential step u.  The composite d = v + u is accepted when the achieved
l1-merit decrease covers at least eta1 of the model's predicted decrease;
otherwise, close to the constraint surface, one correction step is
attempted before the iteration is declared unsuccessful.  Trial and
corrected points are evaluated for f and c only, and one where either is
not finite is rejected with rho = -inf.  The cubic weight sigma falls after
very successful iterations and rises after failures, and the penalty mu
only ever ratchets up.

Termination requires all three stationarity measures at once: the Lagrangian
gradient norm, the l1 infeasibility, and the smallest reduced Hessian
eigenvalue (up to -eps_h).  A run that exhausts its budget with the first
two satisfied reports the first-order status as a courtesy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import merit
from .correction import compute_correction, in_correction_region
from .errors import (ConfigError, NonFiniteValue, NonpositivePredictedReduction,
                     RankDeficient, ResidualConditionUnmet, SecularSolveFailed)
from .linalg import FactorizedJacobian, estimate_multipliers, factorize_jacobian
from .normal_step import assemble_normal
from .problems import (EvalPoint, Problem, TrialPoint, complete_point,
                       evaluate_trial, lagrangian_hessian)
from .tangential import ReducedCubicModel, build_reduced_model, solve_cubic

Array = np.ndarray

# classifications
VERY_SUCCESSFUL = "very_successful"
SUCCESSFUL = "successful"
UNSUCCESSFUL = "unsuccessful"

# statuses
CONVERGED_SOSP = "converged_sosp"
CONVERGED_FOSP = "converged_fosp"
MAX_ITERATIONS = "max_iterations"
LICQ_FAILURE = "licq_failure"
NUMERICAL_ERROR = "numerical_error"

# Merit differences below this many ulps of the merit scale are treated as
# unmeasurable: the ratio test degenerates to "did the merit not go up".
_NOISE_ULPS = 256.0


@dataclass
class SolverConfig:
    eta1: float = 0.1
    eta2: float = 0.9
    nu: float = 2.0
    tau: float = 0.5
    theta: float = 0.5
    zeta: float = 0.25
    gamma1: float = 2.0
    gamma2: float = 5.0
    gamma3: float = 0.5
    delta: float = 0.1
    r_v: float = 0.0
    r_lambda: float = 0.0
    r_w: float = 0.0
    sigma0: float = 1.0
    sigma_min: float = 1e-8
    mu_init: float = 1.0
    eps_g: float = 1e-8
    eps_c: float = 1e-8
    eps_h: float = 1e-8
    max_iter: int = 1000
    rank_tol: float = 1e-10
    corrections_enabled: bool = True
    audit: bool = False

    def validate(self) -> "SolverConfig":
        checks = [
            (0.0 < self.eta1 < self.eta2 < 1.0, "need 0 < eta1 < eta2 < 1"),
            (self.nu > 1.0, "need nu > 1"),
            (0.0 < self.tau < 1.0, "need tau in (0, 1)"),
            (0.0 < self.theta <= 1.0, "need theta in (0, 1]"),
            (0.0 < self.zeta < self.theta, "need zeta in (0, theta)"),
            (1.0 < self.gamma1 < self.gamma2, "need gamma2 > gamma1 > 1"),
            (0.0 < self.gamma3 <= 1.0, "need gamma3 in (0, 1]"),
            (0.0 < self.delta < 1.0 / 6.0, "need delta in (0, 1/6)"),
            (0.0 <= self.r_v < 1.0 - self.tau, "need r_v in [0, 1 - tau)"),
            (self.r_lambda >= 0.0, "need r_lambda >= 0"),
            (self.r_w >= 0.0, "need r_w >= 0"),
            (self.sigma0 >= self.sigma_min > 0.0, "need sigma0 >= sigma_min > 0"),
            (self.mu_init > 0.0, "need mu_init > 0"),
            (min(self.eps_g, self.eps_c, self.eps_h) > 0.0, "tolerances must be positive"),
            (self.max_iter >= 1, "need max_iter >= 1"),
            (0.0 < self.rank_tol < 1.0, "need rank_tol in (0, 1)"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        return self


@dataclass
class StationarityReport:
    grad_lagrangian_norm: float
    c_l1: float
    lambda_min_red: float
    fosp: bool
    sosp: bool


@dataclass
class IterationRecord:
    k: int
    x: Array
    f: float
    c_l1: float
    grad_lagrangian_norm: float
    lambda_min_red: float
    sigma: float
    mu: float
    beta: float
    norm_v: float
    norm_u: float
    norm_d: float
    norm_w: float
    delta_q: float
    delta_m_u: float
    rho: float
    rho_corr: Optional[float]
    classification: str
    correction_computed: bool
    accepted: bool
    # extra state carried for trace replay and auditing
    lam: Array = None
    v_c: Array = None
    v: Array = None
    u: Array = None
    w: Optional[Array] = None
    sigma_next: float = 0.0
    mu_prev: float = 0.0
    mu_candidate: float = 0.0


@dataclass
class Counts:
    successful: int = 0
    very_successful: int = 0
    unsuccessful: int = 0
    corrections: int = 0

    @property
    def accepted(self) -> int:
        return self.successful + self.very_successful


@dataclass
class SolveResult:
    status: str
    x_final: Array
    lambda_final: Optional[Array]
    history: list
    counts: Counts
    final_report: Optional[StationarityReport]
    message: str = ""
    violations: list = field(default_factory=list)  # populated when config.audit

    @property
    def iterations(self) -> int:
        return len(self.history)


def classify_iteration(rho: float, eta1: float, eta2: float) -> str:
    if rho > eta2:
        return VERY_SUCCESSFUL
    if rho >= eta1:
        return SUCCESSFUL
    return UNSUCCESSFUL


def update_sigma(sigma: float, classification: str, config: SolverConfig) -> float:
    if classification == VERY_SUCCESSFUL:
        return max(config.sigma_min, config.gamma3 * sigma)
    if classification == SUCCESSFUL:
        return sigma
    return config.gamma1 * sigma


def check_stationarity(grad_lagrangian_norm: float, c_l1: float,
                       lambda_min_red: float, config: SolverConfig) -> StationarityReport:
    fosp = grad_lagrangian_norm <= config.eps_g and c_l1 <= config.eps_c
    return StationarityReport(
        grad_lagrangian_norm=grad_lagrangian_norm, c_l1=c_l1,
        lambda_min_red=lambda_min_red, fosp=fosp,
        sosp=fosp and lambda_min_red >= -config.eps_h,
    )


def _merit_noise(f: float, mu: float, c_l1: float) -> float:
    scale = max(1.0, abs(f)) + mu * max(1.0, c_l1)
    return _NOISE_ULPS * np.finfo(float).eps * scale


@dataclass
class _Iterate:
    """The sigma-free work at one iterate, kept while x stays put."""

    point: EvalPoint
    fact: FactorizedJacobian
    lam: Array
    H: Array
    model: ReducedCubicModel  # carries Z^T H Z and its eigendecomposition
    report: StationarityReport


def _at_iterate(problem: Problem, at: TrialPoint, sigma: float,
                config: SolverConfig) -> _Iterate:
    """Derivatives, factorization, multipliers and the reduced spectrum at ``at``."""
    point = complete_point(problem, at)
    fact = factorize_jacobian(point.A, config.rank_tol)
    lam = estimate_multipliers(fact, point.g)
    H = lagrangian_hessian(point, lam)
    grad_l_norm = float(np.linalg.norm(point.g + point.A.T @ lam))
    model = build_reduced_model(fact, point.g, H, np.zeros(problem.n), sigma)
    report = check_stationarity(grad_l_norm, point.c_l1, float(model.eigvals[0]), config)
    return _Iterate(point, fact, lam, H, model, report)


def _merit_terms(problem: Problem, x) -> Optional[TrialPoint]:
    """f and c at a trial or corrected point; None where they are not finite."""
    try:
        return evaluate_trial(problem, x)
    except NonFiniteValue:
        return None


def solve(problem: Problem, x0=None, config: Optional[SolverConfig] = None) -> SolveResult:
    """Run the solver from ``x0`` (default: the problem's default start)."""
    config = (config or SolverConfig()).validate()
    x = np.array(problem.default_start if x0 is None else x0, dtype=float).reshape(-1)

    sigma = config.sigma0
    mu = config.mu_init
    history: list = []
    violations: list = []
    counts = Counts()
    lam = None
    report = None

    def record_iteration(record: IterationRecord) -> None:
        history.append(record)
        if config.audit:
            # deferred import; diagnostics depends on this module
            from .diagnostics import Violation, audit_iteration, rebuild_context
            try:
                context = rebuild_context(problem, record, config.rank_tol)
                violations.extend(audit_iteration(record, context, config))
            except Exception as exc:  # the audit observes; it never ends the run
                violations.append(Violation("audit_error", f"{type(exc).__name__}: {exc}",
                                            math.nan, math.nan, record.k))

    try:
        at = evaluate_trial(problem, x)
        it = None  # work at x; None until computed, and again after x moves
        for k in range(config.max_iter):
            if it is None:
                it = _at_iterate(problem, at, sigma, config)
                lam, report = it.lam, it.report
                if report.sosp:
                    return SolveResult(CONVERGED_SOSP, x, lam, history, counts,
                                       report, violations=violations)
            point, fact, H = it.point, it.fact, it.H

            normal = assemble_normal(fact, point.c, sigma, r_v=config.r_v)
            model = build_reduced_model(fact, point.g, H, normal.v, sigma, reuse=it.model)
            tang = solve_cubic(model, config.delta)
            d = normal.v + tang.u
            norm_d = float(np.linalg.norm(d))

            mu_prev = mu
            mu_cand = merit.mu_candidate(point.g, H, normal.v, d, tang.u, sigma,
                                         normal.beta, point.c_l1,
                                         config.r_v, config.tau)
            mu = merit.update_mu(mu_prev, mu_cand, config.nu)

            delta_q = merit.predicted_reduction(point.g, H, point.c, point.A,
                                                d, sigma, mu)
            noise = _merit_noise(point.f, mu, point.c_l1)
            if delta_q <= -noise:
                raise NonpositivePredictedReduction(
                    f"predicted reduction {delta_q:.3e} at non-stationary iterate {k}"
                )

            phi_x = merit.merit_value(point.f, point.c_l1, mu)
            trial = _merit_terms(problem, x + d)
            if trial is None:
                rho = -math.inf
            else:
                phi_trial = merit.merit_value(trial.f, trial.c_l1, mu)
                rho = merit.ratio(phi_x, phi_trial, delta_q)

            rho_corr = None
            w = None
            norm_w = 0.0
            correction_computed = False
            taken = trial  # the point x moves to if the step is accepted

            if trial is None:
                # f or c is not finite at x + d: reject the step
                classification = UNSUCCESSFUL
            elif delta_q <= noise:
                # Both sides of the ratio are below measurement precision;
                # accept iff the merit did not measurably increase.
                if phi_trial <= phi_x + noise:
                    classification = VERY_SUCCESSFUL
                else:
                    classification = UNSUCCESSFUL
            elif rho >= config.eta1:
                classification = classify_iteration(rho, config.eta1, config.eta2)
            elif (config.corrections_enabled
                  and in_correction_region(float(np.linalg.norm(normal.v_c)),
                                           sigma, config.zeta)):
                w = compute_correction(fact, trial.c, config.r_w, norm_d)
                norm_w = float(np.linalg.norm(w))
                taken = _merit_terms(problem, x + d + w)
                if taken is None:
                    rho_corr = -math.inf
                else:
                    phi_corr = merit.merit_value(taken.f, taken.c_l1, mu)
                    rho_corr = merit.ratio(phi_x, phi_corr, delta_q)
                correction_computed = True
                counts.corrections += 1
                classification = classify_iteration(rho_corr, config.eta1, config.eta2)
            else:
                classification = UNSUCCESSFUL

            accepted = classification != UNSUCCESSFUL
            if classification == VERY_SUCCESSFUL:
                counts.very_successful += 1
            elif classification == SUCCESSFUL:
                counts.successful += 1
            else:
                counts.unsuccessful += 1

            sigma_next = update_sigma(sigma, classification, config)
            record_iteration(IterationRecord(
                k=k, x=point.x, f=point.f, c_l1=point.c_l1,
                grad_lagrangian_norm=report.grad_lagrangian_norm,
                lambda_min_red=report.lambda_min_red,
                sigma=sigma, mu=mu, beta=normal.beta,
                norm_v=float(np.linalg.norm(normal.v)),
                norm_u=float(np.linalg.norm(tang.u)),
                norm_d=norm_d, norm_w=norm_w,
                delta_q=delta_q, delta_m_u=tang.delta_m,
                rho=rho, rho_corr=rho_corr,
                classification=classification,
                correction_computed=correction_computed,
                accepted=accepted,
                lam=lam, v_c=normal.v_c, v=normal.v, u=tang.u, w=w,
                sigma_next=sigma_next, mu_prev=mu_prev, mu_candidate=mu_cand,
            ))
            if accepted:
                at, x, it, point = taken, taken.x, None, None  # frees x's Hessians
            sigma = sigma_next

        # Budget exhausted: stationarity at the final iterate decides
        # between the courtesy first-order status and max_iterations.
        if it is None:
            it = _at_iterate(problem, at, sigma, config)
            lam, report = it.lam, it.report
        if report.sosp:
            return SolveResult(CONVERGED_SOSP, x, lam, history, counts,
                               report, violations=violations)
        status = CONVERGED_FOSP if report.fosp else MAX_ITERATIONS
        return SolveResult(status, x, lam, history, counts, report,
                           message=f"stopped after {config.max_iter} iterations",
                           violations=violations)
    except RankDeficient as exc:
        return SolveResult(LICQ_FAILURE, x, lam, history, counts, report,
                           message=str(exc), violations=violations)
    except (NonFiniteValue, NonpositivePredictedReduction,
            SecularSolveFailed, ResidualConditionUnmet) as exc:
        return SolveResult(NUMERICAL_ERROR, x, lam, history, counts, report,
                           message=f"{type(exc).__name__}: {exc}",
                           violations=violations)
