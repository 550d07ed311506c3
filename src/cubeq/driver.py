"""Outer loop: step assembly, acceptance, penalty and weight updates.

At each new iterate the solver completes the point with its derivatives,
factorizes the Jacobian, estimates multipliers, computes the full normal step
v_c, forms the Lagrangian Hessian H and one ``ReducedHessian`` of Z^T H Z,
whose lam_min the stationarity test reads; none of that depends on sigma, so
it is done once per distinct iterate and reused after an unsuccessful step.
Each iteration then scales v = beta v_c, solves the cubic model of
g_red = Z^T (g + H v) and sigma on that reduced Hessian, and sets u = Z p
(the factorization's null-space maps; Z itself is never formed).
The composite d = v + u is accepted when the achieved l1-merit decrease
covers at least eta1 of the predicted decrease.  One step test scores the
trial point x + d and, if a finite trial point fails near the constraint
surface, one corrected point x + d + w; each is evaluated for f and c only,
with ratio -inf where either is not finite, and where the predicted decrease
is within the merit's rounding noise it passes iff the merit did not
measurably rise.  sigma falls after very successful iterations and rises
after failures; mu only ratchets up.

Termination requires all three stationarity measures at once: the Lagrangian
gradient norm, the l1 infeasibility, and the smallest reduced Hessian
eigenvalue (up to -eps_h).  A run that exhausts its budget with the first
two satisfied reports the first-order status as a courtesy; an accepted
step that leaves x unchanged to one ulp of |x|_inf ends the run as a
numerical error.

A ``SolverConfig`` checks itself when it is made, so ``solve`` only runs the
loop, which appends one record per iteration and leaves through one
``SolveResult``, whose counts are tallied from the history.  An accepted
point becomes the iterate in one place, where it is completed; x, lambda and
the report move only once all of that work has succeeded, so they describe the
last completed iterate.  The solver never audits itself:
``diagnostics.audit_run`` checks a finished history beside it, so auditing
cannot change a run's path or status.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, get_type_hints

import numpy as np

from . import merit
from .errors import (ConfigError, NonFiniteValue, NonpositivePredictedReduction,
                     RankDeficient, ResidualConditionUnmet, SecularSolveFailed)
from .linalg import (compute_correction, compute_vc, estimate_multipliers,
                     factorize_jacobian, norm, reduce_matrix)
from .problems import Problem, TrialPoint, complete_point, evaluate_trial, lagrangian_hessian
from .tangential import ReducedHessian, solve_cubic

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


_NUMBERS = (int, float, np.integer, np.floating)
_FLOAT_MAX = float(np.finfo(float).max)


def _number(value) -> bool:
    """Whether ``value`` is a Python or numpy int or float (NaN and infinities
    included) that a float can hold; a bool never is.  Floats, by far the most
    common, are answered first."""
    return type(value) is float or (isinstance(value, _NUMBERS) and not isinstance(value, bool)
                                    and not (isinstance(value, int) and abs(value) > _FLOAT_MAX))


FIELD_RULES = {  # annotation -> (what a value of a field so annotated must be, the test)
    float: ("a number", _number),
    int: ("an integer",
          lambda value: isinstance(value, (int, np.integer)) and not isinstance(value, bool)),
    bool: ("a boolean", lambda value: isinstance(value, bool)),
    str: ("a string", lambda value: isinstance(value, str)),
    Optional[float]: ("a number or null", lambda value: value is None or _number(value)),
}


def field_rules(cls) -> dict:
    """The rules of the fields of the dataclass ``cls`` by name, for each
    annotation ``FIELD_RULES`` has."""
    return {name: FIELD_RULES[hint] for name, hint in get_type_hints(cls).items()
            if hint in FIELD_RULES}


@dataclass(frozen=True)
class SolverConfig:
    """The method's parameters.  A config is checked when it is made, field
    types first, then the paper's orderings, then finiteness; a ConfigError
    names the first rule broken.  It cannot be changed afterwards, so
    ``dataclasses.replace`` checks its copy again."""

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

    def __post_init__(self) -> None:
        for name, (what, test) in CONFIG_RULES.items():
            if not test(getattr(self, name)):
                raise ConfigError(f"need {what} {name}")
        infinite = [name for name, value in vars(self).items() if abs(value) == math.inf]
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
            (self.eps_g > 0.0 and self.eps_c > 0.0 and self.eps_h > 0.0,
             "tolerances must be positive"),
            (self.max_iter >= 1, "need max_iter >= 1"),
            (0.0 < self.rank_tol < 1.0, "need rank_tol in (0, 1)"),
            # after the ranges, which reject NaN with their own messages
            (not infinite, f"need finite {', '.join(infinite)}"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)


CONFIG_RULES = field_rules(SolverConfig)


@dataclass
class StationarityReport:
    grad_lagrangian_norm: float
    c_l1: float
    lambda_min_red: float
    fosp: bool
    sosp: bool


@dataclass
class IterationRecord:
    """One iteration at the iterate ``x``: its measures, the step v + u (and the
    correction w, if one was computed), the ratios and the sigma and mu updates."""

    k: int
    x: Array
    f: float
    c_l1: float
    grad_lagrangian_norm: float
    lambda_min_red: float
    sigma: float
    mu: float
    beta: float
    delta_q: float
    delta_m_u: float
    rho: float
    rho_corr: Optional[float]
    classification: str
    lam: Array
    v_c: Array
    v: Array  # beta * v_c
    u: Array
    w: Optional[Array]  # None when no correction was computed
    sigma_next: float
    mu_prev: float
    mu_candidate: float

    @property
    def accepted(self) -> bool:
        return self.classification != UNSUCCESSFUL

    @property
    def correction_computed(self) -> bool:
        return self.w is not None


@dataclass
class Counts:
    successful: int = 0
    very_successful: int = 0
    unsuccessful: int = 0
    corrections: int = 0

    @property
    def accepted(self) -> int:
        return self.successful + self.very_successful


def tally(records) -> Counts:
    """The classifications and corrections of ``records``."""
    classes = Counter(r.classification for r in records)
    return Counts(successful=classes[SUCCESSFUL], very_successful=classes[VERY_SUCCESSFUL],
                  unsuccessful=classes[UNSUCCESSFUL],
                  corrections=sum(r.correction_computed for r in records))


@dataclass
class SolveResult:
    status: str
    x_final: Array
    lambda_final: Optional[Array]
    history: list
    final_report: Optional[StationarityReport]
    message: str = ""

    @property
    def iterations(self) -> int:
        return len(self.history)

    @property
    def counts(self) -> Counts:
        return tally(self.history)


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


def select_beta(norm_vc: float, sigma: float) -> float:
    """Largest admissible scaling: min(1, 1/(|v_c| sqrt(sigma))).

    The admissible interval is [min(1, theta/(|v_c| sqrt(sigma))), that same
    expression with theta = 1]; taking the upper endpoint keeps |v| at the
    1/sqrt(sigma) cap whenever the full step would overshoot it.  theta
    (``SolverConfig.theta``) only bounds the interval the auditor checks.
    """
    if norm_vc == 0.0:
        return 1.0
    return min(1.0, 1.0 / (norm_vc * math.sqrt(sigma)))


def in_correction_region(norm_vc: float, sigma: float, zeta: float) -> bool:
    """Whether the iterate qualifies for a correction attempt."""
    return norm_vc <= zeta / math.sqrt(sigma)


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


def _at_iterate(problem: Problem, at: TrialPoint, config: SolverConfig) -> tuple:
    """The sigma-free work at the new iterate ``at``: the completed point, the
    factorization, lam, v_c and |v_c|, H, the ReducedHessian of Z^T H Z, which
    every cubic model at the iterate shares, and the stationarity report."""
    point = complete_point(problem, at)
    fact = factorize_jacobian(point.A, config.rank_tol)
    lam = estimate_multipliers(fact, point.g)
    v_c, norm_vc = compute_vc(fact, point.c, config.r_v)
    H = lagrangian_hessian(point, lam)
    grad_l_norm = norm(point.g + point.A.T @ lam)
    hessian = ReducedHessian(reduce_matrix(fact, H))
    report = check_stationarity(grad_l_norm, point.c_l1, hessian.lam_min, config)
    return point, fact, lam, v_c, norm_vc, H, hessian, report


def _try_point(problem: Problem, y: Array, phi_x: float, mu: float, delta_q: float,
               noise: float, config: SolverConfig) -> tuple:
    """The step test at a trial or corrected point ``y``: (its f and c, the merit
    ratio, the classification); (None, -inf, unsuccessful) where f or c is not
    finite.  Where delta_q is within the merit noise, both sides of the ratio
    are below measurement precision: ``y`` passes iff the merit did not
    measurably rise."""
    try:
        trial = evaluate_trial(problem, y)
    except NonFiniteValue:
        return None, -math.inf, UNSUCCESSFUL
    phi_y = merit.merit_value(trial.f, trial.c_l1, mu)
    rho = merit.ratio(phi_x, phi_y, delta_q)
    if delta_q <= noise:
        return trial, rho, UNSUCCESSFUL if phi_y > phi_x + noise else VERY_SUCCESSFUL
    return trial, rho, classify_iteration(rho, config.eta1, config.eta2)


def solve(problem: Problem, x0=None, config: Optional[SolverConfig] = None) -> SolveResult:
    """Run the solver from ``x0`` (default: the problem's default start): one
    record per iteration, then the status and message."""
    config = config or SolverConfig()
    x = np.array(problem.default_start if x0 is None else x0, dtype=float).reshape(-1)
    sigma, mu = config.sigma0, config.mu_init
    history: list = []
    lam = report = None
    message = ""
    try:
        at = evaluate_trial(problem, x)  # the point x moves to once completed; None while x stays
        for k in range(config.max_iter + 1):
            if at is not None:  # x, lam and report move once the whole completion succeeds
                (point, fact, lam, v_c, norm_vc, H, hessian,
                 report) = _at_iterate(problem, at, config)
                x, at = at.x, None
            if report.sosp:
                status = CONVERGED_SOSP
                break
            if k == config.max_iter:
                # Budget exhausted: the courtesy first-order status, or max_iterations.
                status = CONVERGED_FOSP if report.fosp else MAX_ITERATIONS
                message = f"stopped after {config.max_iter} iterations"
                break

            beta = select_beta(norm_vc, sigma)
            v = beta * v_c
            tang = solve_cubic(hessian, fact.to_null(point.g + H @ v), sigma, config.delta)
            u = fact.from_null(tang.p)
            d = v + u
            norm_d = norm(d)

            mu_prev = mu
            mu_cand = merit.mu_candidate(point.g, H, v, d, u, sigma,
                                         beta, point.c_l1,
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
            trial, rho, classification = _try_point(problem, x + d, phi_x, mu, delta_q,
                                                     noise, config)
            w = rho_corr = None  # set when a correction is computed
            if (classification == UNSUCCESSFUL and trial is not None and delta_q > noise
                    and in_correction_region(norm_vc, sigma, config.zeta)):
                w = compute_correction(fact, trial.c, config.r_w, norm_d)
                trial, rho_corr, classification = _try_point(problem, x + d + w, phi_x, mu,
                                                              delta_q, noise, config)

            sigma_next = update_sigma(sigma, classification, config)
            record = IterationRecord(
                k=k, x=point.x, f=point.f, c_l1=point.c_l1,
                grad_lagrangian_norm=report.grad_lagrangian_norm,
                lambda_min_red=report.lambda_min_red,
                sigma=sigma, mu=mu, beta=beta,
                delta_q=delta_q, delta_m_u=tang.delta_m,
                rho=rho, rho_corr=rho_corr,
                classification=classification,
                lam=lam, v_c=v_c, v=v, u=u, w=w,
                sigma_next=sigma_next, mu_prev=mu_prev, mu_candidate=mu_cand,
            )
            history.append(record)
            if record.accepted:
                if np.max(np.abs(trial.x - x)) <= np.spacing(np.max(np.abs(x))):
                    # d rounded to one ulp against x: accepting it again and again is no progress
                    status = NUMERICAL_ERROR
                    message = (f"accepted step at iteration {k} left x unchanged to one ulp "
                               f"(|d| = {norm_d:.3e})")
                    break
                # frees x's Hessians and Z^T H Z before the new point is completed
                at, point, hessian = trial, None, None
            sigma = sigma_next
    except RankDeficient as exc:
        status, message = LICQ_FAILURE, str(exc)
    except (NonFiniteValue, NonpositivePredictedReduction,
            SecularSolveFailed, ResidualConditionUnmet) as exc:
        status, message = NUMERICAL_ERROR, f"{type(exc).__name__}: {exc}"
    return SolveResult(status, x, lam, history, report, message)
