"""Auditing, derivative verification, and convergence-rate estimation.

``audit_iteration`` re-derives every hard per-iteration invariant of the
method from first principles — residual certificates, the beta interval, the
three tangential-step certificates, the step-size and decrease floors, the
merit-reduction bound, subspace memberships, and the legality of the sigma
update — and reports violations as data rather than raising; it only reads
its context.  ``audit_run``, the one loop over a run's records, serves a
finished solve and a replayed trace alike: it rebuilds one context per group
of consecutive records at the same x and multipliers (bit for bit), from the
record and the problem callbacks alone, and sets c(x + d) per record.  An
exception while one record is audited is an ``audit_error`` violation there.

All hard checks share one relative tolerance (1e-9); each violation carries
a stable code so tests can assert that a deliberately perturbed quantity
trips exactly the check it should.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import merit
from .driver import SUCCESSFUL, UNSUCCESSFUL, VERY_SUCCESSFUL, IterationRecord, SolverConfig
from .errors import InsufficientHistory
from .linalg import FactorizedJacobian, factorize_jacobian, reduce_matrix, rounding_bound
from .problems import EvalPoint, Problem, evaluate, evaluate_trial, lagrangian_hessian

Array = np.ndarray

TOLERANCE = 1e-9


@dataclass
class Violation:
    code: str
    message: str
    value: float
    bound: float
    k: int = -1


@dataclass
class AuditContext:
    """Recomputed quantities the per-iteration checks run against."""

    point: EvalPoint
    fact: FactorizedJacobian
    H: Array
    norm_H: float  # |H|_2
    lam_min_red: float  # smallest eigenvalue of Z^T H Z
    c_trial: Optional[Array] = None  # c(x + d); None when no correction was computed


def rebuild_context(problem: Problem, record: IterationRecord,
                    rank_tol: float = SolverConfig.rank_tol) -> AuditContext:
    """Recompute the quantities at the record's iterate; ``rank_tol`` is the run's own.

    They depend on x and the multipliers only, so one context serves every
    record at the same iterate; ``c_trial`` is left for the caller to set.
    """
    point = evaluate(problem, record.x)
    fact = factorize_jacobian(point.A, rank_tol)
    H = lagrangian_hessian(point, record.lam)  # exactly symmetric, for eigvalsh
    return AuditContext(point=point, fact=fact, H=H,
                        norm_H=float(np.max(np.abs(np.linalg.eigvalsh(H)))),
                        lam_min_red=float(np.linalg.eigvalsh(reduce_matrix(fact, H))[0]))


def audit_iteration(record: IterationRecord, context: AuditContext,
                    config: SolverConfig) -> list:
    """All hard invariant checks for one iteration; empty list means clean."""
    out: list = []

    def flag(code, value, bound, message):
        out.append(Violation(code=code, message=message, value=float(value),
                             bound=float(bound), k=record.k))

    point, fact, H = context.point, context.fact, context.H
    A, Z = fact.A, fact.Z
    g, c, c_l1 = point.g, point.c, point.c_l1
    sigma, beta, mu = record.sigma, record.beta, record.mu
    v_c, v, u, lam = record.v_c, record.v, record.u, record.lam
    d = v + u
    norm_vc = float(np.linalg.norm(v_c))
    norm_u = float(np.linalg.norm(u))
    norm_d = float(np.linalg.norm(d))
    norm_A, norm_H = fact.largest_singular_value, context.norm_H

    def slack(*vals):
        return TOLERANCE * max(1.0, *[abs(float(x)) for x in vals])

    # --- normal step -------------------------------------------------------
    residual = float(np.sum(np.abs(A @ v_c + c)))
    allowed = config.r_v * min(c_l1, norm_vc**3)
    if residual > allowed + slack(c_l1):
        flag("normal_residual", residual, allowed,
             "normal-step residual certificate violated")

    if norm_vc == 0.0:
        if abs(beta - 1.0) > TOLERANCE:
            flag("beta_interval", beta, 1.0, "beta must be 1 when v_c = 0")
    else:
        s = norm_vc * math.sqrt(sigma)
        lo, hi = min(1.0, config.theta / s), min(1.0, 1.0 / s)
        if not (lo - slack(lo) <= beta <= hi + slack(hi)):
            flag("beta_interval", beta, hi,
                 f"beta outside admissible interval [{lo:.6g}, {hi:.6g}]")

    null_part = float(np.linalg.norm(Z @ (Z.T @ v_c)))
    if null_part > slack(norm_vc):
        flag("normal_range", null_part, 0.0, "v_c has a null-space component")

    vc_bound = (config.r_v + 1.0) / fact.smallest_singular_value * c_l1
    if norm_vc > vc_bound + slack(vc_bound):
        flag("normal_bound", norm_vc, vc_bound,
             "|v_c| exceeds (r_v + 1)/s_min |c|_1")

    contracted = float(np.sum(np.abs(c + A @ v)))
    contract_bound = (1.0 - beta * (1.0 - config.r_v)) * c_l1
    if contracted > contract_bound + slack(c_l1):
        flag("linearized_contraction", contracted, contract_bound,
             "scaled normal step fails the linearized contraction")

    # --- multipliers -------------------------------------------------------
    norm_g = float(np.linalg.norm(g))
    mult_residual = float(np.linalg.norm(A @ (g + A.T @ lam)))
    mult_allowed = config.r_lambda * float(np.linalg.norm(v))
    # A applied to the rounding floor of g + A^T lam, which grows with |A| |lam|
    mult_floor = norm_A * rounding_bound(fact, float(np.linalg.norm(lam)), norm_g)
    if mult_residual > mult_allowed + slack(norm_A * norm_g) + mult_floor:
        flag("multiplier_residual", mult_residual, mult_allowed,
             "multiplier estimate fails its residual condition")

    # --- tangential step ---------------------------------------------------
    g_shift = g + H @ v  # ambient gradient of the reduced model at u = 0
    g_red = Z.T @ g_shift
    gn_red = float(np.linalg.norm(g_red))
    p = Z.T @ u
    delta_m = -(float(g_shift @ u) + 0.5 * float(u @ H @ u)
                + sigma / 3.0 * norm_u**3)

    gHg = float(g_red @ (Z.T @ (H @ (Z @ g_red))))
    cauchy_dec = 0.0
    if gn_red > 0.0:
        a_coef = sigma * gn_red**3
        alpha = (-gHg + math.sqrt(gHg**2 + 4.0 * a_coef * gn_red**2)) / (2.0 * a_coef)
        cauchy_dec = (alpha * gn_red**2 - 0.5 * alpha**2 * gHg
                      - sigma / 3.0 * alpha**3 * gn_red**3)
    if delta_m < cauchy_dec - slack(delta_m, cauchy_dec):
        flag("or1_cauchy_dominance", delta_m, cauchy_dec,
             "tangential step decreases the model less than the Cauchy point")

    grad_red = Z.T @ (g_shift + H @ u) + sigma * norm_u * p
    grad_norm = float(np.linalg.norm(grad_red))
    grad_budget = config.delta * sigma * norm_u**2
    if grad_norm > grad_budget + slack(grad_budget):
        flag("or2_model_gradient", grad_norm, grad_budget,
             "model gradient at the tangential step exceeds its budget")

    lam_min = context.lam_min_red
    curv_floor = -sigma * norm_u
    if min(lam_min, 0.0) < curv_floor - slack(curv_floor, lam_min):
        flag("or3_curvature", lam_min, curv_floor,
             "reduced curvature below -sigma |u|")

    tangency = float(np.linalg.norm(A @ u))
    if tangency > slack(norm_A * norm_u):
        flag("tangential_nullspace", tangency, 0.0,
             "tangential step leaves the constraint null space")

    size_bound = 3.0 * max(norm_H / sigma, math.sqrt(gn_red / sigma))
    if norm_u > size_bound + slack(size_bound):
        flag("tangential_size", norm_u, size_bound,
             "|u| exceeds 3 max(|H|/sigma, sqrt(|g_red|/sigma))")

    gradient_floor = 0.3 * gn_red * min(gn_red / (1.0 + norm_H),
                                        math.sqrt(gn_red / sigma))
    if delta_m < gradient_floor - slack(gradient_floor, delta_m):
        flag("decrease_vs_gradient", delta_m, gradient_floor,
             "model decrease below its gradient-based floor")

    step_floor = (1.0 / 6.0 - config.delta) * sigma * norm_u**3
    if delta_m < step_floor - slack(step_floor, delta_m):
        flag("decrease_vs_step", delta_m, step_floor,
             "model decrease below (1/6 - delta) sigma |u|^3")

    # --- merit -------------------------------------------------------------
    delta_q = merit.predicted_reduction(g, H, c, A, d, sigma, mu)
    merit_floor = delta_m + config.tau * mu * beta * c_l1
    if delta_q < merit_floor - slack(delta_q):
        flag("merit_reduction_bound", delta_q, merit_floor,
             "predicted merit reduction below tangential decrease plus "
             "feasibility margin")

    # --- correction --------------------------------------------------------
    if record.correction_computed:
        w, c_trial = record.w, context.c_trial
        norm_w = float(np.linalg.norm(w))
        w_null = float(np.linalg.norm(Z @ (Z.T @ w)))
        if w_null > slack(norm_w):
            flag("correction_range", w_null, 0.0,
                 "correction has a null-space component")
        corr_residual = float(np.linalg.norm(A @ w + c_trial))
        corr_allowed = config.r_w * norm_d**3
        if corr_residual > corr_allowed + slack(float(np.linalg.norm(c_trial))):
            flag("correction_residual", corr_residual, corr_allowed,
                 "correction residual certificate violated")
        if abs(beta - 1.0) > TOLERANCE:
            flag("correction_beta_one", beta, 1.0,
                 "correction computed while beta != 1")

    # --- sigma update ------------------------------------------------------
    sig_next, cls = record.sigma_next, record.classification
    sig_slack = TOLERANCE * sigma
    if cls == VERY_SUCCESSFUL:
        lo, hi = max(config.sigma_min, config.gamma3 * sigma), sigma
    elif cls == SUCCESSFUL:
        lo, hi = sigma, sigma
    else:
        lo, hi = config.gamma1 * sigma, config.gamma2 * sigma
    if not (lo - sig_slack <= sig_next <= hi + sig_slack):
        flag("sigma_update", sig_next, hi,
             f"sigma update illegal for a {cls} iteration "
             f"(allowed [{lo:.6g}, {hi:.6g}])")

    return out


def audit_run(problem: Problem, records, config: SolverConfig) -> list:
    """Audit the records of one run in order; returns the concatenated violations.

    Consecutive records at the same x and multipliers, bit for bit, share one
    rebuilt context; c(x + d) is set for each.  An exception while auditing a
    record is an ``audit_error`` violation there, and the next record at that
    iterate tries the rebuild again.
    """
    violations: list = []
    by_iterate = itertools.groupby(records, key=lambda r: (
        np.asarray(r.x, dtype=float).tobytes(), np.asarray(r.lam, dtype=float).tobytes()))
    for _, group in by_iterate:
        context = None  # frees the last iterate's Hessians before the next are evaluated
        for record in group:
            try:
                if context is None:
                    context = rebuild_context(problem, record, config.rank_tol)
                context.c_trial = None
                if record.correction_computed:
                    context.c_trial = evaluate_trial(problem,
                                                     record.x + (record.v + record.u)).c
                violations += audit_iteration(record, context, config)
            except Exception as exc:  # the audit observes; it never stops
                violations.append(Violation("audit_error", f"{type(exc).__name__}: {exc}",
                                            math.nan, math.nan, record.k))
    return violations


def merit_gap_warnings(problem: Problem, record: IterationRecord) -> list:
    """Soft check of the model-vs-actual merit gap on accepted plain steps.

    Compares the over-prediction of the merit decrease against a local
    curvature estimate built from finite differences along the step.  The
    estimate can undershoot the true segment-wide constants, so exceedances
    are returned as informational strings, never as hard violations.
    """
    if not record.accepted or record.correction_computed:
        return []
    d = record.v + record.u
    norm_d = float(np.linalg.norm(d))
    if norm_d == 0.0:
        return []
    point = evaluate(problem, record.x)
    trial = evaluate_trial(problem, record.x + d)  # f and c; g and A below, no Hessians
    g_trial = np.asarray(problem.gradient(trial.x), dtype=float).reshape(-1)
    A_trial = np.asarray(problem.jacobian(trial.x), dtype=float)
    H = lagrangian_hessian(point, record.lam)
    mu = record.mu
    delta_q = merit.predicted_reduction(point.g, H, point.c, point.A, d,
                                        record.sigma, mu)
    achieved = (merit.merit_value(point.f, point.c_l1, mu)
                - merit.merit_value(trial.f, trial.c_l1, mu))
    gap = delta_q - achieved
    lip_g = float(np.linalg.norm(g_trial - point.g)) / norm_d
    lip_a = float(np.linalg.norm(A_trial - point.A, 2)) / norm_d
    norm_H = float(np.max(np.abs(np.linalg.eigvalsh(H))))  # H is exactly symmetric
    bound = 0.5 * (lip_g + norm_H + mu * lip_a) * norm_d**2
    if gap > bound + TOLERANCE * max(1.0, abs(delta_q)):
        return [f"iteration {record.k}: merit model over-predicts by "
                f"{gap:.3e}, above the local curvature estimate {bound:.3e}"]
    return []


# ---------------------------------------------------------------------------
# derivative verification
# ---------------------------------------------------------------------------


@dataclass
class FDReport:
    gradient_error: float
    objective_hessian_error: float
    jacobian_error: float
    constraint_hessian_error: float
    passed: bool

    FIRST_ORDER_TOL = 1e-6
    SECOND_ORDER_TOL = 1e-6


def finite_difference_check(problem: Problem, x, h: float = 1e-6) -> FDReport:
    """Central-difference agreement of all four callback derivative pairs."""
    x = np.asarray(x, dtype=float).reshape(-1)
    n, m = problem.n, problem.m

    def central(fun, width):
        cols = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            cols.append((np.asarray(fun(x + e), dtype=float)
                         - np.asarray(fun(x - e), dtype=float)) / (2.0 * h))
        return np.stack(cols, axis=-1).reshape(width)

    def rel_err(approx, exact):
        scale = max(1.0, float(np.max(np.abs(exact))))
        return float(np.max(np.abs(approx - exact))) / scale

    g_fd = central(problem.objective, (n,))
    grad_err = rel_err(g_fd, problem.gradient(x))

    H_fd = central(problem.gradient, (n, n))
    H_fd = 0.5 * (H_fd + H_fd.T)
    fh_err = rel_err(H_fd, problem.objective_hessian(x))

    A_fd = central(problem.constraints, (m, n))
    jac_err = rel_err(A_fd, problem.jacobian(x))

    rows_fd = central(problem.jacobian, (m, n, n))
    exact = problem.constraint_hessians(x)
    ch_err = max(rel_err(0.5 * (rows_fd[i] + rows_fd[i].T), exact[i]) for i in range(m))

    return FDReport(
        gradient_error=grad_err, objective_hessian_error=fh_err,
        jacobian_error=jac_err, constraint_hessian_error=ch_err,
        passed=(max(grad_err, jac_err) <= FDReport.FIRST_ORDER_TOL
                and max(fh_err, ch_err) <= FDReport.SECOND_ORDER_TOL),
    )


# ---------------------------------------------------------------------------
# convergence rate
# ---------------------------------------------------------------------------


@dataclass
class RateReport:
    errors: list  # distances to x_star along the accepted-iterate path
    linear_ratios: list  # e_{k+1} / e_k, last three steps
    quadratic_ratios: list  # e_{k+1} / e_k^2, last three steps
    fitted_constant: float  # max of the quadratic ratios
    monotone_linear: bool  # linear ratios strictly decreasing


def accepted_path(result) -> list:
    """Sequence of distinct iterates visited by accepted steps, ends at x_final."""
    history = result.history
    if not history:
        return [np.asarray(result.x_final, dtype=float)]
    points = [history[0].x]
    for i, record in enumerate(history):
        if record.accepted:
            if i + 1 < len(history):
                points.append(history[i + 1].x)
            else:
                points.append(np.asarray(result.x_final, dtype=float))
    return points


def convergence_rate(result, x_star) -> RateReport:
    """Rate estimate over the last three accepted steps of a run.

    Raises :class:`InsufficientHistory` with fewer than 4 accepted iterates
    (3 steps), or when an iterate coincides with ``x_star`` exactly.
    """
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    points = accepted_path(result)
    if len(points) < 4:
        raise InsufficientHistory(
            f"need at least 4 accepted iterates, have {len(points)}"
        )
    errors = [float(np.linalg.norm(p - x_star)) for p in points]
    tail = errors[-4:]
    # a zero in the last slot is a legitimate exact hit; earlier zeros leave
    # the following ratio undefined
    if min(tail[:-1]) == 0.0:
        raise InsufficientHistory("an iterate hit x_star before the final step")
    linear = [tail[i + 1] / tail[i] for i in range(3)]
    quadratic = [tail[i + 1] / tail[i] ** 2 for i in range(3)]
    return RateReport(
        errors=errors, linear_ratios=linear, quadratic_ratios=quadratic,
        fitted_constant=max(quadratic),
        monotone_linear=all(linear[i + 1] < linear[i] for i in range(2)),
    )
