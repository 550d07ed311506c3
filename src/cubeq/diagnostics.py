"""Auditing, derivative verification, and convergence-rate estimation.

``audit_iteration`` re-derives every hard per-iteration invariant of the
method from first principles — residual certificates with the solver's own
rounding floors, the beta interval, the tangential-step properties or1-or3,
the step-size and decrease floors, the merit-reduction bound, subspace
memberships, and the legality of the sigma update — and reports violations
as data, each with a stable code and all with one relative tolerance (1e-9)
on top of those floors; it only reads its context.  The checks on |H|_2 and
lambda_min(Z^T H Z) first try max |H_ii| and a Cholesky, algorithms the
solver does not use; ``eigvalsh`` runs only where those do not pass.
``audit_run``, beside ``solve``, is the one loop over a run's records: it
rebuilds one context per group of consecutive records at the same x and
multipliers (bit for bit) from the callbacks, evaluates c(x + d) for each
record with a correction, and reports an exception while one record is
audited as an ``audit_error`` violation there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import merit
from .driver import SUCCESSFUL, VERY_SUCCESSFUL, IterationRecord, SolverConfig
from .errors import InsufficientHistory
from .linalg import (FactorizedJacobian, factorize_jacobian, norm, reduce_matrix,
                     rounding_bound, rounding_bound_l1, rounding_bound_l1_change)
from .problems import EvalPoint, Problem, evaluate, evaluate_trial, lagrangian_hessian

Array = np.ndarray

TOLERANCE = 1e-9
_EPS = float(np.finfo(float).eps)


@dataclass
class Violation:
    code: str
    message: str
    value: float
    bound: float
    k: int = -1


@dataclass
class AuditContext:
    """What the checks run against at one iterate; |H|_2 and lambda_min(Z^T H Z) on first need."""

    point: EvalPoint
    fact: FactorizedJacobian
    H: Array
    H_red: Array  # Z^T H Z

    @cached_property
    def norm_H(self) -> float:  # |H|_2
        return float(np.max(np.abs(np.linalg.eigvalsh(self.H))))

    @cached_property
    def lam_min_red(self) -> float:  # smallest eigenvalue of Z^T H Z
        return float(np.linalg.eigvalsh(self.H_red)[0])


def clears_floor(M: Array, floor: float) -> bool:
    """True when a Cholesky of M - t I (shifted in place, then restored) proves that
    lambda_min(M) >= floor; t - floor covers its backward error (Higham, ch. 10) and eigvalsh's."""
    k = len(M)
    diagonal = M.diagonal().copy()
    t = floor + k * (k + 1) * _EPS * (math.sqrt(np.vdot(M, M)) + k**0.5 * abs(floor))
    M.flat[::k + 1] -= t
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    finally:
        M.flat[::k + 1] = diagonal
    return math.isfinite(t)


def rebuild_context(problem: Problem, record: IterationRecord,
                    rank_tol: float) -> AuditContext:
    """Recompute the quantities at the record's iterate; ``rank_tol`` is the run's own.

    They depend on x and the multipliers only, so one context serves every
    record at the same iterate.
    """
    point = evaluate(problem, record.x)
    fact = factorize_jacobian(point.A, rank_tol)
    H = lagrangian_hessian(point, record.lam)
    return AuditContext(point=point, fact=fact, H=H, H_red=reduce_matrix(fact, H))


def audit_iteration(record: IterationRecord, context: AuditContext,
                    c_trial: Optional[Array], config: SolverConfig) -> list:
    """All hard invariant checks for one iteration; empty list means clean.

    ``c_trial`` is c(x + d), which the correction checks read; None when the
    record has no correction.
    """
    out: list = []

    def flag(code, value, bound, message):
        out.append(Violation(code, message, float(value), float(bound), record.k))

    point, fact, H, A = context.point, context.fact, context.H, context.fact.A
    g, c, c_l1 = point.g, point.c, point.c_l1
    sigma, beta, mu = record.sigma, record.beta, record.mu
    v_c, v, u, lam = record.v_c, record.v, record.u, record.lam
    d = v + u
    norm_vc, norm_u, norm_d = norm(v_c), norm(u), norm(d)
    norm_A = fact.largest_singular_value

    def slack(*vals):
        return TOLERANCE * max(1.0, *[abs(float(x)) for x in vals])

    # --- normal step -------------------------------------------------------
    residual = float(np.sum(np.abs(A @ v_c + c)))
    allowed = config.r_v * min(c_l1, norm_vc**3)
    # the rounding floor compute_vc certifies against
    normal_floor = rounding_bound_l1(fact, norm_vc, float(np.linalg.norm(c)))
    if residual > allowed + slack(c_l1) + normal_floor:
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

    null_part = float(np.linalg.norm(fact.to_null(v_c)))  # |Z Z^T v_c|
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
    g_red = fact.to_null(g_shift)
    gn_red = float(np.linalg.norm(g_red))
    p = fact.to_null(u)
    delta_m = -(float(g_shift @ u) + 0.5 * float(u @ H @ u)
                + sigma / 3.0 * norm_u**3)

    gHg = float(g_red @ context.H_red @ g_red)
    cauchy_dec = 0.0
    if gn_red > 0.0:
        a_coef = sigma * gn_red**3
        alpha = (-gHg + math.sqrt(gHg**2 + 4.0 * a_coef * gn_red**2)) / (2.0 * a_coef)
        cauchy_dec = (alpha * gn_red**2 - 0.5 * alpha**2 * gHg
                      - sigma / 3.0 * alpha**3 * gn_red**3)
    if delta_m < cauchy_dec - slack(delta_m, cauchy_dec):
        flag("or1_cauchy_dominance", delta_m, cauchy_dec,
             "tangential step decreases the model less than the Cauchy point")

    grad_red = fact.to_null(g_shift + H @ u) + sigma * norm_u * p
    grad_norm = float(np.linalg.norm(grad_red))
    grad_budget = config.delta * sigma * norm_u**2
    if grad_norm > grad_budget + slack(grad_budget):
        flag("or2_model_gradient", grad_norm, grad_budget,
             "model gradient at the tangential step exceeds its budget")

    curv_floor = -sigma * norm_u
    if not clears_floor(context.H_red, curv_floor - slack(curv_floor)):
        lam_min = context.lam_min_red
        if min(lam_min, 0.0) < curv_floor - slack(curv_floor, lam_min):
            flag("or3_curvature", lam_min, curv_floor, "reduced curvature below -sigma |u|")

    tangency = float(np.linalg.norm(A @ u))
    if tangency > slack(norm_A * norm_u):
        flag("tangential_nullspace", tangency, 0.0,
             "tangential step leaves the constraint null space")

    # |H|_2 only loosens both checks: what passes with max |H_ii| <= |H|_2 passes with it.
    norm_H = float(np.abs(H.diagonal()).max())
    for exact in (False, True):
        size_bound = 3.0 * max(norm_H / sigma, math.sqrt(gn_red / sigma))
        gradient_floor = 0.3 * gn_red * min(gn_red / (1.0 + norm_H), math.sqrt(gn_red / sigma))
        size_trips = norm_u > size_bound + slack(size_bound)
        gradient_trips = delta_m < gradient_floor - slack(gradient_floor, delta_m)
        if exact or not (size_trips or gradient_trips):
            break
        norm_H = context.norm_H
    if size_trips:
        flag("tangential_size", norm_u, size_bound,
             "|u| exceeds 3 max(|H|/sigma, sqrt(|g_red|/sigma))")

    if gradient_trips:
        flag("decrease_vs_gradient", delta_m, gradient_floor,
             "model decrease below its gradient-based floor")

    step_floor = (1.0 / 6.0 - config.delta) * sigma * norm_u**3
    if delta_m < step_floor - slack(step_floor, delta_m):
        flag("decrease_vs_step", delta_m, step_floor,
             "model decrease below (1/6 - delta) sigma |u|^3")

    # --- merit -------------------------------------------------------------
    delta_q = merit.predicted_reduction(g, H, c, A, d, sigma, mu)
    merit_floor = delta_m + config.tau * mu * beta * c_l1
    # and mu times the rounding floor of the |c|_1 - |c + A d|_1 inside delta_q
    if delta_q < merit_floor - slack(delta_q) - mu * rounding_bound_l1_change(fact, c, d):
        flag("merit_reduction_bound", delta_q, merit_floor,
             "predicted merit reduction below tangential decrease plus feasibility margin")

    # --- correction --------------------------------------------------------
    if record.correction_computed:
        w = record.w
        norm_w = float(np.linalg.norm(w))
        w_null = float(np.linalg.norm(fact.to_null(w)))
        if w_null > slack(norm_w):
            flag("correction_range", w_null, 0.0,
                 "correction has a null-space component")
        norm_c_trial = float(np.linalg.norm(c_trial))
        corr_residual = float(np.linalg.norm(A @ w + c_trial))
        corr_allowed = config.r_w * norm_d**3
        # the rounding floor compute_correction certifies against
        corr_floor = rounding_bound(fact, norm_w, norm_c_trial)
        if corr_residual > corr_allowed + slack(norm_c_trial) + corr_floor:
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
    rebuilt context; c(x + d) is evaluated for each record with a correction.
    An exception while auditing a record is an ``audit_error`` violation
    there, and the next record at that iterate tries the rebuild again.
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
                c_trial = None
                if record.correction_computed:
                    c_trial = evaluate_trial(problem, record.x + (record.v + record.u)).c
                violations += audit_iteration(record, context, c_trial, config)
            except Exception as exc:  # the audit observes; it never stops
                violations.append(Violation("audit_error", f"{type(exc).__name__}: {exc}",
                                            math.nan, math.nan, record.k))
    return violations


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
