"""Shared test utilities: literal models, the Cauchy point, a brute-force
subproblem oracle, the global-optimality check, record surgery, the step
rule every record obeys, the factorization's null-space basis, random
full-rank systems, and the version 2 trace encoding of a vector."""

import base64
import dataclasses
import math
from unittest import mock

import numpy as np
from scipy import optimize

from cubeq import driver, tangential
from cubeq.driver import UNSUCCESSFUL, VERY_SUCCESSFUL, classify_iteration


def model_value(g, H, sigma, p):
    """Reduced cubic model value at p, relative to m(0) = 0."""
    p = np.asarray(p, dtype=float)
    r = np.linalg.norm(p)
    return float(g @ p + 0.5 * p @ H @ p + sigma / 3.0 * r**3)


def model_q(f, g, H, c, A, d, sigma, mu) -> float:
    """The merit model q(d) = f + g.d + d.H d/2 + sigma |d|^3/3 + mu |c + A d|_1,
    evaluated literally."""
    lin = c + A @ d
    nd = float(np.linalg.norm(d))
    return (float(f) + float(g @ d) + 0.5 * float(d @ H @ d)
            + sigma / 3.0 * nd**3 + mu * float(np.sum(np.abs(lin))))


def cauchy_point(H_red, g_red, sigma) -> tuple:
    """Exact minimizer of the model along -g_red: returns (alpha, decrease).

    phi(a) = m(-a g_red) has derivative -gn^2 + a gHg + sigma a^2 gn^3,
    a positive quadratic in a with negative value at 0, so the unique
    positive root is the global minimizer over a >= 0.
    """
    gn = float(np.linalg.norm(g_red))
    if gn == 0.0:
        return 0.0, 0.0
    gHg = float(g_red @ H_red @ g_red)
    a_coef = sigma * gn**3
    alpha = (-gHg + math.sqrt(gHg**2 + 4.0 * a_coef * gn**2)) / (2.0 * a_coef)
    decrease = alpha * gn**2 - 0.5 * alpha**2 * gHg - sigma / 3.0 * alpha**3 * gn**3
    return float(alpha), float(decrease)


def model_gradient(g, H, sigma, p):
    p = np.asarray(p, dtype=float)
    return g + H @ p + sigma * np.linalg.norm(p) * p


def ray_polish_min(g, H, sigma):
    """Global minimum of the cubic model along a fan of rays, plus polish.

    Deliberately independent of the solver's secular-equation machinery: on
    the ray r e, r >= 0, with e a unit vector (+-1 in 1-D, 20,000 evenly
    spaced directions in 2-D), the model is a r + b r^2/2 + sigma r^3/3 with
    a = g.e and b = e.H e, minimized in closed form at r = 0 or at the larger
    root of a + b r + sigma r^2.  A local quasi-Newton polish then starts from
    the best ray point.  Supports 1 and 2 dimensions.
    """
    g = np.asarray(g, dtype=float).reshape(-1)
    H = np.atleast_2d(np.asarray(H, dtype=float))
    if len(g) == 1:
        E = np.array([[1.0], [-1.0]])
    elif len(g) == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, 20000, endpoint=False)
        E = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        raise ValueError("ray oracle supports 1-D and 2-D models only")
    a = E @ g
    b = np.einsum("ij,jk,ik->i", E, H, E)
    root = np.sqrt(np.maximum(b * b - 4.0 * sigma * a, 0.0))
    # the larger root, in the form that does not cancel for either sign of b
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(b > 0.0, -2.0 * a / (b + root), (root - b) / (2.0 * sigma))
    r = np.where(b * b >= 4.0 * sigma * a, np.maximum(r, 0.0), 0.0)
    values = a * r + 0.5 * b * r**2 + sigma / 3.0 * r**3
    i = int(np.argmin(values))
    best = r[i] * E[i]
    res = optimize.minimize(
        lambda p: model_value(g, H, sigma, p), best,
        jac=lambda p: model_gradient(g, H, sigma, p),
        method="BFGS", options={"gtol": 1e-12, "maxiter": 200},
    )
    candidate = res.x if res.fun <= model_value(g, H, sigma, best) else best
    return candidate, model_value(g, H, sigma, candidate)


def solve_with_radius(hessian, g, sigma):
    """solve_cubic's solution and the radius r of the shifted system it solved."""
    shifts = []
    secular_shift = tangential._secular_shift

    def spy(*args):
        t = secular_shift(*args)
        if t is not None:  # None: the root lies below the tridiagonal form's reach
            shifts.append(t)
        return t

    with mock.patch.object(tangential, "_secular_shift", spy):
        sol = tangential.solve_cubic(hessian, g, sigma, 0.1)
    # r = (max(0, -lam_min) + t) / sigma with the model's own lam_min; the
    # hard case pads at t = 0, and a tridiagonal solve that is redone in the
    # eigenbasis leaves the eigenbasis shift last
    floor = max(0.0, -hessian.lam_min)
    return sol, (floor + (shifts[-1] if shifts else 0.0)) / sigma


def assert_global_minimizer(g, H, sigma, sol, r, label=""):
    """A step p with r = |p| globally minimizes the cubic model exactly when
    (H + sigma r I) p = -g and lambda_min(H) + sigma r >= 0; it also beats the
    Cauchy point."""
    p = sol.p
    norm_p = float(np.linalg.norm(p))
    spectrum = np.linalg.eigvalsh(H)
    lam_min, norm_h = float(spectrum[0]), float(np.max(np.abs(spectrum)))
    # the size of the terms of (H + sigma r I) p + g
    scale = float(np.linalg.norm(g)) + (norm_h + sigma * r) * norm_p

    residual = float(np.linalg.norm(H @ p + sigma * r * p + g))
    assert residual <= 1e-12 * scale, label
    assert abs(norm_p - r) <= 1e-12 * r, label
    assert lam_min + sigma * r >= -1e-12 * max(1.0, abs(lam_min)), label
    cauchy_dec = cauchy_point(H, g, sigma)[1]
    assert sol.delta_m >= cauchy_dec - 1e-12 * max(1.0, abs(sol.delta_m)), label


def perturb(record, **replacements):
    """Copy an iteration record with chosen fields replaced."""
    return dataclasses.replace(record, **replacements)


def decode_vector(text):
    """The float array a version 2 trace writes as ``text``: base64 of its
    little-endian float64 bytes."""
    return np.frombuffer(base64.b64decode(text, validate=True), "<f8").astype(float)


def encode_vector(values):
    """``values`` as a version 2 trace writes a float array."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def assert_step_rule(record, config):
    """The record's classification follows from its own numbers: where delta_q
    is within the merit noise, the merit-noise rule decides and no correction
    is tried; otherwise the eta bands on rho, or on rho_corr after a correction."""
    if record.delta_q <= driver._merit_noise(record.f, record.mu, record.c_l1):
        assert record.w is None, record.k
        assert record.classification in (VERY_SUCCESSFUL, UNSUCCESSFUL), record.k
    else:
        rho = record.rho_corr if record.w is not None else record.rho
        assert record.classification == classify_iteration(rho, config.eta1, config.eta2), record.k


def null_basis(fact):
    """The columns Z e_i of the factorization's implicit null-space basis, as a matrix."""
    k = fact.A.shape[1] - fact.A.shape[0]
    return np.column_stack([fact.from_null(e) for e in np.eye(k)])


def random_full_rank(rng, m, n):
    """A random (m, n) matrix; rejection keeps its smallest singular value above 0.1."""
    while True:
        A = rng.standard_normal((m, n))
        if np.linalg.svd(A, compute_uv=False)[-1] > 0.1:
            return A


def random_system(rng, m, n):
    """A random full-rank (m, n) Jacobian and a right-hand side."""
    return random_full_rank(rng, m, n), rng.standard_normal(m)
