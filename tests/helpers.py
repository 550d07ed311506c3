"""Shared test utilities: literal models, the Cauchy point, a brute-force
subproblem oracle and record surgery."""

import dataclasses
import math

import numpy as np
from scipy import optimize


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


def perturb(record, **replacements):
    """Copy an iteration record with chosen fields replaced."""
    return dataclasses.replace(record, **replacements)
