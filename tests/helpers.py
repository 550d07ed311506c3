"""Shared test utilities: brute-force subproblem oracle and record surgery."""

import dataclasses

import numpy as np
from scipy import optimize


def model_value(g, H, sigma, p):
    """Reduced cubic model value at p, relative to m(0) = 0."""
    p = np.asarray(p, dtype=float)
    r = np.linalg.norm(p)
    return float(g @ p + 0.5 * p @ H @ p + sigma / 3.0 * r**3)


def model_gradient(g, H, sigma, p):
    p = np.asarray(p, dtype=float)
    return g + H @ p + sigma * np.linalg.norm(p) * p


def search_radius(g, H, sigma):
    """Any minimizer p* satisfies sigma r^2 - |H| r - |g| <= 0 at r = |p*|."""
    norm_h = float(np.linalg.norm(H, 2))
    norm_g = float(np.linalg.norm(g))
    return (norm_h + np.sqrt(norm_h**2 + 4.0 * sigma * norm_g)) / (2.0 * sigma)


def grid_polish_min(g, H, sigma, step=1e-3):
    """Global minimum of the cubic model by dense grid search plus polish.

    Deliberately independent of the solver's secular-equation machinery:
    evaluates the model on a regular grid covering every possible minimizer,
    then runs a local quasi-Newton polish from the best grid point.
    Supports 1 and 2 dimensions.
    """
    g = np.asarray(g, dtype=float).reshape(-1)
    H = np.atleast_2d(np.asarray(H, dtype=float))
    dim = len(g)
    radius = search_radius(g, H, sigma) + 2 * step
    xs = np.arange(-radius, radius + step, step)

    if dim == 1:
        vals = g[0] * xs + 0.5 * H[0, 0] * xs**2 + sigma / 3.0 * np.abs(xs) ** 3
        best = np.array([xs[np.argmin(vals)]])
    elif dim == 2:
        best = None
        best_val = np.inf
        # The model is a row term in x, a column term in y, the cross term
        # H01 x y and the cubic in r^2 = x^2 + y^2; broadcast them over
        # chunks of rows to cap the live grid size.
        sq = xs * xs
        row = g[0] * xs + 0.5 * H[0, 0] * sq
        col = g[1] * xs + 0.5 * H[1, 1] * sq
        chunk = max(1, int(4e6 // len(xs)))
        for lo in range(0, len(xs), chunk):
            rows = slice(lo, lo + chunk)
            r2 = sq[rows, None] + sq
            V = np.sqrt(r2)
            V *= r2
            V *= sigma / 3.0
            V += row[rows, None]
            V += col
            V += (H[0, 1] * xs[rows])[:, None] * xs
            i, j = np.unravel_index(np.argmin(V), V.shape)
            if V[i, j] < best_val:
                best_val = V[i, j]
                best = np.array([xs[lo + i], xs[j]])
    else:
        raise ValueError("grid oracle supports 1-D and 2-D models only")

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
