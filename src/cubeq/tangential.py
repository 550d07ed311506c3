"""Tangential step: globally minimize the reduced cubic model.

The model lives in the Z-coordinates of the constraint null space,

    m(p) = g_red . p + p . H_red p / 2 + sigma |p|^3 / 3,

and because Z has orthonormal columns, |Z p| = |p|, so the cubic weight in
the full space and in coordinates agree.  A global minimizer p* satisfies

    (H_red + sigma r I) p* = -g_red,   r = |p*|,   H_red + sigma r I psd,

which reduces the problem to a scalar secular equation in the radius r: with
the eigendecomposition H_red = Q diag(lam) Q^T and ghat = Q^T g_red,

    |p(r)|^2 = sum_i ghat_i^2 / (lam_i + sigma r)^2  must equal  r^2

on r >= r_floor = max(0, -lam_min)/sigma.  psi(r) = 1/|p(r)| - 1/r is concave
and increasing there, so Newton's method on psi climbs to the root from the
left and converges quadratically (Moré & Sorensen 1983; Cartis, Gould & Toint
2011, ARC Part I, 6.1): about 4 evaluations per solve, where bisection took
about 50.  The only subtlety is the hard case, when g_red is (numerically)
orthogonal to the leftmost eigenspace and the secular curve never reaches the
diagonal: then r is pinned at r_floor and the solution gains an eigenvector
component sized to make |p| = r.

The eigendecomposition is part of the model: it is computed once when the
model is built and carried over when the model is rebuilt at the same
iterate for another sigma, so the solver's stationarity test and every
cubic solve at one iterate share a single eigh.

The returned solution certifies three properties the rest of the solver
relies on: it decreases the model at least as much as the exact Cauchy point
(steepest descent on the model), its model gradient is far below the
delta * sigma * |u|^2 budget, and lam_min(H_red) >= -sigma |u|.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SecularSolveFailed
from .linalg import FactorizedJacobian, reduce_matrix

Array = np.ndarray

# Relative threshold deciding when g_red has no usable component along the
# leftmost eigenspace and the hard-case branch applies.
_HARD_CASE_RTOL = 1e-12

_MAX_SECULAR_STEPS = 300
_SECULAR_RTOL = 16.0 * np.finfo(float).eps  # relative Newton step that ends the iteration


@dataclass(frozen=True)
class ReducedCubicModel:
    g_red: Array  # Z^T (g + H v)
    H_red: Array  # Z^T H Z
    sigma: float
    Z: Array
    # eigh(H_red), ascending; computed on construction when not given
    eigvals: Array = None
    eigvecs: Array = None

    def __post_init__(self):
        if self.eigvals is None:
            eigvals, eigvecs = np.linalg.eigh(self.H_red)
            object.__setattr__(self, "eigvals", eigvals)
            object.__setattr__(self, "eigvecs", eigvecs)


@dataclass(frozen=True)
class OracleSolution:
    p: Array  # reduced coordinates
    u: Array  # Z p, full space
    delta_m: float  # m(0) - m(p)
    cauchy_delta_m: float
    grad_model_norm: float  # |g_red + H_red p + sigma |p| p|
    lambda_min_red: float


def build_reduced_model(fact: FactorizedJacobian, g, H, v, sigma: float,
                        reuse: Optional[ReducedCubicModel] = None) -> ReducedCubicModel:
    """Reduced model of the tangential step that follows the normal step ``v``.

    ``reuse`` is a model built earlier from the same ``fact`` and ``H``, for
    another normal step or sigma: its Z^T H Z and eigendecomposition are
    kept, and only g_red and sigma are set anew.
    """
    g = np.asarray(g, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    g_red = fact.Z.T @ (g + np.asarray(H, dtype=float) @ v)
    if reuse is not None:
        return dataclasses.replace(reuse, g_red=g_red, sigma=float(sigma))
    return ReducedCubicModel(g_red=g_red, H_red=reduce_matrix(fact, H),
                             sigma=float(sigma), Z=fact.Z)


def model_decrease(model: ReducedCubicModel, p) -> float:
    """m(0) - m(p); positive when p improves the model."""
    p = np.asarray(p, dtype=float).reshape(-1)
    r = float(np.linalg.norm(p))
    return -float(model.g_red @ p + 0.5 * p @ model.H_red @ p + model.sigma / 3.0 * r**3)


def cauchy_point(model: ReducedCubicModel) -> tuple:
    """Exact minimizer of the model along -g_red: returns (alpha, decrease).

    phi(a) = m(-a g_red) has derivative -gn^2 + a gHg + sigma a^2 gn^3,
    a positive quadratic in a with negative value at 0, so the unique
    positive root is the global minimizer over a >= 0.
    """
    gn = float(np.linalg.norm(model.g_red))
    if gn == 0.0:
        return 0.0, 0.0
    gHg = float(model.g_red @ model.H_red @ model.g_red)
    a_coef = model.sigma * gn**3
    alpha = (-gHg + math.sqrt(gHg**2 + 4.0 * a_coef * gn**2)) / (2.0 * a_coef)
    decrease = alpha * gn**2 - 0.5 * alpha**2 * gHg - model.sigma / 3.0 * alpha**3 * gn**3
    return float(alpha), float(decrease)


def _secular(t, base, ghat, sigma, floor):
    """Secular gap |p| - r and the Newton step on psi, at r = (floor + t) / sigma.

    lam_i + sigma r = base_i + t >= t > 0.  With S = |p|^2 and S3 = sum
    ghat_i^2 / (base_i + t)^3, psi' = sigma S3 / |p|^3 + 1/r^2, so the Newton
    step in t, -sigma psi / psi', is sigma gap S r / (|p| S + sigma r^2 S3).
    """
    den = base + t
    q = ghat / den
    s = float(q @ q)
    s3 = float(q @ (q / den))
    norm = math.sqrt(s)
    r = (floor + t) / sigma
    gap = norm - r
    return gap, sigma * gap * s * r / (norm * s + sigma * r * r * s3)


def _shift_upper_bound(lam_min, gnorm, sigma):
    # Any radius with |p(r)| = r has sigma r^2 + lam_min r <= |g|; at the root of
    # that quadratic sigma (r - r_floor) = (sqrt(lam_min^2 + 4 sigma |g|) - |lam_min|)/2,
    # here in the form that does not cancel.
    return 2.0 * sigma * gnorm / (abs(lam_min) + math.sqrt(lam_min**2 + 4.0 * sigma * gnorm))


def _secular_shift(base, ghat, sigma, floor, hi):
    """Shift t = sigma (r - r_floor) in (0, hi] at the secular root.

    Safeguarded Newton: the bracket [lo, hi] starts at [0, hi] and follows the
    sign of the gap; a Newton step that leaves it, or is not at most half the
    step before, becomes a bisection step.  In t, lam_i + sigma r keeps full
    precision when r lies within rounding of r_floor, and stays positive.
    """
    for _ in range(60):
        gap, step = _secular(hi, base, ghat, sigma, floor)
        if gap <= 0.0:
            break
        hi = 2.0 * max(hi, 1e-300)
    else:
        raise SecularSolveFailed("could not bracket the secular root from above")
    lo, t, last = 0.0, hi, hi
    for _ in range(_MAX_SECULAR_STEPS):
        if abs(step) <= _SECULAR_RTOL * t:
            return t + max(step, 0.0)
        new = t + step
        if not (lo < new < hi and abs(step) <= 0.5 * last):
            new = 0.5 * (lo + hi)
        last, t = abs(new - t), new
        gap, step = _secular(t, base, ghat, sigma, floor)
        if gap > 0.0:
            lo = t
        else:
            hi = t
        if hi - lo <= 4.0 * np.finfo(float).eps * hi:
            return hi
    raise SecularSolveFailed(f"secular iteration did not converge in "
                             f"{_MAX_SECULAR_STEPS} steps (lo={lo}, hi={hi})")


def solve_cubic(model: ReducedCubicModel, delta: float = 0.1) -> OracleSolution:
    """Global minimizer of the reduced cubic model.

    ``delta`` is the model-gradient budget of the acceptance test
    |grad m(u)| <= delta sigma |u|^2; the exact solve lands far inside it,
    and the value is only used for a defensive post-check.
    """
    sigma = model.sigma
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    lam, Q = model.eigvals, model.eigvecs
    lam_min = float(lam[0])
    ghat = Q.T @ model.g_red
    gnorm = float(np.linalg.norm(model.g_red))
    floor = max(0.0, -lam_min)
    r_floor = floor / sigma
    base = lam + floor  # lam_i + sigma r_floor; the shift t is added to it

    leftmost = lam <= lam[0] + _HARD_CASE_RTOL * max(1.0, abs(lam_min))
    g_left = float(np.linalg.norm(ghat[leftmost]))

    p, g_used, gn_used = None, ghat, gnorm
    if gnorm == 0.0:
        p = np.zeros_like(model.g_red) if lam_min >= 0.0 else r_floor * Q[:, 0]
    elif lam_min < 0.0 and g_left <= _HARD_CASE_RTOL * gnorm:
        # Hard-case candidate: the leftmost components of ghat are noise;
        # drop them and see whether the remaining curve still crosses r.
        g_used = np.where(leftmost, 0.0, ghat)
        gn_used = float(np.linalg.norm(g_used))
        coef = -g_used / np.where(leftmost, 1.0, base)
        interior_norm = float(np.linalg.norm(coef))
        if interior_norm < r_floor:
            # True hard case: pad with an eigenvector component so |p| = r.
            pad = math.sqrt(max(0.0, r_floor**2 - interior_norm**2))
            p = Q @ coef + pad * Q[:, 0]
    if p is None:
        hi = _shift_upper_bound(lam_min, gn_used, sigma)
        t = _secular_shift(base, g_used, sigma, floor, hi)
        p = Q @ (-g_used / (base + t))

    radius = float(np.linalg.norm(p))
    grad = model.g_red + model.H_red @ p + sigma * radius * p
    _, cauchy_dec = cauchy_point(model)
    dec = model_decrease(model, p)

    grad_norm = float(np.linalg.norm(grad))
    if grad_norm > delta * sigma * radius**2 + 1e-10 * max(1.0, gnorm):
        raise SecularSolveFailed(
            f"model gradient {grad_norm:.3e} exceeds budget "
            f"{delta * sigma * radius**2:.3e} after secular solve"
        )

    return OracleSolution(
        p=p, u=model.Z @ p, delta_m=dec, cauchy_delta_m=cauchy_dec,
        grad_model_norm=grad_norm, lambda_min_red=lam_min,
    )
