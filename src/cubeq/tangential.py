"""Tangential step: globally minimize the reduced cubic model.

The model lives in coordinates p of the constraint null space,

    m(p) = g_red . p + p . H_red p / 2 + sigma |p|^3 / 3,

for the basis Z = Q[:, m:] of the Jacobian's Householder QR, which
``linalg.FactorizedJacobian`` applies (``to_null``, ``from_null``) without
forming it.  Z's columns are orthonormal, so |Z p| = |p| and the cubic weight
in the full space and in coordinates agree.  A global minimizer p* satisfies

    (H_red + sigma r I) p* = -g_red,   r = |p*|,   H_red + sigma r I psd,

which reduces the problem to a scalar secular equation |p(r)| = r on
r >= r_floor = max(0, -lam_min)/sigma, where psi(r) = 1/|p(r)| - 1/r is
concave and increasing: safeguarded Newton on psi needs a handful of
evaluations (Moré & Sorensen 1983; Cartis, Gould & Toint 2011, ARC Part I, 6.1).

Only g_red and sigma change between the models of one iterate, so H_red is
its own object, a ``ReducedHessian`` that the caller builds once per iterate
and passes to each ``solve_cubic`` there.  It reduces H_red to Q_T T Q_T^T
with T tridiagonal (LAPACK dsytrd) and takes lam_min from T by bisection
(dstebz), which the caller's stationarity test reads too.  A solve works on T
and q = Q_T^T g_red and maps its step back by Q_T once; the caller maps that
to the full space, u = Z p (``from_null``).  As in GLTR (Gould, Lucidi, Roma
& Toint 1999), an evaluation at the shift t = sigma (r - r_floor) is one O(k)
LDL^T of T + (floor + t) I and two solves.  Near the floor LDL^T loses the
relative accuracy of the eigenbasis, where the leftmost term of
lam_i + sigma r is t exactly.  So T's eigendecomposition (dstevd), computed
when first needed and kept for every solve after, takes over if g_red = 0,
if LDL^T fails, if the root lies below t_min = kappa eps (|T| + floor) -
max(lam_min, 0) (the hard case, or a tiny gradient under negative
curvature), or if the step misses |p| = r by more than 1e-13 r; for k <= 2
it is at hand at once.  In the hard case q is (numerically) orthogonal to
the leftmost eigenspace, the secular curve never reaches the diagonal, and
r stays at r_floor with an eigenvector component padding |p| = r.

The global minimizer has three properties the rest of the method relies
on: or1, it decreases the model at least as much as the exact Cauchy point
(steepest descent on the model); or2, its model gradient is within the
delta * sigma * |u|^2 budget; or3, lam_min(H_red) >= -sigma |u|.  The solver
enforces or2 (``SecularSolveFailed`` otherwise); the audit checks all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SecularSolveFailed
from .linalg import _lapack, norm

Array = np.ndarray

# Relative threshold deciding when g_red has no usable component along the
# leftmost eigenspace and the hard-case branch applies.
_HARD_CASE_RTOL = 1e-12

_EPS = np.finfo(float).eps
_MAX_SECULAR_STEPS = 300
_SECULAR_RTOL = 16.0 * _EPS  # relative Newton step that ends the iteration
_GAP_RTOL = 1e-14  # relative gap |p| - r that ends it
_TRUSTED_GAP_RTOL = 1e-13  # a tridiagonal step missing |p| = r by more is redone
_NEWTON_ZONE = 1e-6  # below this relative gap a Newton step at least halves it
# Below the shift kappa eps (|T| + floor), LDL^T of T + (floor + t) I can be
# accurate to no better than 1/kappa, too little for Newton to converge on.
_LDL_KAPPA = 1e5


class ReducedHessian:
    """H_red = Z^T H Z at one iterate, shared by every cubic model there.

    Construction reduces it to H_red = Q_T T Q_T^T (dsytrd, lower) and takes
    lam_min from T (dstebz); ``eigh`` decomposes T (dstevd) on first use and
    keeps it.  For k <= 2, H_red is its own T and its eigendecomposition comes
    along: at hand (k = 1) or cheaper than the LAPACK calls (k = 2).
    """

    def __init__(self, matrix: Array):
        self.matrix = matrix  # H_red, symmetric
        k = matrix.shape[0]
        self._reflectors = self._tau = self._eigh = None
        if k <= 2:
            lam, Q = (matrix[0], np.ones((1, 1))) if k == 1 else np.linalg.eigh(matrix)
            self.d, self.e = matrix.diagonal(), matrix.diagonal(-1)
            self.lam_min = float(lam[0])
            self.norm = max(-float(lam[0]), float(lam[-1]))  # |T|_2 itself
            self._eigh = (lam, Q)
            return
        lapack = _lapack()
        lwork = int(lapack.dsytrd_lwork(k, lower=1)[0])
        a, d, e, tau, _ = lapack.dsytrd(matrix, lower=1, lwork=lwork)
        _, w, _, _, info = lapack.dstebz(d, e, 2, 0.0, 0.0, 1, 1, 0.0, "E")
        if info != 0:
            raise SecularSolveFailed(f"bisection for the smallest eigenvalue failed (info={info})")
        self.d, self.e = d, e  # diagonal and subdiagonal of T
        self.lam_min = float(w[0])
        self.norm = math.sqrt(np.dot(d, d) + 2.0 * np.dot(e, e))  # Frobenius, >= |T|_2
        # of Q_T: (k-1, k-1), Fortran order
        self._reflectors, self._tau = np.asfortranarray(a[1:, :-1]), tau

    @property
    def eigh_at_hand(self) -> bool:
        return self._eigh is not None

    def eigh(self) -> tuple:
        """(lam, Q) with T = Q diag(lam) Q^T, computed on the first call."""
        if self._eigh is None:
            lam, Q, info = _lapack().dstevd(self.d, self.e)
            if info != 0:
                raise SecularSolveFailed(f"eigendecomposition of T failed (info={info})")
            self._eigh = (lam, Q)
        return self._eigh

    def rotate(self, trans: str, x: Array) -> Array:
        """Q_T^T x for trans "T", Q_T x for "N"."""
        if self._reflectors is None:
            return x
        out = x.copy()
        # lwork = k: a larger workspace makes this one-column call slower
        out[1:] = _lapack().dormqr("L", trans, self._reflectors, self._tau,
                                   x[1:, None], len(x))[0][:, 0]
        return out


@dataclass(frozen=True)
class OracleSolution:
    p: Array  # reduced coordinates; the step is Z p
    delta_m: float  # m(0) - m(p)
    grad_model_norm: float  # |g_red + H_red p + sigma |p| p|


def model_decrease(H_red, g_red, sigma, p) -> float:
    """m(0) - m(p); positive when p improves the model."""
    r = norm(p)
    return -float(g_red @ p + 0.5 * p @ H_red @ p + sigma / 3.0 * r**3)


def _moments(d, e, q):
    """t -> (y, |y|^2, y . M^-1 y) with M y = q, M = T + t I for the symmetric
    tridiagonal T = (d, e), by LDL^T; diagonal when ``e`` is None."""
    def moments(t):
        if e is None:
            den = d + t
            y = q / den
            z = y / den
        else:
            lapack = _lapack()
            dd, ee, info = lapack.dpttrf(d + t, e)
            if info != 0:
                raise np.linalg.LinAlgError(f"LDL^T of T + t I failed (info={info})")
            y = lapack.dpttrs(dd, ee, q)[0]
            z = lapack.dpttrs(dd, ee, y)[0]
        return y, float(np.dot(y, y)), float(np.dot(y, z))
    return moments


def _secular(t, moments, sigma, floor):
    """Secular gap |p| - r and the Newton step on psi, at r = (floor + t) / sigma.

    With y, S = |y|^2 and S3 from ``moments(t)`` (M = H_red + sigma r I in some
    basis), psi' = sigma S3 / |p|^3 + 1/r^2, so the Newton step in t,
    -sigma psi / psi', is sigma gap S r / (|p| S + sigma r^2 S3).
    """
    _, s, s3 = moments(t)
    norm = math.sqrt(s)
    r = (floor + t) / sigma
    gap = norm - r
    return gap, sigma * gap * s * r / (norm * s + sigma * r * r * s3)


def _shift_upper_bound(lam_min, gnorm, sigma):
    # Any radius with |p(r)| = r has sigma r^2 + lam_min r <= |g|; at the root of
    # that quadratic sigma (r - r_floor) = (sqrt(lam_min^2 + 4 sigma |g|) - |lam_min|)/2,
    # here in the form that does not cancel.
    return 2.0 * sigma * gnorm / (abs(lam_min) + math.sqrt(lam_min**2 + 4.0 * sigma * gnorm))


def _secular_shift(moments, sigma, floor, lo, hi):
    """Shift t = sigma (r - r_floor) in (lo, hi] at the secular root; None if it is <= lo > 0.

    Safeguarded Newton from hi: the bracket follows the sign of the gap, and a
    step that leaves it, or is not at most half the step before, is replaced
    by bisection.  The gap at lo > 0 is evaluated once a step tries to leave
    the bracket; with a positive floor Newton restarts there, where psi has no
    pole, and climbs to the root monotonically without the step-length guard.
    It stops at a relative gap of 1e-14, or with the best shift seen once a
    Newton step near the root fails to halve the gap, which only rounding does.
    """
    if lo > 0.0 and hi <= lo:
        return None
    for _ in range(60):
        gap, step = _secular(hi, moments, sigma, floor)
        if gap <= _GAP_RTOL * (floor + hi) / sigma:
            break
        hi = 2.0 * max(hi, 1e-300)
    else:
        raise SecularSolveFailed("could not bracket the secular root from above")
    t, last, guarded, lo_checked = hi, hi, True, lo == 0.0
    best, previous, newton = (math.inf, t), math.inf, False
    for _ in range(_MAX_SECULAR_STEPS):
        rel = abs(gap) * sigma / (floor + t)  # |gap| / r
        if rel < best[0]:
            best = (rel, t)
        if rel <= _GAP_RTOL:
            return t
        if abs(step) <= _SECULAR_RTOL * t:
            return t + max(step, 0.0)
        if newton and rel > previous / 2.0 and previous <= _NEWTON_ZONE:
            return best[1]
        new = t + step
        newton = lo < new < hi and (abs(step) <= 0.5 * last or not guarded)
        if not newton:
            if not lo_checked:
                lo_checked, at_lo = True, _secular(lo, moments, sigma, floor)
                if at_lo[0] <= 0.0:
                    return None
                if floor > 0.0:
                    t, (gap, step), guarded = lo, at_lo, False
                    continue
            new = 0.5 * (lo + hi)
        last, previous, t = abs(new - t), rel, new
        gap, step = _secular(t, moments, sigma, floor)
        if gap > 0.0:
            lo, lo_checked = t, True
        else:
            hi = t
        if hi - lo <= 4.0 * _EPS * hi:
            return hi
    raise SecularSolveFailed(f"secular iteration did not converge in "
                             f"{_MAX_SECULAR_STEPS} steps (lo={lo}, hi={hi})")


def _tridiagonal_step(hessian: ReducedHessian, q, sigma, gnorm) -> Optional[Array]:
    """The step in T's coordinates by Newton on T; None where LDL^T cannot be trusted."""
    floor = max(0.0, -hessian.lam_min)
    t_min = max(0.0, _LDL_KAPPA * _EPS * (hessian.norm + floor) - max(hessian.lam_min, 0.0))
    moments = _moments(hessian.d + floor, hessian.e, q)
    try:
        t = _secular_shift(moments, sigma, floor, t_min,
                           _shift_upper_bound(hessian.lam_min, gnorm, sigma))
        if t is None:  # the root lies below t_min
            return None
        y, s, _ = moments(t)
    except (np.linalg.LinAlgError, SecularSolveFailed):
        return None
    r = (floor + t) / sigma
    return -y if abs(math.sqrt(s) - r) <= _TRUSTED_GAP_RTOL * r else None


def _eigenbasis_step(lam, Q, g, sigma, lam_min, gnorm) -> Array:
    """The step for the gradient g of T = Q diag(lam) Q^T by the secular equation in
    its eigenbasis; r counts from the model's ``lam_min``, lam_i + sigma r from lam[0]."""
    floor = max(0.0, -lam_min)
    r_floor = floor / sigma
    if gnorm == 0.0:
        return np.zeros_like(g) if lam_min >= 0.0 else r_floor * Q[:, 0]
    ghat = Q.T @ g
    base = lam + max(0.0, -lam[0])  # lam_i + sigma r_floor; the shift t is added to it
    leftmost = lam <= lam[0] + _HARD_CASE_RTOL * max(1.0, abs(lam_min))
    g_used, gn_used = ghat, gnorm
    if lam_min < 0.0 and norm(ghat[leftmost]) <= _HARD_CASE_RTOL * gnorm:
        # Hard-case candidate: the leftmost components of ghat are noise;
        # drop them and see whether the remaining curve still crosses r.
        g_used = np.where(leftmost, 0.0, ghat)
        gn_used = norm(g_used)
        coef = -g_used / np.where(leftmost, 1.0, base)
        interior_norm = norm(coef)
        if interior_norm < r_floor:
            # True hard case: pad with an eigenvector component so |p| = r.
            pad = math.sqrt(max(0.0, r_floor**2 - interior_norm**2))
            return Q @ coef + pad * Q[:, 0]
    hi = _shift_upper_bound(lam_min, gn_used, sigma)
    moments = _moments(base, None, g_used)
    # base[0] = 0, so |p| >= |ghat_0| / t and the gap is positive at lo
    lo = sigma * abs(g_used[0]) / (floor + hi) if lam[0] < 0.0 else 0.0
    t = _secular_shift(moments, sigma, floor, lo, hi)
    if t is None:  # lo and hi rounded past the root
        t = _secular_shift(moments, sigma, floor, 0.0, hi)
    return Q @ (-g_used / (base + t))


def solve_cubic(hessian: ReducedHessian, g_red, sigma: float,
                delta: float) -> OracleSolution:
    """Global minimizer of the cubic model of ``g_red`` and ``sigma`` > 0 on ``hessian``.

    ``delta`` (``SolverConfig.delta``) is the model-gradient budget of the
    acceptance test |grad m(u)| <= delta sigma |u|^2; the exact solve lands
    far inside it, and the value is only used for a defensive post-check.
    """
    gnorm = norm(g_red)
    q, y = hessian.rotate("T", g_red), None
    if not hessian.eigh_at_hand and gnorm > 0.0:
        y = _tridiagonal_step(hessian, q, sigma, gnorm)
    if y is None:
        y = _eigenbasis_step(*hessian.eigh(), q, sigma, hessian.lam_min, gnorm)
    p = hessian.rotate("N", y)

    radius = norm(p)
    grad_norm = norm(g_red + hessian.matrix @ p + sigma * radius * p)
    dec = model_decrease(hessian.matrix, g_red, sigma, p)

    if grad_norm > delta * sigma * radius**2 + 1e-10 * max(1.0, gnorm):
        raise SecularSolveFailed(
            f"model gradient {grad_norm:.3e} exceeds budget "
            f"{delta * sigma * radius**2:.3e} after secular solve"
        )

    return OracleSolution(p=p, delta_m=dec, grad_model_norm=grad_norm)
