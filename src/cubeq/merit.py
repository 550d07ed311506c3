"""l1 merit function, its model, and the penalty-parameter update.

phi(x, mu) = f(x) + mu |c(x)|_1.  An iteration's quality is measured against
the decrease of the local model

    q(d) = f + g.d + d.H d/2 + sigma |d|^3/3 + mu |c + A d|_1,

and mu is ratcheted up (never down) whenever the candidate value derived
from the current step's geometry overtakes it.  The candidate denominator
carries the (1 - r_v - tau) beta |c|_1 margin, so a mu at or above the
candidate guarantees q's decrease covers the tangential model decrease plus
tau mu beta |c|_1 worth of feasibility progress.
"""

from __future__ import annotations

import numpy as np

from .linalg import norm

Array = np.ndarray


def merit_value(f: float, c_l1: float, mu: float) -> float:
    return float(f) + mu * float(c_l1)


def predicted_reduction(g, H, c, A, d, sigma, mu) -> float:
    """q(0) - q(d), expanded so the f-offsets cancel symbolically.

    The expanded form keeps the result accurate near convergence, where the
    literal difference of two q values would be pure cancellation.
    """
    quad = float(g @ d) + 0.5 * float(d @ H @ d) + sigma / 3.0 * norm(d)**3
    return -quad + mu * float(np.abs(c).sum() - np.abs(c + A @ d).sum())


def mu_candidate(g, H, v, d, u, sigma, beta, c_l1, r_v, tau) -> float:
    """Penalty candidate; zero at feasible points, may be negative."""
    if c_l1 == 0.0:
        return 0.0
    num = float(g @ v) + 0.5 * float(v @ H @ v) + sigma / 3.0 * (norm(d)**3 - norm(u)**3)
    return num / ((1.0 - r_v - tau) * beta * c_l1)


def update_mu(mu_prev: float, candidate: float, nu: float) -> float:
    """Ratchet: jump to nu * candidate only when the candidate overtakes."""
    if mu_prev < candidate:
        return nu * candidate
    return mu_prev


def ratio(phi_x: float, phi_trial: float, delta_q: float) -> float:
    """Achieved-over-predicted merit decrease; +-inf when delta_q is zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.divide(phi_x - phi_trial, delta_q))
