"""Normal step: pull the iterate toward the linearized constraint set.

The full normal step v_c is the minimum-norm solution of A v = -c.  The
driver scales it to v = beta v_c with beta in (0, 1], so that v never exceeds
the implicit trust radius 1/sqrt(sigma) that the cubic weight induces; beta is
chosen as the largest admissible value, so feasibility is restored as
aggressively as the regularization allows.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResidualConditionUnmet
from .linalg import FactorizedJacobian, range_least_squares, rounding_bound


def compute_vc(fact: FactorizedJacobian, c, r_v: float) -> tuple:
    """Return (v_c, |v_c|) with the inexactness certificate enforced.

    The solve is exact, so any r_v >= 0 (``SolverConfig.r_v``) only widens
    the allowance.  A zero constraint vector short-circuits to a zero step.
    """
    c_l1 = float(np.sum(np.abs(c)))
    n = fact.A.shape[1]
    if c_l1 == 0.0:
        return np.zeros(n), 0.0
    v_c = range_least_squares(fact, c)
    residual = float(np.sum(np.abs(fact.A @ v_c + c)))
    norm_vc = float(np.linalg.norm(v_c))
    # the paper's allowance plus rounding; the residual is a 1-norm, the bound a 2-norm
    allowed = (r_v * min(c_l1, norm_vc**3)
               + math.sqrt(len(c)) * rounding_bound(fact, norm_vc, float(np.linalg.norm(c))))
    if residual > allowed:
        raise ResidualConditionUnmet(
            f"normal-step residual {residual:.3e} exceeds certificate {allowed:.3e}"
        )
    return v_c, norm_vc


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
