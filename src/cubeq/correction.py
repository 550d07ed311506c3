"""Second-order correction steps.

Near the constraint surface (small full normal step relative to the
1/sqrt(sigma) radius), a rejected trial point x + d is given one more
chance: a correction w, the minimum-norm solution of A w = -c(x + d),
absorbs the constraint curvature picked up along d.  This is what prevents
good steps from being rejected forever as the iterates track a curved
feasible set (the Maratos effect).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResidualConditionUnmet
from .linalg import FactorizedJacobian, range_least_squares, rounding_bound

Array = np.ndarray


def in_correction_region(norm_vc: float, sigma: float, zeta: float = 0.25) -> bool:
    """Whether the iterate qualifies for a correction attempt."""
    return norm_vc <= zeta / math.sqrt(sigma)


def compute_correction(fact: FactorizedJacobian, c_trial,
                       r_w: float = 0.0, norm_d: float = 0.0) -> Array:
    """Correction step w in range(A^T) with |A w + c_trial| <= r_w |d|^3.

    With the default r_w = 0 this is the exact least-squares solve; the
    certificate check is defensive.
    """
    c_trial = np.asarray(c_trial, dtype=float).reshape(-1)
    w = range_least_squares(fact, c_trial)
    residual = float(np.linalg.norm(fact.A @ w + c_trial))
    allowed = r_w * norm_d**3 + rounding_bound(fact, w, c_trial)
    if residual > allowed:
        raise ResidualConditionUnmet(
            f"correction residual {residual:.3e} exceeds certificate {allowed:.3e}"
        )
    return w
