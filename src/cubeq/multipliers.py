"""Least-squares multiplier estimates.

lambda* minimizes |g + A^T lambda| over lambda; via the SVD of A it is
-(A A^T)^{-1} A g.  The inexact contract only requires
|A (g + A^T lambda)| <= r_lambda * |v|, which the exact estimate satisfies
for any r_lambda >= 0, so this module always returns the exact solve.
"""

from __future__ import annotations

import numpy as np

from .linalg import FactorizedJacobian

Array = np.ndarray


def estimate_multipliers(fact: FactorizedJacobian, g) -> Array:
    """Exact least-squares multiplier estimate at the current iterate."""
    U, s, Vt = fact.factor_state
    g = np.asarray(g, dtype=float).reshape(-1)
    # lambda* = -U diag(1/s) V_r^T g
    return -(U @ ((Vt[:len(s)] @ g) / s))
