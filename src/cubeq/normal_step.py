"""Normal step: pull the iterate toward the linearized constraint set.

The full normal step v_c is the minimum-norm solution of A v = -c.  It is
then scaled by beta in (0, 1] so the scaled step never exceeds the implicit
trust radius 1/sqrt(sigma) that the cubic weight induces; beta is chosen as
the largest admissible value, so feasibility is restored as aggressively as
the regularization allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResidualConditionUnmet
from .linalg import FactorizedJacobian, range_least_squares, rounding_bound

Array = np.ndarray


@dataclass(frozen=True)
class NormalStep:
    v_c: Array  # full normal step, in range(A^T)
    v: Array  # beta * v_c
    beta: float


def compute_vc(fact: FactorizedJacobian, c, r_v: float = 0.0) -> tuple:
    """Return (v_c, residual_l1) with the inexactness certificate enforced.

    With the default r_v = 0 this is the exact least-squares solve.  A zero
    constraint vector short-circuits to a zero step.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    c_l1 = float(np.sum(np.abs(c)))
    n = fact.A.shape[1]
    if c_l1 == 0.0:
        return np.zeros(n), 0.0
    v_c = range_least_squares(fact, c)
    residual = float(np.sum(np.abs(fact.A @ v_c + c)))
    norm_vc = float(np.linalg.norm(v_c))
    # the paper's allowance plus rounding; the residual is a 1-norm, the bound a 2-norm
    allowed = r_v * min(c_l1, norm_vc**3) + math.sqrt(len(c)) * rounding_bound(fact, v_c, c)
    if residual > allowed:
        raise ResidualConditionUnmet(
            f"normal-step residual {residual:.3e} exceeds certificate {allowed:.3e}"
        )
    return v_c, residual


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


def assemble_normal(fact: FactorizedJacobian, c, sigma: float,
                    r_v: float = 0.0) -> NormalStep:
    v_c, _ = compute_vc(fact, c, r_v)
    beta = select_beta(float(np.linalg.norm(v_c)), sigma)
    return NormalStep(v_c=v_c, v=beta * v_c, beta=beta)
