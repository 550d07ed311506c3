"""The constraint Jacobian's factorization, its solves and their certificates.

This module alone knows that A is factorized by one full SVD (m < n).  The
trailing n - m right singular vectors give an orthonormal null-space basis Z:
tangential quantities live in Z-coordinates.  Other modules see Z and the
singular values, never U or V.  Every minimum-norm solve in range(A^T) happens
here: the multipliers, the normal step v_c (A v = -c) and the correction w
(A w = -c(x + d)).  The last two certify their residuals against the paper's
allowance plus a rounding floor written once, here, which the audit's check
of the same residual calls too.  Dense LAPACK only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient, ResidualConditionUnmet

Array = np.ndarray

# The solve is normwise backward stable, so an exact solve's residual is a modest
# multiple of eps (|A|_2 |v| + |rhs|): at most 33 times over about 40000 solves
# (random A with cond up to 1e9, a 200-problem random corpus, the benchmark's
# n = 300 workloads).  256 leaves a margin of 8.
_ROUNDING_KAPPA = 256.0


@dataclass
class FactorizedJacobian:
    """SVD-backed view of a full-row-rank constraint Jacobian."""

    A: Array
    Z: Array  # (n, n - m), orthonormal columns spanning null(A)
    singular_values: Array  # (m,), descending
    _U: Array  # (m, m) left singular vectors
    _V: Array  # (m, n) leading right singular vectors, as rows

    @property
    def largest_singular_value(self) -> float:  # |A|_2
        return float(self.singular_values[0])

    @property
    def smallest_singular_value(self) -> float:
        return float(self.singular_values[-1])


def factorize_jacobian(A, rank_tol: float = 1e-10) -> FactorizedJacobian:
    """Factorize ``A`` and expose its null space.

    Raises :class:`RankDeficient` when the smallest singular value falls
    below ``rank_tol`` times the largest (LICQ failure as far as the solver
    is concerned).
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    if not 1 <= m < n:
        raise ValueError(f"jacobian must be (m, n) with 1 <= m < n, got {A.shape}")
    U, s, Vt = np.linalg.svd(A, full_matrices=True)
    if s[0] <= 0.0 or s[m - 1] < rank_tol * s[0]:
        raise RankDeficient(
            f"jacobian numerically rank deficient: singular values {s}, rank_tol={rank_tol}"
        )
    # copies, so that no view keeps the n x n Vt alive
    return FactorizedJacobian(A=A, Z=Vt[m:].T.copy(), singular_values=s, _U=U,
                              _V=Vt[:m].copy())


def range_least_squares(fact: FactorizedJacobian, rhs) -> Array:
    """Minimum-norm solution v of A v = -rhs; v lies in range(A^T)."""
    y = (fact._U.T @ rhs) / fact.singular_values
    return -(fact._V.T @ y)


def estimate_multipliers(fact: FactorizedJacobian, g) -> Array:
    """lambda = -(A A^T)^{-1} A g, minimizing |g + A^T lambda|.

    Exact, so |A (g + A^T lambda)| <= r_lambda |v| holds for any r_lambda >= 0.
    """
    return -(fact._U @ ((fact._V @ g) / fact.singular_values))


def rounding_bound(fact: FactorizedJacobian, norm_v: float, norm_rhs: float) -> float:
    """kappa eps (|A|_2 |v| + |rhs|), from the two norms: the rounding floor of |A v + rhs|.

    For v = range_least_squares(fact, rhs) the residual stays below it (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 20).
    """
    return _ROUNDING_KAPPA * np.finfo(float).eps * (
        fact.largest_singular_value * norm_v + norm_rhs)


def rounding_bound_l1(fact: FactorizedJacobian, norm_v: float, norm_rhs: float) -> float:
    """The rounding floor of the 1-norm |A v + rhs|_1: sqrt(m) times ``rounding_bound``."""
    return math.sqrt(len(fact.singular_values)) * rounding_bound(fact, norm_v, norm_rhs)


def compute_vc(fact: FactorizedJacobian, c, r_v: float) -> tuple:
    """Return (v_c, |v_c|) with the inexactness certificate enforced.

    The solve is exact, so any r_v >= 0 (``SolverConfig.r_v``) only widens
    the allowance.  A zero constraint vector short-circuits to a zero step.
    """
    c_l1 = float(np.sum(np.abs(c)))
    if c_l1 == 0.0:
        return np.zeros(fact.A.shape[1]), 0.0
    v_c = range_least_squares(fact, c)
    residual = float(np.sum(np.abs(fact.A @ v_c + c)))
    norm_vc = float(np.linalg.norm(v_c))
    allowed = (r_v * min(c_l1, norm_vc**3)
               + rounding_bound_l1(fact, norm_vc, float(np.linalg.norm(c))))
    if residual > allowed:
        raise ResidualConditionUnmet(
            f"normal-step residual {residual:.3e} exceeds certificate {allowed:.3e}"
        )
    return v_c, norm_vc


def compute_correction(fact: FactorizedJacobian, c_trial, r_w: float,
                       norm_d: float) -> Array:
    """Correction step w in range(A^T) with |A w + c_trial| <= r_w |d|^3.

    The solve is exact, so the certificate check, with ``SolverConfig.r_w``
    and the trial step's |d|, is defensive.
    """
    w = range_least_squares(fact, c_trial)
    residual = float(np.linalg.norm(fact.A @ w + c_trial))
    allowed = r_w * norm_d**3 + rounding_bound(fact, float(np.linalg.norm(w)),
                                               float(np.linalg.norm(c_trial)))
    if residual > allowed:
        raise ResidualConditionUnmet(
            f"correction residual {residual:.3e} exceeds certificate {allowed:.3e}"
        )
    return w


def reduce_matrix(fact: FactorizedJacobian, M) -> Array:
    """Z^T M Z, symmetrized."""
    W = fact.Z.T @ M @ fact.Z
    return 0.5 * (W + W.T)
