"""The constraint Jacobian's factorization, its solves and their rounding.

This module alone knows that A is factorized by one full SVD (m < n).  The
trailing n - m right singular vectors give an orthonormal null-space basis Z:
tangential quantities live in Z-coordinates.  Other modules see Z and the
singular values, never U or V; every minimum-norm solve in range(A^T) (normal
step, correction, least-squares multipliers) happens here, as does the
rounding bound that certifies the first two.  Dense LAPACK only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient

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
    return FactorizedJacobian(A=A, Z=Vt[m:].T.copy(), singular_values=s, _U=U, _V=Vt[:m])


def range_least_squares(fact: FactorizedJacobian, rhs) -> Array:
    """Minimum-norm solution v of A v = -rhs; v lies in range(A^T)."""
    y = (fact._U.T @ np.asarray(rhs, dtype=float)) / fact.singular_values
    return -(fact._V.T @ y)


def estimate_multipliers(fact: FactorizedJacobian, g) -> Array:
    """lambda = -(A A^T)^{-1} A g, minimizing |g + A^T lambda|.

    Exact, so |A (g + A^T lambda)| <= r_lambda |v| holds for any r_lambda >= 0.
    """
    g = np.asarray(g, dtype=float).reshape(-1)
    return -(fact._U @ ((fact._V @ g) / fact.singular_values))


def rounding_bound(fact: FactorizedJacobian, v, rhs) -> float:
    """kappa eps (|A|_2 |v| + |rhs|): the rounding floor of |A v + rhs|.

    For v = range_least_squares(fact, rhs) the residual stays below it (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 20).
    """
    return _ROUNDING_KAPPA * np.finfo(float).eps * (
        fact.largest_singular_value * float(np.linalg.norm(v))
        + float(np.linalg.norm(rhs)))


def reduce_matrix(fact: FactorizedJacobian, M) -> Array:
    """Z^T M Z, symmetrized."""
    W = fact.Z.T @ np.asarray(M, dtype=float) @ fact.Z
    return 0.5 * (W + W.T)
