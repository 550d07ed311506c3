"""Dense factorization of the constraint Jacobian and reduced-space helpers.

Everything here is built on one full SVD of the (m, n) Jacobian, m < n.  The
trailing n - m right singular vectors give an orthonormal null-space basis Z,
which is how the rest of the solver sees the feasible directions: tangential
quantities live in Z-coordinates, and the orthogonal projector onto the null
space is Z Z^T.  Dense LAPACK only; problem sizes here never justify
iterative methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient

Array = np.ndarray


@dataclass
class FactorizedJacobian:
    """SVD-backed view of a full-row-rank constraint Jacobian."""

    A: Array
    Z: Array  # (n, n - m), orthonormal columns spanning null(A)
    smallest_singular_value: float
    factor_state: tuple  # (U, s, Vt) with Vt of shape (n, n)


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
    return FactorizedJacobian(
        A=A, Z=Vt[m:].T.copy(),
        smallest_singular_value=float(s[m - 1]),
        factor_state=(U, s, Vt),
    )


def range_least_squares(fact: FactorizedJacobian, rhs) -> Array:
    """Minimum-norm solution v of A v = -rhs; v lies in range(A^T)."""
    U, s, Vt = fact.factor_state
    y = (U.T @ np.asarray(rhs, dtype=float)) / s
    return -(Vt[:len(s)].T @ y)


def reduce_matrix(fact: FactorizedJacobian, M) -> Array:
    """Z^T M Z, symmetrized."""
    W = fact.Z.T @ np.asarray(M, dtype=float) @ fact.Z
    return 0.5 * (W + W.T)


def min_eig_reduced(fact: FactorizedJacobian, H) -> tuple:
    """Smallest eigenvalue of Z^T H Z and a unit eigenvector (Z-coordinates)."""
    W = reduce_matrix(fact, H)
    vals, vecs = np.linalg.eigh(W)
    return float(vals[0]), vecs[:, 0].copy()
