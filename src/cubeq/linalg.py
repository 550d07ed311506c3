"""The constraint Jacobian's factorization, its solves and their certificates.

This module alone knows that A^T = Q [R; 0] by one Householder QR (m < n),
with Q = I - W V^T in compact WY form: V the unit lower trapezoidal
reflectors, W = V T with T upper triangular.  Q's trailing n - m columns are
an orthonormal null-space basis Z; neither Q nor Z is formed.  Other modules
see A's singular values (R's), the O(nm) maps x -> Z^T x and p -> Z p, and
``reduce_matrix``'s O(n^2 m) Z^T M Z.  Every minimum-norm solve in range(A^T)
is a triangular solve with R here: the multipliers, the normal step v_c
(A v = -c) and the correction w (A w = -c(x + d)).  The last two certify their
residuals against the paper's allowance plus a rounding floor written once,
here, which the audit's check of the same residual calls too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient, ResidualConditionUnmet

Array = np.ndarray

_EPS = float(np.finfo(float).eps)
# The solve is normwise backward stable, so an exact solve's residual is a modest
# multiple of eps (|A|_2 |v| + |rhs|): at most 2.7 times over about 40000 solves by
# R's triangular solves (random A with cond up to 1e9, a 200-problem random corpus,
# the benchmark's workloads), against 48 by the SVD they replaced; 256 is kept.
_ROUNDING_KAPPA = 256.0


def norm(x) -> float:  # np.linalg.norm's value for a vector, without its overhead
    return math.sqrt(np.dot(x, x))


@dataclass
class FactorizedJacobian:
    """QR-backed view of a full-row-rank constraint Jacobian: A^T = Q [R; 0]."""

    A: Array
    singular_values: Array  # (m,), descending: R's, which are A's
    _R: Array  # (m, m) upper triangular
    _V: Array  # (m, n) V^T: reflector j in row j, zero before its unit entry j
    _W: Array  # (m, n) W^T, so that Q = I - _W^T _V

    @property
    def largest_singular_value(self) -> float:  # |A|_2
        return float(self.singular_values[0])

    @property
    def smallest_singular_value(self) -> float:
        return float(self.singular_values[-1])

    def to_null(self, x) -> Array:
        """Z^T x = (Q^T x)[m:], the null-space coordinates of ``x``."""
        m = len(self._R)
        return x[m:] - np.dot(np.dot(self._W, x), self._V[:, m:])

    def from_null(self, p) -> Array:
        """Z p = Q [0; p], the vector with null-space coordinates ``p``."""
        m = len(self._R)
        out = np.dot(np.dot(self._V[:, m:], p), self._W)
        out[m:] -= p
        return -out


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
    # row j of h: R[:j + 1, j], then reflector j below its unit entry (dgeqrf, transposed)
    h, tau = np.linalg.qr(A.T, mode="raw")
    R, V = h[:, :m].T.copy(), h.copy()
    V.flat[::n + 1] = 1.0
    W = tau[:, None] * V  # row j: tau_j (v_j - W[:j]^T V[:j] v_j), as LAPACK's dlarft
    for j in range(1, m):  # row j of V, and so of W, is complete once V[j, :j] is zeroed
        R[j, :j] = V[j, :j] = 0.0
        W[j] = tau[j] * V[j] - tau[j] * ((V[:j] @ V[j]) @ W[:j])
    s = np.abs(R[0]) if m == 1 else np.linalg.svd(R, compute_uv=False)
    if s[0] <= 0.0 or s[m - 1] < rank_tol * s[0]:
        raise RankDeficient(
            f"jacobian numerically rank deficient: singular values {s}, rank_tol={rank_tol}"
        )
    return FactorizedJacobian(A=A, singular_values=s, _R=R, _V=V, _W=W)


def _forward(L, b) -> Array:
    """x with L x = b for lower triangular L, by forward substitution."""
    x = b / L.diagonal()
    for j in range(1, len(x)):
        x[j] -= L[j, :j] @ x[:j] / L[j, j]
    return x


def range_least_squares(fact: FactorizedJacobian, rhs) -> Array:
    """Minimum-norm solution v = -Q [R^-T rhs; 0] of A v = -rhs; v lies in range(A^T)."""
    y = _forward(fact._R.T, rhs)
    v = np.dot(np.dot(fact._V[:, :len(y)], y), fact._W)
    v[:len(y)] -= y
    return v


def estimate_multipliers(fact: FactorizedJacobian, g) -> Array:
    """lambda = -(A A^T)^{-1} A g = -R^-1 (Q^T g)[:m], minimizing |g + A^T lambda|.

    Exact, so |A (g + A^T lambda)| <= r_lambda |v| holds for any r_lambda >= 0.
    """
    m = len(fact._R)
    b = g[:m] - np.dot(np.dot(fact._W, g), fact._V[:, :m])
    return -_forward(fact._R[::-1, ::-1], b[::-1])[::-1]  # back substitution


def rounding_bound(fact: FactorizedJacobian, norm_v: float, norm_rhs: float) -> float:
    """kappa eps (|A|_2 |v| + |rhs|), from the two norms: the rounding floor of |A v + rhs|.

    For v = range_least_squares(fact, rhs) the residual stays below it (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 21, the Q method).
    """
    return _ROUNDING_KAPPA * _EPS * (fact.largest_singular_value * norm_v + norm_rhs)


def rounding_bound_l1(fact: FactorizedJacobian, norm_v: float, norm_rhs: float) -> float:
    """The rounding floor of the 1-norm |A v + rhs|_1: sqrt(m) times ``rounding_bound``."""
    return math.sqrt(len(fact.singular_values)) * rounding_bound(fact, norm_v, norm_rhs)


def rounding_bound_l1_change(fact: FactorizedJacobian, c, d) -> float:
    """The rounding floor of |c|_1 - |c + A d|_1, both sums formed in floating point.

    With u = eps/2 and gamma_k = k u / (1 - k u) (Higham, ch. 3), each term
    c_i + a_i . d, from the rounded d = v + u, is off by at most gamma_{n+1}
    |a_i| |d| + u |c_i + a_i . d|, each m-term sum by gamma_{m-1} times itself and
    the difference by u times its size: eps (m (|c|_1 + |c + A d|_1) + n |A| |d|)."""
    (m, n), A = fact.A.shape, fact.A
    sums = float(np.abs(c).sum()) + float(np.abs(c + A @ d).sum())
    return _EPS * (m * sums + n * float((np.abs(A) @ np.abs(d)).sum()))


def compute_vc(fact: FactorizedJacobian, c, r_v: float) -> tuple:
    """Return (v_c, |v_c|) with the inexactness certificate enforced.

    The solve is exact, so any r_v >= 0 (``SolverConfig.r_v``) only widens
    the allowance.  A zero constraint vector short-circuits to a zero step.
    """
    c_l1 = float(np.abs(c).sum())
    if c_l1 == 0.0:
        return np.zeros(fact.A.shape[1]), 0.0
    v_c = range_least_squares(fact, c)
    residual = float(np.abs(fact.A @ v_c + c).sum())
    norm_vc = norm(v_c)
    allowed = r_v * min(c_l1, norm_vc**3) + rounding_bound_l1(fact, norm_vc, norm(c))
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
    residual = norm(fact.A @ w + c_trial)
    allowed = r_w * norm_d**3 + rounding_bound(fact, norm(w), norm(c_trial))
    if residual > allowed:
        raise ResidualConditionUnmet(
            f"correction residual {residual:.3e} exceeds certificate {allowed:.3e}"
        )
    return w


def reduce_matrix(fact: FactorizedJacobian, M) -> Array:
    """Z^T M Z for symmetric M, exactly symmetric: the trailing block of
    Q^T M Q = M - V K^T - K V^T, K = M W - V (W^T M W) / 2, in O(n^2 m)."""
    m = len(fact._R)
    P = np.dot(fact._W, M)  # (M W)^T
    K = P[:, m:] - 0.5 * np.dot(np.dot(P, fact._W.T), fact._V[:, m:])  # K[m:]^T
    G = np.dot(fact._V[:, m:].T, K)
    G = G + G.T
    return np.subtract(M[m:, m:], G, out=G)
