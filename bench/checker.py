"""Answer checks that use numpy and the problem callbacks, never ``cubeq``.

``check_answer`` tests a returned point against the second-order conditions
recomputed from scratch (its own SVD null-space basis, its own least-squares
multipliers) and against the case's reference answer.  ``check_derivatives``
compares every derivative callback with central differences.  Each returns
a list of misses; an empty list means the answer or the problem passed.
"""

from __future__ import annotations

import numpy as np

# A solve at the solver's default tolerances (1e-8) lands far inside these.
TOL_C = 1e-7  # |c(x)|_1
TOL_G = 1e-7  # |grad L|, relative to max(1, |g|)
TOL_LAM = 1e-6  # multipliers, relative to max(1, |lam_ls|)
TOL_H = 1e-6  # smallest reduced eigenvalue, relative to max(1, |H|)
TOL_X = 1e-6  # distance to the reference minimizer
TOL_F = 1e-6  # objective value, relative to max(1, |f*|): |lam| |c|_1 reaches 1e-7

FD_STEP = 1e-5
FD_TOL = 1e-5  # relative to max(1, max |exact|)


def _null_basis(A):
    m = A.shape[0]
    _, _, Vt = np.linalg.svd(A, full_matrices=True)
    return Vt[m:].T


def check_answer(callbacks: dict, x, lam, expect: dict) -> list:
    """Misses of the answer ``(x, lam)``; empty when it is a correct SOSP."""
    misses = []
    x = np.asarray(x, dtype=float)
    c = np.asarray(callbacks["constraints"](x), dtype=float)
    g = np.asarray(callbacks["gradient"](x), dtype=float)
    A = np.atleast_2d(np.asarray(callbacks["jacobian"](x), dtype=float))

    c_l1 = float(np.sum(np.abs(c)))
    if not c_l1 <= TOL_C:
        misses.append(f"constraint norm {c_l1:.3e} > {TOL_C:.0e}")

    lam_ls = np.linalg.lstsq(A.T, -g, rcond=None)[0]
    lam = np.asarray(lam, dtype=float).reshape(-1) if lam is not None else None
    lam_err = np.inf if lam is None or lam.shape != lam_ls.shape else float(
        np.linalg.norm(lam - lam_ls))
    if not lam_err <= TOL_LAM * max(1.0, float(np.linalg.norm(lam_ls))):
        misses.append(f"multipliers differ from least squares by {lam_err:.3e}")

    grad_l = float(np.linalg.norm(g + A.T @ lam_ls))
    if not grad_l <= TOL_G * max(1.0, float(np.linalg.norm(g))):
        misses.append(f"|grad L| {grad_l:.3e} too large")

    H = np.asarray(callbacks["objective_hessian"](x), dtype=float).copy()
    for li, Hi in zip(lam_ls, callbacks["constraint_hessians"](x)):
        H += li * np.asarray(Hi, dtype=float)
    H = 0.5 * (H + H.T)
    Z = _null_basis(A)
    lam_min = float(np.linalg.eigvalsh(Z.T @ H @ Z)[0])
    if not lam_min >= -TOL_H * max(1.0, float(np.linalg.norm(H, np.inf))):
        misses.append(f"reduced Hessian has eigenvalue {lam_min:.3e}")

    if "x_star" in expect:
        dist = min(float(np.linalg.norm(x - xs)) for xs in expect["x_star"])
        if not dist <= TOL_X:
            misses.append(f"distance {dist:.3e} to the reference minimizer")
    if "lam_star" in expect:
        err = float(np.linalg.norm(lam_ls - expect["lam_star"]))
        if not err <= TOL_LAM * max(1.0, float(np.linalg.norm(expect["lam_star"]))):
            misses.append(f"multipliers {err:.3e} from the reference")
    if "rayleigh" in expect:
        Q, B = expect["rayleigh"]
        ZB = _null_basis(B)
        f_star = float(np.linalg.eigvalsh(ZB.T @ Q @ ZB)[0])
        f = float(callbacks["objective"](x))
        if not abs(f - f_star) <= TOL_F * max(1.0, abs(f_star)):
            misses.append(f"objective {f!r} differs from lambda_min {f_star!r}")
    return misses


def check_derivatives(callbacks: dict, x, m: int) -> list:
    """Central-difference check of all four derivative callbacks at ``x``."""
    x = np.asarray(x, dtype=float)
    n = x.size
    h = FD_STEP

    def central(fun):
        cols = []
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            cols.append((np.asarray(fun(x + e), dtype=float)
                         - np.asarray(fun(x - e), dtype=float)) / (2.0 * h))
        return np.stack(cols, axis=-1)

    def miss(label, approx, exact):
        exact = np.asarray(exact, dtype=float)
        err = float(np.max(np.abs(approx - exact))) / max(1.0, float(np.max(np.abs(exact))))
        return [f"{label} off by {err:.3e} from central differences"] if not err <= FD_TOL else []

    cb = callbacks
    out = miss("gradient", central(lambda y: np.array(float(cb["objective"](y)))),
               cb["gradient"](x))
    out += miss("objective_hessian", central(cb["gradient"]), cb["objective_hessian"](x))
    out += miss("jacobian", central(cb["constraints"]), np.reshape(cb["jacobian"](x), (m, n)))
    # Column j of every constraint Hessian from one jacobian difference.
    exact = np.stack([np.asarray(Hi, dtype=float) for Hi in cb["constraint_hessians"](x)])
    worst = 0.0
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        col = (np.reshape(cb["jacobian"](x + e), (m, n))
               - np.reshape(cb["jacobian"](x - e), (m, n))) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(col - exact[:, :, j]))))
    err = worst / max(1.0, float(np.max(np.abs(exact))))
    if not err <= FD_TOL:
        out.append(f"constraint_hessians off by {err:.3e} from central differences")
    return out
