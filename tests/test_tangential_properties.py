"""Property tests: solve_cubic returns the global minimizer in 1 to 50 dimensions.

A step p with r = |p| globally minimizes the cubic model exactly when

    (H + sigma r I) p = -g   and   lambda_min(H) + sigma r >= 0.

The drawn models cover what makes the secular equation hard: repeated
leftmost eigenvalues, true hard cases (g orthogonal to the leftmost
eigenspace), near-hard cases (a small leftmost component) and tiny gradients.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeq import tangential
from cubeq.tangential import ReducedCubicModel, ReducedHessian, solve_cubic

KINDS = ("generic", "hard", "near_hard", "tiny")


@st.composite
def cubic_models(draw):
    """(kind, g, H, sigma) with H = Q diag(lam) Q^T for a random orthogonal Q."""
    dim = draw(st.integers(1, 50))
    kind = draw(st.sampled_from(KINDS))
    repeats = draw(st.integers(1, min(3, dim)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    sigma = 10.0 ** draw(st.floats(-2.0, 2.0))
    lam = np.sort(rng.uniform(-5.0, 5.0, dim))
    if kind == "hard" and dim > repeats:
        lam[0] = -abs(lam[0]) - 0.5
    lam[1:repeats] = lam[0]
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    H = (Q * lam) @ Q.T
    H = 0.5 * (H + H.T)

    ghat = rng.standard_normal(dim)
    if kind == "hard" and dim > repeats:
        ghat[:repeats] = 0.0
    elif kind == "near_hard" and dim > repeats:
        ghat[:repeats] *= 10.0 ** draw(st.floats(-6.0, -3.0))
    elif kind == "tiny":
        ghat *= 10.0 ** draw(st.floats(-14.0, -8.0))
    return kind, Q @ ghat, H, sigma


def _solve_with_radius(model):
    """solve_cubic's step and the radius r of the shifted system it solved."""
    shifts = []
    secular_shift = tangential._secular_shift

    def spy(*args):
        t = secular_shift(*args)
        if t is not None:  # None: the root lies below the tridiagonal form's reach
            shifts.append(t)
        return t

    with mock.patch.object(tangential, "_secular_shift", spy):
        sol = solve_cubic(model, 0.1)
    # r = (max(0, -lam_min) + t) / sigma with the model's own lam_min; the
    # hard case pads at t = 0, and a tridiagonal solve that is redone in the
    # eigenbasis leaves the eigenbasis shift last
    floor = max(0.0, -model.hessian.lam_min)
    return sol, (floor + (shifts[-1] if shifts else 0.0)) / model.sigma


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(cubic_models())
def test_solution_satisfies_global_optimality(case):
    kind, g, H, sigma = case
    model = ReducedCubicModel(g, sigma, ReducedHessian(H))
    sol, r = _solve_with_radius(model)
    p = sol.p
    norm_p = float(np.linalg.norm(p))
    spectrum = np.linalg.eigvalsh(H)
    lam_min, norm_h = float(spectrum[0]), float(np.max(np.abs(spectrum)))
    # the size of the terms of (H + sigma r I) p + g
    scale = float(np.linalg.norm(g)) + (norm_h + sigma * r) * norm_p

    residual = float(np.linalg.norm(H @ p + sigma * r * p + g))
    assert residual <= 1e-12 * scale, kind
    assert abs(norm_p - r) <= 1e-12 * r, kind
    assert lam_min + sigma * r >= -1e-12 * max(1.0, abs(lam_min)), kind
    assert sol.delta_m >= sol.cauchy_delta_m - 1e-12 * max(1.0, abs(sol.delta_m)), kind
