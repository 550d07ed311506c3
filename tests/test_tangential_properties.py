"""Property tests: solve_cubic returns the global minimizer in 1 to 50 dimensions.

A step p with r = |p| globally minimizes the cubic model exactly when

    (H + sigma r I) p = -g   and   lambda_min(H) + sigma r >= 0.

The drawn models cover what makes the secular equation hard: repeated
leftmost eigenvalues, true hard cases (g orthogonal to the leftmost
eigenspace), near-hard cases (a small leftmost component) and tiny gradients.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeq.tangential import ReducedHessian
from helpers import assert_global_minimizer, solve_with_radius

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


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(cubic_models())
def test_solution_satisfies_global_optimality(case):
    kind, g, H, sigma = case
    assert_global_minimizer(g, H, sigma, *solve_with_radius(ReducedHessian(H), g, sigma), kind)
