"""A corpus of 200 seeded random problems beyond the 2-D and 4-D catalog.

Problem ``seed`` has n in 3..8 variables and m in 1..n-1 constraints,

    min  x^T Q x / 2 + q^T x + sum_i a_i x_i^4 / 4
    s.t. x^T P_k x / 2 + B_k x - b_k = 0,   k = 1..m,

with Q and P_k random symmetric, a > 0 so f is bounded below, b set so a
random point is feasible, and a random start.  A run may end in three ways
only: at a second-order point, re-verified here with numpy alone; with a LICQ
failure; or out of iterations at an infeasible point, where the Jacobian's
condition number has grown past what the method's LICQ assumption covers.
Never with a numerical error.
"""

import numpy as np

from cubeq.diagnostics import audit_run
from cubeq.driver import (CONVERGED_SOSP, LICQ_FAILURE, MAX_ITERATIONS,
                          SolverConfig, solve)
from cubeq.problems import Problem

SEEDS = range(200)
MIN_CONVERGED = 190  # 192 of the 200 reach a second-order point


def _corpus_problem(seed):
    """The seeded problem and the data to re-check its answer with."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    m = int(rng.integers(1, n))

    def sym(M):
        return 0.5 * (M + M.T)

    Q, q = sym(rng.standard_normal((n, n))), rng.standard_normal(n)
    a = rng.uniform(0.1, 1.0, n)
    P = np.stack([sym(rng.standard_normal((n, n))) for _ in range(m)])
    B = rng.standard_normal((m, n))
    x_feasible = rng.standard_normal(n)
    b = 0.5 * np.einsum("i,kij,j->k", x_feasible, P, x_feasible) + B @ x_feasible
    x0 = rng.standard_normal(n)

    def constraints(x):
        return 0.5 * np.einsum("i,kij,j->k", x, P, x) + B @ x - b

    problem = Problem(
        name=f"corpus_{seed}", n=n, m=m,
        objective=lambda x: 0.5 * x @ Q @ x + q @ x + 0.25 * a @ x**4,
        gradient=lambda x: Q @ x + q + a * x**3,
        objective_hessian=lambda x: Q + np.diag(3.0 * a * x**2),
        constraints=constraints,
        jacobian=lambda x: P @ x + B,
        constraint_hessians=lambda x: list(P),
        default_start=x0,
    )
    return problem, (Q, q, a, P, B, constraints)


def test_corpus_outcomes():
    config = SolverConfig(max_iter=300)
    converged, wrong = 0, []
    for seed in SEEDS:
        problem, (Q, q, a, P, B, constraints) = _corpus_problem(seed)
        result = solve(problem, config=config)
        x = result.x_final
        c_l1 = float(np.sum(np.abs(constraints(x))))
        if result.status == CONVERGED_SOSP:
            lam = result.lambda_final
            A = P @ x + B
            g = Q @ x + q + a * x**3
            H = Q + np.diag(3.0 * a * x**2) + np.einsum("k,kij->ij", lam, P)
            Z = np.linalg.svd(A)[2][problem.m:].T
            lam_min = float(np.linalg.eigvalsh(Z.T @ H @ Z)[0])
            ok = (np.linalg.norm(g + A.T @ lam) <= config.eps_g
                  and c_l1 <= config.eps_c and lam_min >= -config.eps_h)
            converged += ok
        else:
            ok = (result.status == LICQ_FAILURE
                  or (result.status == MAX_ITERATIONS and c_l1 > config.eps_c))
        if not ok:
            wrong.append((seed, result.status, result.message))
    assert wrong == []
    assert converged >= MIN_CONVERGED


STALLED = (13, 27, 82, 114, 118, 133, 197, 198)  # the seeds that end with max_iterations


def test_stalled_runs_audit_clean():
    """The stalls reach cond(A) past 1e7, mu past 1e9 and beta near 1e-16: exact
    solves and sums carry rounding of that size, within the audit's floors."""
    config = SolverConfig(max_iter=300)
    for seed in STALLED:
        problem, _ = _corpus_problem(seed)
        result = solve(problem, config=config)
        assert result.status == MAX_ITERATIONS
        assert audit_run(problem, result.history, config) == [], seed
