"""Problems beyond the 2-D and 4-D catalog: a corpus of 200 seeded random
problems, and electrons on the sphere.

Problem ``seed`` has n in 3..8 variables and m in 1..n-1 constraints,

    min  x^T Q x / 2 + q^T x + sum_i a_i x_i^4 / 4
    s.t. x^T P_k x / 2 + B_k x - b_k = 0,   k = 1..m,

with Q and P_k random symmetric, a > 0 so f is bounded below, b set so a
random point is feasible, and a random start.  A run may end in three ways
only: at a second-order point, re-verified here with numpy alone; with a LICQ
failure; or out of iterations at an infeasible point, where the Jacobian's
condition number has grown past what the method's LICQ assumption covers.
Never with a numerical error.

Electrons on the sphere is problem 2 of COPS 3.0 (Dolan, More & Munson 2004):
N unit charges, n = 3N and m = N, with closed-form minimal energies at
N = 4, 6 and 12, and a KKT saddle at the regular N-gon on the equator.
"""

import math

import numpy as np
import pytest

from cubeq.diagnostics import audit_run
from cubeq.driver import (CONVERGED_SOSP, LICQ_FAILURE, MAX_ITERATIONS,
                          SolverConfig, solve)
from cubeq.problems import Problem
from helpers import assert_step_rule

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
        for rec in result.history:
            assert_step_rule(rec, config)
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


# Minimal energies: the tetrahedron, the octahedron and the icosahedron.
ELEC_ENERGY = {4: 3.674234614, 6: 9.985281374, 12: 49.165253058}
ELEC_RANDOM_STARTS = 4


def _elec_problem(N):
    """N electrons at x = (x_1..x_N, y_1..y_N, z_1..z_N), each |(x_i, y_i, z_i)| = 1;
    constraint i has the Hessian 2I on the three coordinates of electron i.  The
    callbacks are those of scipy's own COPS problem 2, shipped with its tests."""
    scipy_tests = pytest.importorskip("scipy.optimize.tests.test_minimize_constrained")
    elec = scipy_tests.Elec(n_electrons=N)
    constraint = elec.constr

    def constraint_hessians(x):
        hessians = [np.zeros((3 * N, 3 * N)) for _ in range(N)]
        for i, H in enumerate(hessians):
            H[i::N, i::N] = 2.0 * np.eye(3)
        return hessians

    return Problem(name=f"elec_{N}", n=3 * N, m=N, objective=elec.fun, gradient=elec.grad,
                   objective_hessian=elec.hess, constraints=constraint.fun,
                   jacobian=lambda x: constraint.jac(x).toarray(),
                   constraint_hessians=constraint_hessians, default_start=elec.x0)


def _elec_starts(N):
    """The regular N-gon on the equator, then points drawn uniformly on the sphere."""
    angles = 2.0 * math.pi * np.arange(N) / N
    rng = np.random.default_rng(N)
    starts = [np.concatenate([np.cos(angles), np.sin(angles), np.zeros(N)])]
    for _ in range(ELEC_RANDOM_STARTS):
        points = rng.standard_normal((N, 3))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        starts.append(points.T.ravel())
    return starts


@pytest.mark.parametrize("N", sorted(ELEC_ENERGY))
def test_elec_leaves_the_equator_for_the_minimal_energy(N):
    """From the equatorial N-gon, a KKT point with negative reduced curvature,
    and from random starts, every run ends at the minimal energy, audit-clean."""
    problem, config = _elec_problem(N), SolverConfig()
    for start, x0 in enumerate(_elec_starts(N)):
        result = solve(problem, x0, config)
        if start == 0:
            assert result.history[0].lambda_min_red < -config.eps_h
        assert result.status == CONVERGED_SOSP, (start, result.message)
        assert abs(problem.objective(result.x_final) - ELEC_ENERGY[N]) <= 1e-8, start
        assert audit_run(problem, result.history, config) == [], start


def test_elec_converges_quadratically():
    """Near the minimizer, which SO(3) rotations make non-isolated, the error
    e = |grad L| + |c|_1 of the records falls quadratically, with criterion 4's
    constant: e_{k+1} <= 1e3 e_k^2 on each accepted step from e_k in
    [1e-6, 1e-3], above the rounding floor.  The largest ratio is about 301
    (N = 12, fourth start)."""
    config = SolverConfig(eps_g=1e-12, eps_c=1e-12, eps_h=1e-12)
    steps = 0
    for N in sorted(ELEC_ENERGY):
        problem = _elec_problem(N)
        for start, x0 in enumerate(_elec_starts(N)):
            result = solve(problem, x0, config)
            assert result.status == CONVERGED_SOSP, (N, start)
            e = [r.grad_lagrangian_norm + r.c_l1 for r in [*result.history, result.final_report]]
            for k, record in enumerate(result.history):
                if record.accepted and 1e-6 <= e[k] <= 1e-3:
                    assert e[k + 1] <= 1e3 * e[k] ** 2, (N, start, k)
                    steps += 1
    assert steps >= 20
