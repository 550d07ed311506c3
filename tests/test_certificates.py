"""Residual certificates of the range-space solves and their rounding bound.

The normal step and the correction check |A v + rhs| against the paper's
allowance plus ``linalg.rounding_bound``.  An exact solve must pass on any
Jacobian the factorization accepts, however ill-conditioned; a solve that is
wrong well above rounding must not.  The audit's check of the same residual
allows the same floor.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeq import linalg
from cubeq.diagnostics import audit_run
from cubeq.driver import SolverConfig, solve
from cubeq.errors import ResidualConditionUnmet
from cubeq.linalg import compute_correction, compute_vc, factorize_jacobian, rounding_bound
from cubeq.problems import Problem
from helpers import perturb


def _jacobian(rng, m, n, singular_values):
    """U diag(s) V^T with random orthonormal U (m, m) and V (n, m)."""
    U, _ = np.linalg.qr(rng.standard_normal((m, m)))
    V, _ = np.linalg.qr(rng.standard_normal((n, m)))
    return (U * singular_values) @ V.T


@st.composite
def systems(draw):
    """(A, c) with cond(A) up to 1e9 and |c| from 1e-3 to 1e3."""
    n = draw(st.integers(2, 30))
    m = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-2.0, 2.0))
    log_cond = draw(st.floats(0.0, 9.0))
    s = scale * np.sort(10.0 ** -rng.uniform(0.0, log_cond, m))[::-1]
    s[0], s[-1] = scale, scale * 10.0**-log_cond
    c = rng.standard_normal(m)
    c *= 10.0 ** draw(st.floats(-3.0, 3.0)) / np.linalg.norm(c)
    return _jacobian(rng, m, n, s), c


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(systems())
def test_exact_solves_pass_their_certificates(system):
    A, c = system
    fact = factorize_jacobian(A)  # the default rank_tol, 1e-10, admits cond 1e9
    # r_v = r_w = 0: the rounding floor is the whole allowance
    compute_vc(fact, c, 0.0)
    compute_correction(fact, c, 0.0, 0.0)


@pytest.mark.parametrize("certify", [
    lambda fact, c: compute_vc(fact, c, 0.0),
    lambda fact, c: compute_correction(fact, c, 0.0, 0.0),
], ids=["compute_vc", "compute_correction"])
def test_solve_off_by_1e8_relative_is_caught(monkeypatch, certify):
    exact = linalg.range_least_squares
    monkeypatch.setattr(linalg, "range_least_squares",
                        lambda fact, rhs: (1.0 + 1e-8) * exact(fact, rhs))
    rng = np.random.default_rng(3)
    for m, n in [(1, 3), (2, 5), (4, 9)]:
        fact = factorize_jacobian(_jacobian(rng, m, n, np.linspace(2.0, 1.0, m)))
        with pytest.raises(ResidualConditionUnmet):
            certify(fact, rng.standard_normal(m))


def test_tighter_than_a_fixed_slack_when_well_conditioned():
    """On cond(A) <= 10 the bound is below the former 1e-11 max(1, |c|)."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, n))
        s = np.sort(rng.uniform(1.0, 10.0, m))[::-1] * 10.0 ** rng.uniform(-2.0, 2.0)
        fact = factorize_jacobian(_jacobian(rng, m, n, s))
        c = rng.standard_normal(m) * 10.0 ** rng.uniform(-3.0, 3.0)
        v, _ = compute_vc(fact, c, 0.0)
        bound = rounding_bound(fact, np.linalg.norm(v), np.linalg.norm(c))
        assert np.sqrt(m) * bound < 1e-11 * max(1.0, np.sum(np.abs(c)))
        assert bound < 1e-11 * max(1.0, np.linalg.norm(c))


def test_audit_allows_the_rounding_of_an_exact_correction():
    """At cond(A) = 1e9 and |c(x + d)| >= 1 an exact correction's residual
    exceeds 1e-9 |c(x + d)|; the audit allows the floor the solver certifies."""
    rng = np.random.default_rng(0)
    m, n = 4, 8
    A = _jacobian(rng, m, n, np.logspace(0.0, -9.0, m))
    b = 10.0 * rng.standard_normal(m)
    problem = Problem(name="ill_conditioned_linear", n=n, m=m,
                      objective=lambda x: 0.5 * x @ x, gradient=lambda x: x,
                      objective_hessian=lambda x: np.eye(n),
                      constraints=lambda x: A @ x - b, jacobian=lambda x: A,
                      constraint_hessians=lambda x: [np.zeros((n, n))] * m,
                      default_start=np.zeros(n))
    config = SolverConfig(max_iter=1)
    record = solve(problem, config=config).history[0]
    c_trial = problem.constraints(record.x + record.v + record.u)
    w = compute_correction(factorize_jacobian(A), c_trial, 0.0, 0.0)
    residual = np.linalg.norm(A @ w + c_trial)
    assert np.linalg.norm(c_trial) >= 1.0
    assert residual > 1e-9 * np.linalg.norm(c_trial)  # beyond the tolerance alone
    violations = audit_run(problem, [perturb(record, w=w)], config)
    assert "correction_residual" not in {v.code for v in violations}
