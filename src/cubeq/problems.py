"""Problem definitions and point evaluation.

A :class:`Problem` bundles callbacks for a smooth objective, a vector of
smooth equality constraints, and their first and second derivatives.  The
solver touches problems through two evaluations.  At a trial or corrected
point it needs only f and c for the merit test, so :func:`evaluate_trial`
calls just those two callbacks.  When such a point becomes the iterate,
:func:`complete_point` adds the gradient, the Jacobian and the Hessians
without calling f and c again.  :func:`evaluate` does both at once, for the
auditor and for callers that want everything at a point; either way the
result is an immutable :class:`EvalPoint`.  :func:`lagrangian_hessian`
combines the Hessians in one pass and checks the sum, not each, for finiteness.

``builtin_problem`` serves a small catalog of analytic test problems used by
the CLI and the test-suite.  Each entry carries a default start and, where a
closed form exists, the optimal primal/dual pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteValue, UnknownProblem

Array = np.ndarray


@dataclass
class Problem:
    """An equality-constrained minimization problem: min f(x) s.t. c(x) = 0."""

    name: str
    n: int
    m: int
    objective: Callable[[Array], float]
    gradient: Callable[[Array], Array]
    objective_hessian: Callable[[Array], Array]
    constraints: Callable[[Array], Array]
    jacobian: Callable[[Array], Array]  # (m, n); row i is the gradient of c_i
    constraint_hessians: Callable[[Array], list]  # m matrices, each (n, n)
    default_start: Array
    known_solution: Optional[tuple] = None  # (x_star, lambda_star) if available

    def __post_init__(self):
        if not 1 <= self.m < self.n:
            raise ValueError(f"need 1 <= m < n, got m={self.m}, n={self.n}")


@dataclass(frozen=True)
class TrialPoint:
    """Objective and constraint values at a point: all the merit test needs."""

    x: Array
    f: float
    c: Array
    c_l1: float


@dataclass(frozen=True)
class EvalPoint:
    """Everything the solver needs at an iterate; the Hessians are checked when combined."""

    x: Array
    f: float
    g: Array
    c: Array
    c_l1: float
    A: Array
    f_hess: Array
    c_hess: tuple  # tuple of m (n, n) arrays


def _check_finite(problem: Problem, x: Array, *values) -> None:
    for value in values:
        if not np.isfinite(value).all():
            raise NonFiniteValue(f"non-finite evaluation of '{problem.name}' at x={x}")


def evaluate_trial(problem: Problem, x) -> TrialPoint:
    """Evaluate only the objective and the constraints at ``x``.

    Raises :class:`NonFiniteValue` if either returns NaN or Inf, and
    ``ValueError`` on shape mismatches.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    n, m = problem.n, problem.m
    if x.shape != (n,):
        raise ValueError(f"x has shape {x.shape}, expected ({n},)")

    f = float(problem.objective(x))
    c = np.asarray(problem.constraints(x), dtype=float).reshape(-1)
    if c.shape != (m,):
        raise ValueError(f"constraints have shape {c.shape}, expected ({m},)")
    _check_finite(problem, x, f, c)
    return TrialPoint(x=x.copy(), f=f, c=c, c_l1=float(np.abs(c).sum()))


def complete_point(problem: Problem, trial: TrialPoint) -> EvalPoint:
    """Add the first and second derivatives at ``trial.x``; f and c are reused.

    Raises like :func:`evaluate`; the Hessians' finiteness is checked when they are combined.
    """
    x, n, m = trial.x, problem.n, problem.m
    g = np.asarray(problem.gradient(x), dtype=float).reshape(-1)
    A = np.asarray(problem.jacobian(x), dtype=float)
    f_hess = np.asarray(problem.objective_hessian(x), dtype=float)
    c_hess = tuple(np.asarray(Hi, dtype=float) for Hi in problem.constraint_hessians(x))

    if g.shape != (n,):
        raise ValueError(f"gradient has shape {g.shape}, expected ({n},)")
    if A.shape != (m, n):
        raise ValueError(f"jacobian has shape {A.shape}, expected ({m}, {n})")
    if f_hess.shape != (n, n):
        raise ValueError(f"objective hessian has shape {f_hess.shape}, expected ({n}, {n})")
    if len(c_hess) != m or any(Hi.shape != (n, n) for Hi in c_hess):
        raise ValueError("constraint hessians must be m matrices of shape (n, n)")
    _check_finite(problem, x, g, A)

    return EvalPoint(x=x, f=trial.f, g=g, c=trial.c, c_l1=trial.c_l1,
                     A=A, f_hess=f_hess, c_hess=c_hess)


def evaluate(problem: Problem, x) -> EvalPoint:
    """Evaluate all problem quantities at ``x``.

    Raises :class:`NonFiniteValue` if f, c, g or A holds NaN or Inf (the Hessians
    are checked by :func:`lagrangian_hessian`), and ``ValueError`` on bad shapes.
    """
    return complete_point(problem, evaluate_trial(problem, x))


def lagrangian_hessian(point: EvalPoint, lam) -> Array:
    """Hessian of the Lagrangian at ``point``: hess f + sum_i lam_i hess c_i.

    Summed in place and in that order; NaN or Inf in the sum (also 0 * NaN) raises
    :class:`NonFiniteValue`.  Exactly symmetrized for the downstream eigensolves.
    """
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if lam.shape != (len(point.c),):
        raise ValueError(f"lambda has shape {lam.shape}, expected ({len(point.c)},)")
    H = np.multiply(point.c_hess[0], lam[0])
    buf = np.empty_like(H)
    for li, Hi in zip(lam[1:], point.c_hess[1:]):
        H += np.multiply(Hi, li, out=buf)
    H += point.f_hess
    if not np.isfinite(H).all():
        raise NonFiniteValue(f"non-finite Lagrangian Hessian at x={point.x}")
    return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _circle_quadratic() -> Problem:
    # min x1  s.t.  x1^2 + x2^2 - 1 = 0.  Minimizer (-1, 0), multiplier 1/2.
    return Problem(
        name="circle_quadratic", n=2, m=1,
        objective=lambda x: x[0],
        gradient=lambda x: np.array([1.0, 0.0]),
        objective_hessian=lambda x: np.zeros((2, 2)),
        constraints=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 1.0]),
        jacobian=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        constraint_hessians=lambda x: [2.0 * np.eye(2)],
        default_start=np.array([0.5, 0.5]),
        known_solution=(np.array([-1.0, 0.0]), np.array([0.5])),
    )


# Convex quadratic with affine constraints; the unique minimizer solves the
# KKT system [[Q, B^T], [B, 0]] [x; lam] = [-q; b].
_LEQ_Q = np.array([
    [5.0, 1.0, 0.0, 0.0],
    [1.0, 4.0, 1.0, 0.0],
    [0.0, 1.0, 3.0, 1.0],
    [0.0, 0.0, 1.0, 2.0],
])
_LEQ_q = np.array([1.0, -2.0, 0.5, 1.0])
_LEQ_B = np.array([
    [1.0, 1.0, 1.0, 1.0],
    [1.0, -1.0, 0.0, 2.0],
])
_LEQ_b = np.array([1.0, 0.5])


def _linear_eq_quadratic() -> Problem:
    n, m = 4, 2
    kkt = np.block([[_LEQ_Q, _LEQ_B.T], [_LEQ_B, np.zeros((m, m))]])
    sol = np.linalg.solve(kkt, np.concatenate([-_LEQ_q, _LEQ_b]))
    return Problem(
        name="linear_eq_quadratic", n=n, m=m,
        objective=lambda x: 0.5 * x @ _LEQ_Q @ x + _LEQ_q @ x,
        gradient=lambda x: _LEQ_Q @ x + _LEQ_q,
        objective_hessian=lambda x: _LEQ_Q.copy(),
        constraints=lambda x: _LEQ_B @ x - _LEQ_b,
        jacobian=lambda x: _LEQ_B.copy(),
        constraint_hessians=lambda x: [np.zeros((n, n)) for _ in range(m)],
        default_start=np.zeros(n),
        known_solution=(sol[:n], sol[n:]),
    )


def _maratos() -> Problem:
    # min 2(x1^2 + x2^2 - 1) - x1  s.t.  x1^2 + x2^2 - 1 = 0.
    # Minimizer (1, 0) with multiplier -3/2.  Steps computed from points near
    # the circle curve away from it quadratically, so plain step acceptance
    # stalls unless a correction re-centers the trial point.
    return Problem(
        name="maratos", n=2, m=1,
        objective=lambda x: 2.0 * (x[0] ** 2 + x[1] ** 2 - 1.0) - x[0],
        gradient=lambda x: np.array([4.0 * x[0] - 1.0, 4.0 * x[1]]),
        objective_hessian=lambda x: 4.0 * np.eye(2),
        constraints=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 1.0]),
        jacobian=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        constraint_hessians=lambda x: [2.0 * np.eye(2)],
        default_start=np.array([0.9, 0.3]),
        known_solution=(np.array([1.0, 0.0]), np.array([-1.5])),
    )


def _rosenbrock_sphere() -> Problem:
    # Rosenbrock restricted to the circle of radius sqrt(2); the unconstrained
    # minimizer (1, 1) happens to be feasible, so lambda* = 0 and the reduced
    # Hessian there is strongly positive.  The default start is remote and
    # infeasible; its run passes through both feasibility restoration and a
    # long curved-valley stretch before the quadratic tail.
    def grad(x):
        return np.array([
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2),
        ])

    def hess(x):
        return np.array([
            [1200.0 * x[0] ** 2 - 400.0 * x[1] + 2.0, -400.0 * x[0]],
            [-400.0 * x[0], 200.0],
        ])

    return Problem(
        name="rosenbrock_sphere", n=2, m=1,
        objective=lambda x: 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2,
        gradient=grad,
        objective_hessian=hess,
        constraints=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 2.0]),
        jacobian=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        constraint_hessians=lambda x: [2.0 * np.eye(2)],
        default_start=np.array([2.0, 0.0]),
        known_solution=(np.array([1.0, 1.0]), np.array([0.0])),
    )


def _saddle_escape() -> Problem:
    # min x1^2 - x2^2 + x2^4/2  s.t.  x1 = 0.  The origin is feasible and
    # first-order stationary but the Lagrangian curvature along the feasible
    # line is -2; the minimizers are (0, +-1).  Starting at the origin forces
    # progress through the negative-curvature branch of the subproblem.
    return Problem(
        name="saddle_escape", n=2, m=1,
        objective=lambda x: x[0] ** 2 - x[1] ** 2 + 0.5 * x[1] ** 4,
        gradient=lambda x: np.array([2.0 * x[0], -2.0 * x[1] + 2.0 * x[1] ** 3]),
        objective_hessian=lambda x: np.array([
            [2.0, 0.0],
            [0.0, -2.0 + 6.0 * x[1] ** 2],
        ]),
        constraints=lambda x: np.array([x[0]]),
        jacobian=lambda x: np.array([[1.0, 0.0]]),
        constraint_hessians=lambda x: [np.zeros((2, 2))],
        default_start=np.zeros(2),
        known_solution=(np.array([0.0, 1.0]), np.array([0.0])),
    )


_CATALOG = {
    "circle_quadratic": _circle_quadratic,
    "linear_eq_quadratic": _linear_eq_quadratic,
    "maratos": _maratos,
    "rosenbrock_sphere": _rosenbrock_sphere,
    "saddle_escape": _saddle_escape,
}


def problem_names() -> list:
    return sorted(_CATALOG)


def builtin_problem(name: str) -> Problem:
    """Construct a catalog problem by name; raises :class:`UnknownProblem`."""
    try:
        factory = _CATALOG[name]
    except KeyError:
        raise UnknownProblem(
            f"unknown problem '{name}'; available: {', '.join(problem_names())}"
        ) from None
    return factory()
