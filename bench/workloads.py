"""Seeded inputs of the three workloads.

A workload is a fixed list of cases.  One round of the benchmark solves every
case once, in order, and a run repeats whole rounds, so every round of a run
does exactly the same work.  All random data comes from ``--seed``.

Problems are returned as plain callback tables (``Spec``) so that the runner
can wrap each callback with a counter before handing it to ``cubeq.Problem``.
Each case also carries the reference answer the checker compares against;
the references are derived here, with numpy, never by the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

CALLBACKS = ("objective", "gradient", "objective_hessian",
             "constraints", "jacobian", "constraint_hessians")

CATALOG = ("circle_quadratic", "linear_eq_quadratic", "maratos",
           "rosenbrock_sphere", "saddle_escape")

# Seeded starts per catalog problem on `small`; the spread is relative to
# max(1, |default start|_inf).
SMALL_SEEDED_STARTS = 6
SMALL_START_SPREAD = 0.1

WIDE_N = 300
WIDE_M = WIDE_N // 4  # the sphere plus 74 linear rows
WIDE_INSTANCES = 4

CURVED_N = 300
CURVED_STARTS = 24
CURVED_START_SPREAD = 0.1

_STREAM = {"small": 1, "wide": 2, "curved": 3}


@dataclass
class Spec:
    """A problem as a callback table, in the shape ``cubeq.Problem`` takes."""

    name: str
    n: int
    m: int
    callbacks: dict  # CALLBACKS -> callable
    default_start: np.ndarray


@dataclass
class Case:
    label: str
    spec: Spec
    x0: np.ndarray
    # Checker expectations beyond the second-order conditions:
    #   x_star: admissible minimizers; lam_star: their multipliers;
    #   rayleigh: (Q, B), whose projected lambda_min is the optimal value
    expect: dict = field(default_factory=dict)
    # Derivative-check point, set on the first case of each distinct problem.
    fd_point: Optional[np.ndarray] = None


def _spec_from_problem(problem) -> Spec:
    return Spec(name=problem.name, n=problem.n, m=problem.m,
                callbacks={k: getattr(problem, k) for k in CALLBACKS},
                default_start=np.array(problem.default_start, dtype=float))


def _catalog_expect(name: str, spec: Spec) -> dict:
    """Closed-form solutions of the built-in problems."""
    if name == "circle_quadratic":
        return {"x_star": [np.array([-1.0, 0.0])], "lam_star": np.array([0.5])}
    if name == "maratos":
        return {"x_star": [np.array([1.0, 0.0])], "lam_star": np.array([-1.5])}
    if name == "rosenbrock_sphere":
        return {"x_star": [np.array([1.0, 1.0])], "lam_star": np.array([0.0])}
    if name == "saddle_escape":
        return {"x_star": [np.array([0.0, 1.0]), np.array([0.0, -1.0])],
                "lam_star": np.array([0.0])}
    if name == "linear_eq_quadratic":
        # Quadratic objective, affine constraints: read the data off the
        # callbacks at 0 and solve the KKT system.
        cb, n, m = spec.callbacks, spec.n, spec.m
        zero = np.zeros(n)
        Q = np.asarray(cb["objective_hessian"](zero), dtype=float)
        q = np.asarray(cb["gradient"](zero), dtype=float)
        B = np.asarray(cb["jacobian"](zero), dtype=float)
        b = -np.asarray(cb["constraints"](zero), dtype=float)
        kkt = np.block([[Q, B.T], [B, np.zeros((m, m))]])
        sol = np.linalg.solve(kkt, np.concatenate([-q, b]))
        return {"x_star": [sol[:n]], "lam_star": sol[n:]}
    raise KeyError(name)


def log_barrier() -> Spec:
    """min -log x1 + 10 x1 + x2^2  s.t.  x1 = x2, started at (0.9, 0.9).

    The objective is NaN outside its domain x1 > 0.
    """
    return Spec(
        name="log_barrier", n=2, m=1,
        callbacks={
            "objective": lambda x: ((-math.log(x[0]) if x[0] > 0.0 else math.nan)
                                    + 10.0 * x[0] + x[1] ** 2),
            "gradient": lambda x: np.array([-1.0 / x[0] + 10.0, 2.0 * x[1]]),
            "objective_hessian": lambda x: np.array([[1.0 / x[0] ** 2, 0.0],
                                                     [0.0, 2.0]]),
            "constraints": lambda x: np.array([x[0] - x[1]]),
            "jacobian": lambda x: np.array([[1.0, -1.0]]),
            "constraint_hessians": lambda x: [np.zeros((2, 2))],
        },
        default_start=np.array([0.9, 0.9]),
    )


def _log_barrier_expect() -> dict:
    # On x1 = x2 = t: 2t^2 + 10t - 1 = 0; stationarity in x2 gives lam = 2t.
    t = (-10.0 + math.sqrt(108.0)) / 4.0
    return {"x_star": [np.array([t, t])], "lam_star": np.array([2.0 * t])}


def small(rng: np.random.Generator, cubeq) -> list:
    cases = []
    for name in CATALOG:
        spec = _spec_from_problem(cubeq.builtin_problem(name))
        x_def = spec.default_start
        cases.append(Case(f"{name}/default", spec, x_def.copy(),
                          expect=_catalog_expect(name, spec),
                          fd_point=x_def + 0.05 * rng.standard_normal(spec.n)))
        scale = SMALL_START_SPREAD * max(1.0, float(np.max(np.abs(x_def))))
        for i in range(SMALL_SEEDED_STARTS):
            x0 = x_def + scale * rng.standard_normal(spec.n)
            cases.append(Case(f"{name}/seeded{i}", spec, x0))
    spec = log_barrier()
    cases.append(Case("log_barrier/default", spec, spec.default_start.copy(),
                      expect=_log_barrier_expect(),
                      fd_point=np.array([0.9, 0.9]) + 0.05 * rng.standard_normal(2)))
    return cases


def projected_rayleigh(rng: np.random.Generator, n: int, m: int, label: str) -> Case:
    """min x^T Q x  s.t.  |x|^2 = 1, B x = 0, with B of m - 1 random rows.

    Q = V diag(ev) V^T has a spectral gap: eigenvalue 0, then the rest in
    [1, 10].  The optimal value is the smallest eigenvalue of Q compressed
    to null(B), which the checker computes with numpy.  The start is a
    random point of the sphere, infeasible for B.
    """
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    ev = np.concatenate([[0.0], rng.uniform(1.0, 10.0, n - 1)])
    Q = (V * ev) @ V.T
    Q = 0.5 * (Q + Q.T)
    B = rng.standard_normal((m - 1, n))
    x0 = rng.standard_normal(n)
    x0 /= np.linalg.norm(x0)

    def constraint_hessians(x):
        # m freshly allocated (n, n) arrays per call, as the Problem
        # interface asks of a caller.
        return [2.0 * np.eye(n)] + [np.zeros((n, n)) for _ in range(m - 1)]

    spec = Spec(
        name="projected_rayleigh", n=n, m=m,
        callbacks={
            "objective": lambda x: float(x @ Q @ x),
            "gradient": lambda x: 2.0 * (Q @ x),
            "objective_hessian": lambda x: 2.0 * Q,
            "constraints": lambda x: np.concatenate([[x @ x - 1.0], B @ x]),
            "jacobian": lambda x: np.vstack([2.0 * x, B]),
            "constraint_hessians": constraint_hessians,
        },
        default_start=x0,
    )
    return Case(label, spec, x0.copy(), expect={"rayleigh": (Q, B)}, fd_point=x0.copy())


def wide(rng: np.random.Generator, cubeq) -> list:
    return [projected_rayleigh(rng, WIDE_N, WIDE_M, f"projected_rayleigh/{i}")
            for i in range(WIDE_INSTANCES)]


def chained_rosenbrock_sphere(n: int) -> Spec:
    """sum_i 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2  s.t.  |x|^2 = n."""

    def objective(x):
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    def gradient(x):
        t = x[1:] - x[:-1] ** 2
        g = np.zeros(n)
        g[:-1] = -400.0 * x[:-1] * t - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * t
        return g

    def objective_hessian(x):
        H = np.zeros((n, n))
        i = np.arange(n - 1)
        H[i, i] = 1200.0 * x[:-1] ** 2 - 400.0 * x[1:] + 2.0
        H[i + 1, i + 1] += 200.0
        H[i, i + 1] = H[i + 1, i] = -400.0 * x[:-1]
        return H

    return Spec(
        name="chained_rosenbrock_sphere", n=n, m=1,
        callbacks={
            "objective": objective,
            "gradient": gradient,
            "objective_hessian": objective_hessian,
            "constraints": lambda x: np.array([x @ x - n]),
            "jacobian": lambda x: 2.0 * x[None, :],
            "constraint_hessians": lambda x: [2.0 * np.eye(n)],
        },
        # The warm-up start: away from the solution, the same for every seed.
        default_start=1.0 + 0.1 * np.cos(np.arange(n)),
    )


def curved(rng: np.random.Generator, cubeq) -> list:
    spec = chained_rosenbrock_sphere(CURVED_N)
    cases = []
    for i in range(CURVED_STARTS):
        x0 = np.ones(CURVED_N) + CURVED_START_SPREAD * rng.standard_normal(CURVED_N)
        cases.append(Case(f"chained_rosenbrock_sphere/{i}", spec, x0,
                          expect={"x_star": [np.ones(CURVED_N)],
                                  "lam_star": np.zeros(1)},
                          fd_point=x0.copy() if i == 0 else None))
    return cases


BUILDERS: dict = {"small": small, "wide": wide, "curved": curved}


def build(workload: str, seed: int, cubeq) -> list:
    rng = np.random.default_rng([seed, _STREAM[workload]])
    return BUILDERS[workload](rng, cubeq)
