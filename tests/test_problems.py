"""Catalog well-formedness, point evaluation, and the Lagrangian Hessian."""

import dataclasses

import numpy as np
import pytest

from cubeq.errors import NonFiniteValue, UnknownProblem
from cubeq.problems import (EvalPoint, Problem, builtin_problem, complete_point,
                            evaluate, evaluate_trial, lagrangian_hessian,
                            problem_names)

ALL_NAMES = ["circle_quadratic", "linear_eq_quadratic", "maratos",
             "rosenbrock_sphere", "saddle_escape"]


class TestCatalog:
    def test_names_sorted_and_complete(self):
        assert problem_names() == ALL_NAMES

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownProblem, match="circle_quadratic"):
            builtin_problem("nope")

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_shapes_at_default_start(self, name):
        p = builtin_problem(name)
        assert 1 <= p.m < p.n
        point = evaluate(p, p.default_start)
        assert point.x.shape == (p.n,)
        assert point.g.shape == (p.n,)
        assert point.c.shape == (p.m,)
        assert point.A.shape == (p.m, p.n)
        assert point.f_hess.shape == (p.n, p.n)
        assert len(point.c_hess) == p.m
        assert point.c_l1 == pytest.approx(np.sum(np.abs(point.c)), abs=0)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_known_solution_is_stationary(self, name):
        """g + A^T lam = 0, c = 0, and nonnegative reduced curvature at x*."""
        p = builtin_problem(name)
        x_star, lam_star = p.known_solution
        point = evaluate(p, x_star)
        assert np.linalg.norm(point.g + point.A.T @ lam_star) <= 1e-8
        assert point.c_l1 <= 1e-12
        H = lagrangian_hessian(point, lam_star)
        # null-space basis straight from the SVD for the curvature check
        _, _, vt = np.linalg.svd(point.A)
        Z = vt[p.m:].T
        assert np.linalg.eigvalsh(Z.T @ H @ Z)[0] >= -1e-10


class TestEvaluate:
    def test_wrong_x_length(self):
        p = builtin_problem("circle_quadratic")
        with pytest.raises(ValueError, match="shape"):
            evaluate(p, np.zeros(3))

    def test_non_finite_objective(self):
        p = builtin_problem("circle_quadratic")
        bad = Problem(
            name="bad", n=p.n, m=p.m,
            objective=lambda x: float("nan"),
            gradient=p.gradient, objective_hessian=p.objective_hessian,
            constraints=p.constraints, jacobian=p.jacobian,
            constraint_hessians=p.constraint_hessians,
            default_start=p.default_start,
        )
        with pytest.raises(NonFiniteValue):
            evaluate(bad, bad.default_start)

    def test_wrong_jacobian_shape(self):
        p = builtin_problem("circle_quadratic")
        bad = Problem(
            name="bad", n=p.n, m=p.m,
            objective=p.objective, gradient=p.gradient,
            objective_hessian=p.objective_hessian,
            constraints=p.constraints,
            jacobian=lambda x: np.zeros((2, 2)),
            constraint_hessians=p.constraint_hessians,
            default_start=p.default_start,
        )
        with pytest.raises(ValueError, match="jacobian"):
            evaluate(bad, bad.default_start)

    @pytest.mark.parametrize("kind, value, message", [
        ("gradient", np.zeros(3), "gradient"),
        ("objective_hessian", np.zeros((2, 3)), "objective hessian"),
        ("constraint_hessians", [np.zeros((2, 2))] * 2, "constraint hessians"),
    ])
    def test_wrong_derivative_shape(self, kind, value, message):
        bad = dataclasses.replace(builtin_problem("circle_quadratic"),
                                  **{kind: lambda x: value})
        with pytest.raises(ValueError, match=message):
            evaluate(bad, bad.default_start)

    def test_m_must_be_below_n(self):
        p = builtin_problem("circle_quadratic")
        with pytest.raises(ValueError, match="1 <= m < n"):
            Problem(
                name="square", n=2, m=2,
                objective=p.objective, gradient=p.gradient,
                objective_hessian=p.objective_hessian,
                constraints=p.constraints, jacobian=p.jacobian,
                constraint_hessians=p.constraint_hessians,
                default_start=p.default_start,
            )

    def test_eval_point_snapshot_is_independent(self):
        p = builtin_problem("circle_quadratic")
        x = np.array([0.3, 0.4])
        point = evaluate(p, x)
        x[0] = 99.0
        assert point.x[0] == 0.3


class TestTrialPoint:
    def _counted(self, p):
        calls = []

        def wrap(kind):
            fn = getattr(p, kind)
            return lambda x: calls.append(kind) or fn(x)

        kinds = ("objective", "gradient", "objective_hessian", "constraints",
                 "jacobian", "constraint_hessians")
        return Problem(name=p.name, n=p.n, m=p.m, default_start=p.default_start,
                       **{kind: wrap(kind) for kind in kinds}), calls

    def test_trial_calls_only_f_and_c(self):
        p, calls = self._counted(builtin_problem("maratos"))
        trial = evaluate_trial(p, np.array([0.3, 0.4]))
        assert sorted(calls) == ["constraints", "objective"]
        assert trial.f == p.objective(np.array([0.3, 0.4]))
        assert trial.c_l1 == abs(trial.c[0])

    def test_completion_adds_derivatives_only(self):
        base = builtin_problem("rosenbrock_sphere")
        p, calls = self._counted(base)
        x = np.array([0.7, -1.2])
        trial = evaluate_trial(p, x)
        calls.clear()
        point = complete_point(p, trial)
        assert sorted(calls) == ["constraint_hessians", "gradient", "jacobian",
                                 "objective_hessian"]
        full = evaluate(base, x)
        assert point.f == full.f and point.c_l1 == full.c_l1
        for name in ("x", "g", "c", "A", "f_hess"):
            np.testing.assert_array_equal(getattr(point, name), getattr(full, name))

    def test_trial_checks_finiteness_and_shape(self):
        p = builtin_problem("circle_quadratic")
        nan_c = Problem(name="bad", n=p.n, m=p.m, objective=p.objective,
                        gradient=p.gradient, objective_hessian=p.objective_hessian,
                        constraints=lambda x: np.array([np.inf]),
                        jacobian=p.jacobian, constraint_hessians=p.constraint_hessians,
                        default_start=p.default_start)
        with pytest.raises(NonFiniteValue):
            evaluate_trial(nan_c, nan_c.default_start)
        long_c = Problem(name="bad", n=p.n, m=p.m, objective=p.objective,
                         gradient=p.gradient, objective_hessian=p.objective_hessian,
                         constraints=lambda x: np.zeros(2),
                         jacobian=p.jacobian, constraint_hessians=p.constraint_hessians,
                         default_start=p.default_start)
        with pytest.raises(ValueError, match="constraints"):
            evaluate_trial(long_c, long_c.default_start)
        with pytest.raises(ValueError, match="shape"):
            evaluate_trial(p, np.zeros(3))


class TestLagrangianHessian:
    def test_formula_and_symmetry(self):
        """H = hess f + sum_i lam_i hess c_i, exactly symmetric."""
        rng = np.random.default_rng(3)
        p = builtin_problem("rosenbrock_sphere")
        for _ in range(20):
            x = rng.standard_normal(p.n)
            lam = rng.standard_normal(p.m)
            point = evaluate(p, x)
            H = lagrangian_hessian(point, lam)
            expected = point.f_hess + lam[0] * point.c_hess[0]
            np.testing.assert_allclose(H, 0.5 * (expected + expected.T),
                                       rtol=0, atol=1e-15)
            np.testing.assert_array_equal(H, H.T)

    def test_wrong_lambda_length(self):
        p = builtin_problem("circle_quadratic")
        point = evaluate(p, p.default_start)
        with pytest.raises(ValueError, match="lambda"):
            lagrangian_hessian(point, np.zeros(2))

    @staticmethod
    def _point(f_hess, c_hess):
        n, m = f_hess.shape[0], len(c_hess)
        return EvalPoint(x=np.zeros(n), f=0.0, g=np.zeros(n), c=np.zeros(m),
                         c_l1=0.0, A=np.zeros((m, n)), f_hess=f_hess,
                         c_hess=tuple(c_hess))

    @pytest.mark.parametrize("m,n", [(1, 5), (3, 40), (75, 300)])
    def test_bit_identical_to_reference_sum(self, m, n):
        rng = np.random.default_rng(100 + m)
        f_hess = rng.standard_normal((n, n))
        c_hess = [rng.standard_normal((n, n)) for _ in range(m)]
        lam = rng.standard_normal(m)
        F = f_hess + sum(li * Hi for li, Hi in zip(lam, c_hess))
        H = lagrangian_hessian(self._point(f_hess, c_hess), lam)
        assert np.array_equal(H, 0.5 * (F + F.T))

    def test_nan_under_zero_multiplier_raises(self):
        c_hess = [np.eye(3), np.zeros((3, 3)), np.eye(3)]
        c_hess[1][0, 2] = np.nan
        point = self._point(np.eye(3), c_hess)
        with pytest.raises(NonFiniteValue, match="Lagrangian Hessian"):
            lagrangian_hessian(point, np.array([0.5, 0.0, -1.0]))

    def test_inf_in_objective_hessian_raises(self):
        f_hess = np.eye(3)
        f_hess[1, 1] = np.inf
        point = self._point(f_hess, [np.eye(3)])
        with pytest.raises(NonFiniteValue, match="Lagrangian Hessian"):
            lagrangian_hessian(point, np.array([2.0]))

    def test_overflow_of_finite_inputs_raises(self):
        big = np.full((2, 2), 1e308)
        point = self._point(big, [big.copy(), big.copy()])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteValue,
                                                       match="Lagrangian Hessian"):
            lagrangian_hessian(point, np.array([1.0, 1.0]))
