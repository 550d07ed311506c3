"""Equality-constrained smooth optimization via adaptive cubic regularization.

Steps decompose into a normal part that contracts the linearized constraints
and a tangential part that globally minimizes a cubic-regularized model on
the constraint null space; an l1 penalty with a one-way ratchet arbitrates
acceptance, and near-feasible rejected steps get one second-order correction.
``audit_run`` checks every iteration of a finished run against the method's
per-iteration invariants, beside ``solve`` or replayed from a trace file.
"""

from .diagnostics import (FDReport, RateReport, Violation, audit_iteration,
                          audit_run, convergence_rate, finite_difference_check,
                          rebuild_context)
from .driver import (CONVERGED_FOSP, CONVERGED_SOSP, LICQ_FAILURE,
                     MAX_ITERATIONS, NUMERICAL_ERROR, SUCCESSFUL, UNSUCCESSFUL,
                     VERY_SUCCESSFUL, Counts, IterationRecord, SolveResult,
                     SolverConfig, StationarityReport, solve)
from .errors import (ConfigError, CubeqError, InsufficientHistory,
                     NonFiniteValue, NonpositivePredictedReduction,
                     RankDeficient, ResidualConditionUnmet, SecularSolveFailed,
                     TraceError, UnknownProblem)
from .problems import (EvalPoint, Problem, builtin_problem, evaluate,
                       lagrangian_hessian, problem_names)
from .trace_io import TraceData, read_trace, write_trace

__version__ = "0.1.0"

__all__ = [
    "CONVERGED_FOSP", "CONVERGED_SOSP", "LICQ_FAILURE", "MAX_ITERATIONS",
    "NUMERICAL_ERROR", "SUCCESSFUL", "UNSUCCESSFUL", "VERY_SUCCESSFUL",
    "ConfigError", "Counts", "CubeqError", "EvalPoint", "FDReport",
    "InsufficientHistory", "IterationRecord", "NonFiniteValue",
    "NonpositivePredictedReduction", "Problem", "RankDeficient",
    "RateReport", "ResidualConditionUnmet", "SecularSolveFailed",
    "SolveResult", "SolverConfig", "StationarityReport", "TraceData",
    "TraceError", "UnknownProblem", "Violation", "audit_iteration",
    "audit_run", "builtin_problem", "convergence_rate", "evaluate",
    "finite_difference_check", "lagrangian_hessian", "problem_names",
    "read_trace", "rebuild_context", "solve", "write_trace",
]
