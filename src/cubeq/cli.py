"""Command-line front end: solve, audit.

Exit codes are stable so scripts can dispatch on them:

    0   converged to a second-order point (or audit found nothing)
    10  first-order point only (budget exhausted)
    11  budget exhausted, not stationary
    12  constraint Jacobian lost rank
    13  numerical failure inside the solver
    14  unknown catalog problem
    15  bad configuration, start point or trace path
    16  audit reported violations
    17  trace file unreadable or malformed
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import sys

import click
import numpy as np

from . import diagnostics, trace_io
from .driver import (CONVERGED_FOSP, CONVERGED_SOSP, LICQ_FAILURE,
                     MAX_ITERATIONS, NUMERICAL_ERROR, SolverConfig, solve)
from .errors import ConfigError, TraceError, UnknownProblem
from .problems import builtin_problem

EXIT_BY_STATUS = {
    CONVERGED_SOSP: 0,
    CONVERGED_FOSP: 10,
    MAX_ITERATIONS: 11,
    LICQ_FAILURE: 12,
    NUMERICAL_ERROR: 13,
}
EXIT_UNKNOWN_PROBLEM = 14
EXIT_CONFIG = 15
EXIT_VIOLATIONS = 16
EXIT_BAD_TRACE = 17


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _build_config(overrides, eps) -> SolverConfig:
    """``--eps`` as all three tolerances, then the ``--set`` pairs; later pairs win."""
    values = {} if eps is None else dict.fromkeys(("eps_g", "eps_c", "eps_h"), eps)
    kinds = {f.name: type(f.default) for f in dataclasses.fields(SolverConfig)}
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        if key not in kinds:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            values[key] = kinds[key](raw)
        except ValueError:
            raise ConfigError(f"cannot parse {raw!r} for config key {key!r}") from None
    return SolverConfig(**values)


@contextlib.contextmanager
def _setup_errors():
    """Exit 14 on an unknown problem and 15 on a bad configuration."""
    try:
        yield
    except UnknownProblem as exc:
        _fail(str(exc), EXIT_UNKNOWN_PROBLEM)
    except ConfigError as exc:
        _fail(str(exc), EXIT_CONFIG)


def _setup(problem_name, x0, overrides, eps, trace) -> tuple:
    """The problem, the start and the configuration, all made, and so checked,
    before the solve; so is the directory of the ``trace`` path, which must be
    writable."""
    with _setup_errors():
        problem = builtin_problem(problem_name)
        config = _build_config(overrides, eps)
        try:
            start = None if x0 is None else np.array(
                [float(tok) for tok in x0.split(",") if tok.strip()])
        except ValueError:
            raise ConfigError(f"--x0 expects a comma-separated float list, got {x0!r}") from None
        if start is not None and len(start) != problem.n:
            raise ConfigError(f"--x0 has {len(start)} entries, {problem.name} needs {problem.n}")
        if start is not None and not np.isfinite(start).all():
            raise ConfigError(f"--x0 must be finite, got {x0!r}")
        if trace is not None and not os.access(os.path.dirname(os.path.abspath(trace)), os.W_OK):
            raise ConfigError(f"cannot write --trace {trace}: no writable directory")
        return problem, start, config


def _echo_violations(violations):
    for v in violations:
        click.echo(f"violation k={v.k} {v.code}: value={v.value:.9g} "
                   f"bound={v.bound:.9g} ({v.message})")


def _summary_line(problem_name, result):
    report = result.final_report
    grad = f"{report.grad_lagrangian_norm:.3e}" if report else "nan"
    c_l1 = f"{report.c_l1:.3e}" if report else "nan"
    lam_min = f"{report.lambda_min_red:.3e}" if report else "nan"
    return (f"problem={problem_name} status={result.status} "
            f"iterations={result.iterations} accepted={result.counts.accepted} "
            f"corrections={result.counts.corrections} "
            f"grad_lagrangian={grad} c_l1={c_l1} lambda_min={lam_min}")


@click.group()
def main():
    """Equality-constrained solver with adaptive cubic regularization."""


@main.command("solve")
@click.option("--problem", "problem_name", required=True, help="Catalog problem name.")
@click.option("--x0", default=None, metavar="V1,V2,...",
              help="Start point (default: the problem's).")
@click.option("--eps", type=float, default=None,
              help="Set eps_g, eps_c and eps_h at once (a later --set of one wins).")
@click.option("--audit", "audit_flag", is_flag=True,
              help="Check every iteration against the full invariant suite.")
@click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
              help="Set any SolverConfig field (repeatable; later pairs win).")
@click.option("--trace", "trace_path", default=None,
              type=click.Path(dir_okay=False),
              help="Write a line-delimited JSON trace of the run.")
def cmd_solve(problem_name, x0, eps, audit_flag, overrides, trace_path):
    """Run the solver on one catalog problem."""
    problem, start, config = _setup(problem_name, x0, overrides, eps, trace_path)
    result = solve(problem, start, config)
    violations = diagnostics.audit_run(problem, result.history, config) if audit_flag else []
    if trace_path is not None:
        x_start = problem.default_start if start is None else start
        try:
            trace_io.write_trace(trace_path, problem.name, x_start, config, result, violations)
        except OSError as exc:
            _fail(f"cannot write --trace {trace_path}: {exc.strerror or exc}", EXIT_CONFIG)
    click.echo(_summary_line(problem.name, result))
    _echo_violations(violations)
    if result.message:
        click.echo(result.message)
    code = EXIT_BY_STATUS[result.status]
    if violations:
        code = EXIT_VIOLATIONS
    sys.exit(code)


@main.command("audit")
@click.argument("trace_path", type=click.Path(dir_okay=False))
def cmd_audit(trace_path):
    """Replay the invariant audit over a previously written trace file."""
    with _setup_errors():  # an out-of-range header config is a ConfigError
        try:
            data = trace_io.read_trace(trace_path)
        except (OSError, TraceError) as exc:
            _fail(str(exc), EXIT_BAD_TRACE)
        problem = builtin_problem(data.problem_name)

    violations = diagnostics.audit_run(problem, data.records, data.config)
    _echo_violations(violations)
    click.echo(f"audited {len(data.records)} iterations: "
               f"{len(violations)} violations")
    sys.exit(0 if not violations else EXIT_VIOLATIONS)


if __name__ == "__main__":
    main()
