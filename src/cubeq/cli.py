"""Command-line front end: solve, sweep, audit.

Exit codes are stable so scripts can dispatch on them:

    0   converged to a second-order point (or audit found nothing)
    10  first-order point only (budget exhausted)
    11  budget exhausted, not stationary
    12  constraint Jacobian lost rank
    13  numerical failure inside the solver
    14  unknown catalog problem
    15  bad configuration or arguments
    16  audit reported violations
    17  trace file unreadable or malformed
"""

from __future__ import annotations

import contextlib
import dataclasses
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


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}
_TOLERANCES = ("eps_g", "eps_c", "eps_h")  # what --eps and each --sweep value set


def _build_config(overrides, eps=None) -> SolverConfig:
    """``--eps`` as all three tolerances, then the ``--set`` pairs; later pairs win."""
    values = {} if eps is None else dict.fromkeys(_TOLERANCES, eps)
    kinds = {f.name: type(f.default) for f in dataclasses.fields(SolverConfig)}
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        if key not in kinds:
            raise ConfigError(f"unknown config key {key!r}")
        kind = kinds[key]
        try:
            values[key] = _BOOL_WORDS[raw.lower()] if kind is bool else kind(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"cannot parse {raw!r} for config key {key!r}") from None
    return SolverConfig(**values)


def _floats(flag: str, text: str) -> list:
    """The comma-separated floats given to ``flag``."""
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects a comma-separated float list, got {text!r}") from None


@contextlib.contextmanager
def _setup_errors():
    """Exit 14 on an unknown problem and 15 on a bad configuration."""
    try:
        yield
    except UnknownProblem as exc:
        _fail(str(exc), EXIT_UNKNOWN_PROBLEM)
    except ConfigError as exc:
        _fail(str(exc), EXIT_CONFIG)


def _setup(problem_name, x0, overrides, eps=None, sweep=None) -> tuple:
    """The problem, the start and every configuration the command runs (one per
    ``sweep`` tolerance), all made, and so checked, before the first solve."""
    with _setup_errors():
        problem = builtin_problem(problem_name)
        config = _build_config(overrides, eps)
        start = None if x0 is None else np.array(_floats("--x0", x0))
        if start is not None and len(start) != problem.n:
            raise ConfigError(f"--x0 has {len(start)} entries, {problem.name} needs {problem.n}")
        if sweep is None:
            return problem, start, [config]
        for item in overrides:
            if item.partition("=")[0] in _TOLERANCES:
                raise ConfigError(f"each --sweep value sets eps_g, eps_c and eps_h; "
                                  f"drop --set {item}")
        values = _floats("--sweep", sweep)
        if not values:
            raise ConfigError("--sweep needs at least one tolerance value")
        return problem, start, [dataclasses.replace(config, eps_g=v, eps_c=v, eps_h=v)
                                for v in values]


_PROBLEM = click.option("--problem", "problem_name", required=True, help="Catalog problem name.")
_X0 = click.option("--x0", default=None, metavar="V1,V2,...",
                   help="Start point (default: the problem's).")
_AUDIT = click.option("--audit", "audit_flag", is_flag=True,
                      help="Check every iteration against the full invariant suite.")
_SET = click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
                    help="Set any SolverConfig field (repeatable; later pairs win).")


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
@_PROBLEM
@_X0
@click.option("--eps", type=float, default=None,
              help="Set eps_g, eps_c and eps_h at once (a later --set of one wins).")
@_AUDIT
@_SET
@click.option("--trace", "trace_path", default=None,
              type=click.Path(dir_okay=False),
              help="Write a line-delimited JSON trace of the run.")
def cmd_solve(problem_name, x0, eps, audit_flag, overrides, trace_path):
    """Run the solver on one catalog problem."""
    problem, start, (config,) = _setup(problem_name, x0, overrides, eps=eps)
    result = solve(problem, start, config)
    violations = diagnostics.audit_run(problem, result.history, config) if audit_flag else []
    if trace_path is not None:
        x_start = problem.default_start if start is None else start
        trace_io.write_trace(trace_path, problem.name, x_start, config, result, violations)
    click.echo(_summary_line(problem.name, result))
    _echo_violations(violations)
    if result.message:
        click.echo(result.message)
    code = EXIT_BY_STATUS[result.status]
    if violations:
        code = EXIT_VIOLATIONS
    sys.exit(code)


@main.command("sweep")
@_PROBLEM
@click.option("--sweep", "sweep_values", required=True, metavar="V1,V2,...",
              help="Tolerance values; each run sets eps_g = eps_c = eps_h to one "
                   "(so --set of these is an error).")
@_X0
@_AUDIT
@_SET
def cmd_sweep(problem_name, sweep_values, x0, audit_flag, overrides):
    """Solve one problem at several tolerances; print a CSV table and the
    fitted log-log slope of accepted-iteration count against 1/eps."""
    problem, start, configs = _setup(problem_name, x0, overrides, sweep=sweep_values)
    worst = 0
    rows = []
    all_violations = []
    for config in configs:
        result = solve(problem, start, config)
        max_sigma = max((r.sigma for r in result.history), default=config.sigma0)
        final_mu = result.history[-1].mu if result.history else config.mu_init
        rows.append((config.eps_g, result.counts.accepted, result.iterations,
                     max_sigma, final_mu, result.status))
        if audit_flag:
            all_violations += diagnostics.audit_run(problem, result.history, config)
        worst = max(worst, EXIT_BY_STATUS[result.status])

    click.echo("eps,successful,total,max_sigma,final_mu,status")
    for eps_value, succ, total, max_sigma, final_mu, status in rows:
        click.echo("%.17g,%d,%d,%.17g,%.17g,%s"
                   % (eps_value, succ, total, max_sigma, final_mu, status))

    fit = [(e, k) for e, k, *_ in rows if k >= 1]
    if len({e for e, _ in fit}) >= 2:
        log_inv_eps = np.log([1.0 / e for e, _ in fit])
        log_k = np.log([float(k) for _, k in fit])
        slope = float(np.polyfit(log_inv_eps, log_k, 1)[0])
        click.echo(f"slope={slope:.6g}")
    else:
        click.echo("slope=undefined")

    _echo_violations(all_violations)
    if all_violations:
        worst = max(worst, EXIT_VIOLATIONS)
    sys.exit(worst)


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
