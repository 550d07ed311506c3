"""Benchmark of the cubeq solver on seeded workloads.

    python3 bench/run.py --workload small|wide|curved --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N --seconds S      # every workload, one process each

Run it from the repository root: it imports ``cubeq`` from ``src/`` there
and from nowhere else.  One operation is one solve in three timed steps:
``solve``, ``write_trace`` of the result, then ``read_trace`` and
``audit_run`` of that file.  A run repeats whole rounds of the workload's
operations until ``--seconds`` have passed, then checks every answer with
``checker`` and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``layers`` with ``--trace 1``.
"""

import os

# One BLAS thread, fixed before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

import numpy as np  # noqa: E402

import checker  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("small", "wide", "curved")
SETUP_REPEATS = 5
CONVERGED = "converged_sosp"
HESS_KINDS = ("objective_hessian", "constraint_hessians")

# Layers with a `<layer>.calls` and `<layer>.self_ms` metric each.
LAYERS = (
    "problems.evaluate", "problems.lagrangian_hessian",
    "linalg.factorize_jacobian", "linalg.reduce_matrix", "linalg.min_eig_reduced",
    "normal_step.assemble_normal", "multipliers.estimate_multipliers",
    "tangential.build_reduced_model", "tangential.solve_cubic",
    "merit", "correction.compute_correction", "driver.solve",
    "trace_io.write_trace", "trace_io.read_trace",
    "diagnostics.rebuild_context", "diagnostics.audit_iteration",
)
AUDIT_LAYERS = tuple(f"audit.{name}" for name in sorted(layers.SHARED))


def per_layer_names() -> list:
    """(name, unit) of every metric a traced run prints, in print order."""
    out = []
    for layer in LAYERS + AUDIT_LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_ms", "ms")]
    out += [(f"callbacks.{kind}.calls", "count") for kind in workloads.CALLBACKS]
    out += [("callbacks.self_ms", "ms"),
            ("audit.callbacks.calls", "count"), ("audit.callbacks.self_ms", "ms"),
            ("problems.evaluate.per_iteration", "count"),
            ("driver.accept_ratio", "ratio"), ("correction.accept_ratio", "ratio"),
            ("trace_io.write_trace.bytes", "B"), ("traced.solve_ms_p50", "ms")]
    return out


class Counter:
    """Calls of each problem callback."""

    def __init__(self):
        self.calls = dict.fromkeys(workloads.CALLBACKS, 0)

    def wrap(self, kind, fn):
        calls = self.calls

        def callback(x):
            calls[kind] += 1
            return fn(x)

        return callback


def import_cubeq():
    """Import ``cubeq`` afresh from ``src/``, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == "cubeq" or n.startswith("cubeq.")]:
        del sys.modules[name]
    if not (SRC / "cubeq" / "__init__.py").is_file():
        raise SystemExit(f"error: no cubeq package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cubeq = importlib.import_module("cubeq")
    if Path(cubeq.__file__).resolve().parent != SRC / "cubeq":
        raise SystemExit(f"error: imported cubeq from {cubeq.__file__}, not {SRC}")
    return cubeq


def set_up(workload, seed):
    """Import, build the problems and make one warm-up solve; returns the state."""
    cubeq = import_cubeq()
    cases = workloads.build(workload, seed, cubeq)
    counter = Counter()
    problems = {}
    for case in cases:
        spec = case.spec
        if id(spec) not in problems:
            wrapped = {k: counter.wrap(k, fn) for k, fn in spec.callbacks.items()}
            problems[id(spec)] = cubeq.Problem(name=spec.name, n=spec.n, m=spec.m,
                                               default_start=spec.default_start,
                                               **wrapped)
    ops = [(case, problems[id(case.spec)]) for case in cases]
    # Warm-up from the default start, which does not depend on the seed.
    cubeq.solve(ops[0][1])
    return cubeq, ops, counter


def trace_callbacks(tracer, ops):
    for problem in {id(p): p for _, p in ops}.values():
        for kind in workloads.CALLBACKS:
            setattr(problem, kind, tracer.wrap(f"callbacks.{kind}", getattr(problem, kind)))


def run_ops(cubeq, ops, counter, seconds, trace_path, tracer, traced):
    """Whole rounds of ``ops`` for about ``seconds``; one row per op.

    The first round always runs; another starts only if a round as long as
    the last one still ends within ``seconds``.

    ``tracer.step`` names the step being timed, for the spans of a traced run.
    """
    config = cubeq.SolverConfig()
    solve, write_trace = cubeq.solve, cubeq.write_trace
    read_trace, audit_run = cubeq.read_trace, cubeq.audit_run
    if traced:
        solve = tracer.wrap("driver.solve", solve)
        write_trace = tracer.wrap("trace_io.write_trace", write_trace)
        read_trace = tracer.wrap("trace_io.read_trace", read_trace)
    rows = []
    deadline = perf_counter() + seconds
    while True:
        round_start = perf_counter()
        for index, (case, problem) in enumerate(ops):
            before = dict(counter.calls)
            row = {"case": index}
            tracer.step = "solve"
            t0 = perf_counter_ns()
            try:
                result = solve(problem, case.x0)
            except Exception as exc:  # a crash is a failed operation, not a stop
                result = None
                row["error"] = f"solve raised {type(exc).__name__}: {exc}"
            t1 = perf_counter_ns()
            tracer.step = None
            row["solve_ns"] = t1 - t0
            row["evals"] = {k: counter.calls[k] - before[k] for k in counter.calls}
            if result is not None:
                row.update(collect(result))
                tracer.step = "write"
                t0 = perf_counter_ns()
                write_trace(trace_path, problem.name, case.x0, config, result)
                t1 = perf_counter_ns()
                tracer.step = "audit"
                data = read_trace(trace_path)
                violations = audit_run(problem, data.records, data.config)
                t2 = perf_counter_ns()
                tracer.step = None
                row.update(write_ns=t1 - t0, audit_ns=t2 - t1,
                           trace_bytes=trace_path.stat().st_size,
                           violations=[f"{v.code} at k={v.k}" for v in violations])
            rows.append(row)
        now = perf_counter()
        if now + (now - round_start) > deadline:  # the next round would overrun
            return rows


def collect(result):
    history = result.history
    return {
        "status": result.status,
        "message": result.message,
        "iterations": result.iterations,
        "accepted": sum(1 for r in history if r.accepted),
        "corrections": sum(1 for r in history if r.correction_computed),
        "corrections_accepted": sum(1 for r in history
                                    if r.correction_computed and r.accepted),
        "x": np.array(result.x_final, dtype=float),
        "lam": None if result.lambda_final is None
        else np.array(result.lambda_final, dtype=float),
    }


def check_rows(ops, rows, seed):
    """Mark failed rows; returns (failed count, list of correctness problems)."""
    problems, verdicts = [], {}
    failed = 0
    for row in rows:
        case = ops[row["case"]][0]
        misses = [row["error"]] if "error" in row else []
        if not misses and row["status"] != CONVERGED:
            misses = [f"status {row['status']}: {row['message']}"]
        elif not misses:
            key = (row["case"], row["x"].tobytes(),
                   None if row["lam"] is None else row["lam"].tobytes())
            if key not in verdicts:
                verdicts[key] = checker.check_answer(case.spec.callbacks, row["x"],
                                                     row["lam"], case.expect)
            answer_misses = verdicts[key] + row["violations"]
            if answer_misses:
                problems.append(f"{case.label}: " + "; ".join(answer_misses))
            misses = answer_misses
        if misses:
            failed += 1
            row["misses"] = misses
    problems += self_test(ops, rows, seed)
    for case, _ in ops:
        if case.fd_point is not None:
            problems += [f"{case.label}: {miss}" for miss in
                         checker.check_derivatives(case.spec.callbacks, case.fd_point,
                                                   case.spec.m)]
    return failed, problems


def self_test(ops, rows, seed):
    """The checker must reject a good answer moved by 1e-4."""
    good = next((r for r in rows if "misses" not in r and "x" in r), None)
    if good is None:
        return ["self-test: no correct answer to perturb"]
    case = ops[good["case"]][0]
    rng = np.random.default_rng(seed)
    shift = rng.standard_normal(good["x"].size)
    moved = good["x"] + 1e-4 * shift / np.linalg.norm(shift)
    if not checker.check_answer(case.spec.callbacks, moved, good["lam"], case.expect):
        return [f"self-test: checker accepted a perturbed answer of {case.label}"]
    return []


def median_ms(rows, key):
    values = [r[key] for r in rows if key in r]
    return statistics.median(values) / 1e6 if values else 0.0


def end_to_end(rows, setup_s, peak_rss_mb):
    n = len(rows)
    evals = sum(r["evals"][k] for r in rows for k in workloads.CALLBACKS
                if k not in HESS_KINDS)
    hess = sum(r["evals"][k] for r in rows for k in HESS_KINDS)
    return {
        "setup_s": (setup_s, "s"),
        "solve_ms_p50": (median_ms(rows, "solve_ns"), "ms"),
        "solves_per_s": (n / (sum(r["solve_ns"] for r in rows) / 1e9), "1/s"),
        "iterations_per_solve": (sum(r.get("iterations", 0) for r in rows) / n, "count"),
        "evals_per_solve": (evals / n, "count"),
        "hess_evals_per_solve": (hess / n, "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "trace_write_ms_p50": (median_ms(rows, "write_ns"), "ms"),
        "audit_ms_p50": (median_ms(rows, "audit_ns"), "ms"),
    }


def per_layer(rows, tracer):
    n = len(rows)
    totals = tracer.totals()
    values = {}
    for layer in LAYERS + AUDIT_LAYERS:
        calls, ns = totals.get(layer, (0, 0))
        values[f"{layer}.calls"] = calls / n
        values[f"{layer}.self_ms"] = ns / 1e6 / n
    search = {k: totals.get(f"callbacks.{k}", (0, 0)) for k in workloads.CALLBACKS}
    replay = [totals.get(f"audit.callbacks.{k}", (0, 0)) for k in workloads.CALLBACKS]
    values.update({f"callbacks.{k}.calls": c / n for k, (c, _) in search.items()})
    values["callbacks.self_ms"] = sum(ns for _, ns in search.values()) / 1e6 / n
    values["audit.callbacks.calls"] = sum(c for c, _ in replay) / n
    values["audit.callbacks.self_ms"] = sum(ns for _, ns in replay) / 1e6 / n
    iterations = sum(r.get("iterations", 0) for r in rows)
    corrections = sum(r.get("corrections", 0) for r in rows)
    values["problems.evaluate.per_iteration"] = (
        totals.get("problems.evaluate", (0, 0))[0] / iterations if iterations else 0.0)
    values["driver.accept_ratio"] = (
        sum(r.get("accepted", 0) for r in rows) / iterations if iterations else 0.0)
    values["correction.accept_ratio"] = (
        sum(r.get("corrections_accepted", 0) for r in rows) / corrections
        if corrections else 0.0)
    written = [r["trace_bytes"] for r in rows if "trace_bytes" in r]
    values["trace_io.write_trace.bytes"] = sum(written) / len(written) if written else 0.0
    values["traced.solve_ms_p50"] = median_ms(rows, "solve_ns")
    return {name: (values[name], unit) for name, unit in per_layer_names()}


def run_workload(args):
    setup_times, state = [], None
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        state = set_up(args.workload, args.seed)
        setup_times.append(perf_counter() - t0)
    cubeq, ops, counter = state

    tracer = layers.Tracer()
    if args.trace:
        tracer.install()
        trace_callbacks(tracer, ops)
        for name in tracer.absent:
            print(f"absent: {name} (its layer metrics read 0)", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"{args.workload}-{os.getpid()}.trace"
    try:
        rows = run_ops(cubeq, ops, counter, args.seconds, trace_path, tracer, args.trace)
    finally:
        trace_path.unlink(missing_ok=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, problems = check_rows(ops, rows, args.seed)
    if args.trace:
        # Every span in `solve` has its self time in exactly one layer.
        traced, timed = tracer.solve_self_ns(), sum(r["solve_ns"] for r in rows)
        if abs(traced - timed) > 0.01 * timed:
            problems.append(f"layer self times sum to {traced} ns, solves took {timed} ns")
        metrics = per_layer(rows, tracer)
    else:
        metrics = end_to_end(rows, statistics.median(setup_times), peak_rss_mb)

    failures = collections.Counter(f"{ops[row['case']][0].label}: {miss}"
                                   for row in rows for miss in row.get("misses", ()))
    for failure, times in failures.items():
        print(f"failed {times}x: {failure}", file=sys.stderr)
    for problem in dict.fromkeys(problems):
        print(f"incorrect: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_all(args):
    """Each workload in its own process, one result line each."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"{workload}: {lines[-1] if lines else '(no result)'}")
        status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
