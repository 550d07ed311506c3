"""The benchmark, the parity check, the rates readout and the A/B runs, of one
workload and of the benchmark's own command, against this tree, a solve and its
audit load no scipy.linalg, nor scipy's LAPACK module where the reduced Hessian
is at most 2 x 2, the outputs README quotes are the ones the code prints, and
its ``--set`` examples are the ones the CLI takes.

The first seven run in a fresh interpreter: the benchmark, the parity check, the
rates readout and the A/B are scripts, and the test helpers import ``scipy.optimize``,
which loads ``scipy.linalg`` itself. README's examples run the catalog, which
loads no LAPACK module, so what they print does not depend on the LAPACK build.
"""

import json
import os
import re
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from cubeq import CONVERGED_SOSP, SolverConfig, builtin_problem, cli, problem_names, solve
from cubeq.cli import EXIT_CONFIG, main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _python(*args, returncode=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == returncode, proc.stderr
    return proc.stdout.strip().splitlines()


def test_benchmark_round_is_correct():
    """One round of the `small` workload: solve, write, read back and audit."""
    lines = _python("bench/run.py", "--workload", "small", "--seed", "0", "--seconds", "0")
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_parity_check_of_the_catalog(tmp_path):
    """The parity check finds the catalog's runs equal to themselves, and names
    a run whose saved record hash differs, with that record and its first
    differing field, and a run whose saved footer hash differs, with its value."""
    saved = tmp_path / "saved"
    parity = ("tools/parity.py", "--group", "catalog")
    _python(*parity, "--save", str(saved))
    assert _python(*parity, "--against", str(saved)) == ["0 of 5 runs differ"]
    hashes = json.loads((saved / "parity.json").read_text())
    record = hashes["catalog/maratos"]["records"][2]
    hashes["catalog/maratos"]["records"][2] = record[:16] + "0" * (len(record) - 16)
    footer = hashes["catalog/circle_quadratic"]["footer"]
    hashes["catalog/circle_quadratic"]["footer"] = footer[:16] + "0" * 8 + footer[24:]
    (saved / "parity.json").write_text(json.dumps(hashes))
    assert _python(*parity, "--against", str(saved), returncode=1) == [
        "catalog/circle_quadratic: footer differs, first in x_final",
        "catalog/maratos: record 2 differs, first in f", "2 of 5 runs differ"]


def test_rates_of_the_catalog():
    """k(eps) and the accepted steps before it, read from one run per problem,
    are the iterations and accepted steps of a solve at eps."""
    lines = _python("tools/rates.py", "--group", "catalog")
    assert lines[0] == "catalog: 5 runs"
    eps = [float(token) for token in lines[1].split()[2:-2]]
    assert eps == [10.0 ** -e for e in range(1, 9)]
    table = {tuple(line.split()[:2]): line.split()[2:10] for line in lines[2:]}
    solved = {value: [[] for _ in eps] for value in ("k", "accepted")}
    for i, tolerance in enumerate(eps):
        config = SolverConfig(eps_g=tolerance, eps_c=tolerance, eps_h=tolerance)
        for name in problem_names():
            result = solve(builtin_problem(name), config=config)
            assert result.status == CONVERGED_SOSP
            solved["k"][i].append(result.iterations)
            solved["accepted"][i].append(result.counts.accepted)
    for value, counts in solved.items():
        assert table["all", f"{value}_max"] == [str(max(c)) for c in counts]
        assert table["all", f"{value}_median"] == [f"{statistics.median(c):g}" for c in counts]
    assert table["all", "never"] == ["0"] * len(eps)
    assert table["all", "k_max"][1:5] == ["22"] * 4  # rosenbrock_sphere, 1e-2 to 1e-5
    assert table["all", "accepted_max"][1:5] == ["13"] * 4


def test_ab_of_the_tree_against_itself():
    """Two pairs of one `small` round each, the tree against a copy of itself,
    the sides alternating: every end-to-end metric of BENCHMARK.json and the
    faults per operation are summarized, the counts equal on both sides."""
    lines = _python("tools/ab.py", "--base", ".", "--head", ".", "--workload", "small",
                    "--pairs", "2", "--seconds", "0")
    assert lines[0] == ("small, seed 0, 2 pairs of 0 s runs, MALLOC_MMAP_THRESHOLD_=4194304 "
                        "MALLOC_TRIM_THRESHOLD_=536870912")
    assert lines[1].startswith("pair 1, base first: setup_s ")
    assert lines[2].startswith("pair 2, head first: setup_s ")
    assert lines[3].split()[:2] == ["metric", "base"]
    rows = {line.split()[0]: line.split() for line in lines[4:]}
    ends = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert list(rows) == [end["name"] for end in ends] + ["faults_per_op"]
    for name in ("iterations_per_solve", "evals_per_solve", "hess_evals_per_solve"):
        assert rows[name][1] == rows[name][4]  # the medians
        assert rows[name][7:] == ["+0.0%", "0", "of", "2", "20%", "0", "of", "2"]


def test_ab_of_every_workload_by_the_benchmark_command():
    """One pair of one round of every workload, by the benchmark's own command:
    each workload's runs and summary, with its counts equal on both sides, and
    the faults per operation of the whole run."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in bench["workloads"]]
    lines = _python("tools/ab.py", "--base", ".", "--head", ".", "--workload", "all",
                    "--pairs", "1", "--seconds", "0")
    assert lines[0].startswith("all, seed 0, 1 pairs of 0 s runs, ")
    assert [line.split(":")[0] for line in lines[1:5]] == [
        f"pair 1, base first, {name}" for name in [*names, "all"]]
    assert lines[4].startswith("pair 1, base first, all: faults_per_op ")
    sections = {}
    for line in lines[5:]:
        if line.endswith(":"):
            rows = sections.setdefault(line[:-1], {})
        elif not line.startswith("metric "):
            rows[line.split()[0]] = line.split()
    assert list(sections) == [*names, "all"]
    assert list(sections.pop("all")) == ["faults_per_op"]
    for rows in sections.values():
        assert list(rows) == [end["name"] for end in bench["end_to_end"]]
        for count in ("iterations_per_solve", "evals_per_solve", "hess_evals_per_solve"):
            assert rows[count][1] == rows[count][4]  # the medians


_SOLVE_N5 = """
import json, sys
import numpy as np
import cubeq

n = 5  # n - m = 4: the reduced Hessian goes through LAPACK's dsytrd
coupling = np.zeros((n, n))
coupling[0, 1] = coupling[1, 0] = 1.0
problem = cubeq.Problem(
    name="quartic_on_sphere", n=n, m=1,
    objective=lambda x: float(np.sum(x**4) + x[0] * x[1]),
    gradient=lambda x: 4.0 * x**3 + coupling @ x,
    objective_hessian=lambda x: np.diag(12.0 * x**2) + coupling,
    constraints=lambda x: np.array([x @ x - n]),
    jacobian=lambda x: 2.0 * x[None, :],
    constraint_hessians=lambda x: [2.0 * np.eye(n)],
    default_start=np.linspace(0.5, 1.5, n),
)
config = cubeq.SolverConfig()
result = cubeq.solve(problem, config=config)
violations = cubeq.audit_run(problem, result.history, config)
print(json.dumps({"status": result.status,
                  "violations": [v.code for v in violations],
                  "modules": sorted(name for name in sys.modules
                                    if name == "_flapack" or name.startswith("scipy.linalg"))}))
"""


def test_solve_loads_flapack_without_scipy_linalg():
    """The solver's LAPACK routines come from `_flapack` alone, and so, at
    n - m > 2, does the audit's Cholesky (dpotrf); its eigvalsh is numpy's:
    importing the scipy.linalg package would add about 25 MB of resident memory."""
    result = json.loads(_python("-c", _SOLVE_N5)[-1])
    assert result["status"] == "converged_sosp"
    assert result["violations"] == []
    assert result["modules"] == ["_flapack"]


_SOLVE_CATALOG = """
import json, sys
import cubeq

config = cubeq.SolverConfig()
runs = {}
for name in cubeq.problem_names():
    problem = cubeq.builtin_problem(name)
    result = cubeq.solve(problem, config=config)
    violations = cubeq.audit_run(problem, result.history, config)
    runs[name] = [problem.n - problem.m, result.status, [v.code for v in violations]]
print(json.dumps({"runs": runs,
                  "modules": sorted(name for name in sys.modules
                                    if name == "_flapack" or name.startswith("scipy.linalg"))}))
"""


def test_small_reduced_problems_load_no_scipy_lapack():
    """With n - m <= 2, as in every catalog problem, the factorization, the
    solves and the reduced eigensolve are numpy's: loading `_flapack` would add
    about 2.6 MB of resident memory to the smallest solves."""
    result = json.loads(_python("-c", _SOLVE_CATALOG)[-1])
    assert result["runs"]
    for name, (k, status, codes) in result["runs"].items():
        assert k <= 2 and status == "converged_sosp" and codes == [], name
    assert result["modules"] == []


def _quoted_output(command):
    """The output README quotes under its line ``command``: the comment lines
    after it, a trailing backslash continuing one onto the next."""
    lines = README.splitlines()
    quoted, i = "\\", lines.index(command)
    while quoted.endswith("\\"):
        i += 1
        assert lines[i].startswith("# ")
        quoted = quoted[:-1] + lines[i][2:].strip()
    return quoted


@pytest.mark.parametrize("commands", [
    ["cubeq solve --problem rosenbrock_sphere"],
    ["cubeq solve --problem maratos --trace run.trace", "cubeq audit run.trace"],
], ids=["solve_summary", "trace_round_trip"])
def test_readme_command_line_quotations(tmp_path, commands):
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path):
        results = [runner.invoke(main, shlex.split(command)[1:]) for command in commands]
    assert [result.exit_code for result in results] == [0] * len(commands)
    assert _quoted_output(commands[-1]) in results[-1].output.splitlines()


def test_readme_set_examples():
    """Every ``--set key=value`` README shows builds a config, except those
    whose value is ``...``: README names them as keys that are not config
    fields, which ``cubeq solve`` refuses with exit 15."""
    pairs = re.findall(r"--set\s+([a-z0-9_]+)=([^\s`),]+)", README)
    examples = [f"{key}={value}" for key, value in pairs if value != "..."]
    assert len(examples) >= 3
    for item in examples:
        cli._build_config([item], None)
    unknown = sorted({key for key, value in pairs if value == "..."})
    assert unknown == ["audit", "corrections_enabled"]
    for key in unknown:
        result = CliRunner().invoke(main, ["solve", "--problem", "maratos", "--set", f"{key}=off"])
        assert result.exit_code == EXIT_CONFIG
        assert result.output == f"error: unknown config key {key!r}\n"


def test_readme_quickstart_quotations():
    """Each print of the quickstart prints what its comment quotes first."""
    section = README.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    quotes = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    printed = _python("-c", block)
    assert len(printed) == len(quotes) == 4
    for line, quote in zip(printed, quotes):
        assert quote == line or quote.startswith(line + " "), (line, quote)
