"""The benchmark runs against this tree, and a solve and its audit load no scipy.linalg,
nor scipy's LAPACK module where the reduced Hessian is at most 2 x 2.

Both run in a fresh interpreter: the benchmark is a script, and the test
helpers import ``scipy.optimize``, which loads ``scipy.linalg`` itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_benchmark_round_is_correct():
    """One round of the `small` workload: solve, write, read back and audit."""
    lines = _python("bench/run.py", "--workload", "small", "--seed", "0", "--seconds", "0")
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


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
    """The solver's LAPACK routines come from `_flapack` alone, and the audit's
    Cholesky and eigvalsh from numpy: importing the scipy.linalg package would
    add about 25 MB of resident memory."""
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
    about 3.6 MB of resident memory to the smallest solves."""
    result = json.loads(_python("-c", _SOLVE_CATALOG)[-1])
    assert result["runs"]
    for name, (k, status, codes) in result["runs"].items():
        assert k <= 2 and status == "converged_sosp" and codes == [], name
    assert result["modules"] == []
