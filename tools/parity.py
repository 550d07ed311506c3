"""Same runs, same values: the parity check for a change that must not move a run.

    python3 tools/parity.py --save DIR [--tree T] [--group G ...]
    python3 tools/parity.py --against DIR [--tree T] [--group G ...]

Solves the parity set with the ``src/`` of the tree ``T`` (default: the tree
holding this script), writes each run's trace with its audit's violations,
reads it back and audits what it read.  The groups of the set (all by default):

    catalog   the built-in problems, default config
    corpus    the 200 seeded problems of tests/test_corpus.py, max_iter = 300
    small, curved, wide   every case of those benchmark workloads at seeds 0, 5, 7
    elec      electrons on the sphere, N = 4, 6 and 12, from the 5 starts of
              tests/test_corpus.py each (the equatorial N-gon first)

It compares values, not trace bytes, so a change of the trace format moves
no run.  For each run it keeps the SHA-256 of the bits of each field of each
record, of each value of the footer read back (status, message, the bits of
``x_final`` and ``lambda_final``, the final report and the counts), and of the
violations found by auditing the trace read back.  ``--save`` writes them to
``DIR/parity.json``; ``--against`` lists each run that differs from the saved
one, naming its first differing record and field, or footer value.  Either
way each run must also read back whole: every record field, ``x_final`` and
``lambda_final`` bit-equal to the solver's, the config equal to the written
one, and the same violations as the audit of the records in memory.  The
problems come from this script's own tree, so a parent checkout saved with
``--tree`` is compared on the same runs.  Exits 1 when any run differs or
fails to read back.
"""

import os

# One BLAS thread, fixed before numpy loads, as the benchmark runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("small", "curved", "wide")
GROUPS = ("catalog", "corpus", *WORKLOADS, "elec")
SEEDS = (0, 5, 7)
END = ("status", "message", "x_final", "lambda_final", "final_report", "counts")


def import_cubeq(tree: Path):
    """``cubeq`` from ``tree/src`` and from nowhere else."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    cubeq = importlib.import_module("cubeq")
    if Path(cubeq.__file__).resolve().parent != src / "cubeq":
        raise SystemExit(f"error: imported cubeq from {cubeq.__file__}, not {src}")
    return cubeq


def runs(cubeq, groups):
    """(label, problem, x0, config) of each run of ``groups``, in order."""
    sys.path[1:1] = [str(ROOT / "tests"), str(ROOT / "bench")]
    import workloads
    if "catalog" in groups:
        for name in workloads.CATALOG:
            problem = cubeq.builtin_problem(name)
            yield f"catalog/{name}", problem, problem.default_start, cubeq.SolverConfig()
    if "corpus" in groups:
        from test_corpus import SEEDS as CORPUS_SEEDS, _corpus_problem
        for seed in CORPUS_SEEDS:
            problem, _ = _corpus_problem(seed)
            yield (f"corpus/{seed}", problem, problem.default_start,
                   cubeq.SolverConfig(max_iter=300))
    for workload in WORKLOADS:
        if workload in groups:
            for seed in SEEDS:
                problems = {}
                for case in workloads.build(workload, seed, cubeq):
                    spec = case.spec
                    if id(spec) not in problems:
                        problems[id(spec)] = cubeq.Problem(
                            name=spec.name, n=spec.n, m=spec.m,
                            default_start=spec.default_start, **spec.callbacks)
                    yield (f"{workload}/{seed}/{case.label}", problems[id(spec)], case.x0,
                           cubeq.SolverConfig())
    if "elec" in groups:
        from test_corpus import ELEC_ENERGY, _elec_problem, _elec_starts
        for N in sorted(ELEC_ENERGY):
            problem = _elec_problem(N)
            for start, x0 in enumerate(_elec_starts(N)):
                yield f"elec/{N}/{start}", problem, x0, cubeq.SolverConfig()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _violations(violations) -> bytes:
    return json.dumps([dataclasses.asdict(v) for v in violations],
                      default=lambda value: value.tolist()).encode()


def _bits(value) -> bytes:
    """The bits of a value: a number or array of them as float64 bytes, an
    object by its keys and values in order, anything else by its text."""
    if isinstance(value, dict):
        return b"".join(_digest(repr(key).encode() + _bits(item)).encode()
                        for key, item in value.items())
    if value is None or isinstance(value, str):
        return repr(value).encode()
    return np.asarray(value, dtype=float).tobytes()


def _fields(values) -> str:
    """One short hash per value, in order: a record's fields, or a footer's
    values of ``END``."""
    return "".join(_digest(_bits(value))[:8] for value in values)


def read_back_faults(result, config, data) -> list:
    """How the trace ``data`` read back differs from the run it was written from."""
    faults = [] if data.config == config else ["config"]
    faults += [name for name in ("x_final", "lambda_final")
               if _bits(getattr(result, name)) != _bits(data.footer[name])]
    if len(data.records) != len(result.history):
        return faults + ["record count"]
    for original, loaded in zip(result.history, data.records):
        faults += [f"record {original.k} {field.name}" for field in dataclasses.fields(original)
                   if _bits(getattr(original, field.name)) != _bits(getattr(loaded, field.name))]
    return faults


def measure(cubeq, groups) -> tuple:
    """The hashes of each run's values, and the runs that do not read back whole."""
    hashes, faults = {}, {}
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "run.trace"
        for label, problem, x0, config in runs(cubeq, groups):
            result = cubeq.solve(problem, x0, config)
            in_memory = cubeq.audit_run(problem, result.history, config)
            cubeq.write_trace(path, problem.name, x0, config, result, in_memory)
            data = cubeq.read_trace(path)
            audited = _violations(cubeq.audit_run(problem, data.records, data.config))
            hashes[label] = {
                "records": [_fields(getattr(record, field.name)
                                    for field in dataclasses.fields(record))
                            for record in result.history],
                "footer": _fields(data.footer[name] for name in END), "audit": _digest(audited)}
            found = read_back_faults(result, config, data)
            if audited != _violations(in_memory):
                found.append("audit of the records read back")
            if found:
                faults[label] = found
    return hashes, faults


def _first(old: str, new: str, names) -> str:
    """The name of the first value whose short hash differs."""
    return next((name for i, name in enumerate(names)
                 if old[8 * i:8 * (i + 1)] != new[8 * i:8 * (i + 1)]), "its number of values")


def differences(saved: dict, hashes: dict, record_fields) -> list:
    """One line per run whose values differ from ``saved``, naming the first
    differing record and field, or footer value."""
    out = []
    for label in sorted(saved.keys() | hashes.keys()):
        old, new = saved.get(label), hashes.get(label)
        if old is None or new is None:
            out.append(f"{label}: {'not saved' if old is None else 'not run'}")
            continue
        k = next((k for k, (a, b) in enumerate(zip(old["records"], new["records"])) if a != b),
                 None)
        if k is not None:
            field = _first(old["records"][k], new["records"][k], record_fields)
            out.append(f"{label}: record {k} differs, first in {field}")
        elif len(old["records"]) != len(new["records"]):
            out.append(f"{label}: {len(new['records'])} records, not {len(old['records'])}")
        elif old["footer"] != new["footer"]:
            name = _first(old["footer"], new["footer"], END)
            out.append(f"{label}: footer differs, first in {name}")
        elif old["audit"] != new["audit"]:
            out.append(f"{label}: audit of the trace read back differs")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--save", type=Path, metavar="DIR")
    action.add_argument("--against", type=Path, metavar="DIR")
    parser.add_argument("--tree", type=Path, default=ROOT)
    parser.add_argument("--group", action="append", choices=GROUPS)
    args = parser.parse_args(argv)
    groups = args.group or GROUPS
    cubeq = import_cubeq(args.tree)
    hashes, faults = measure(cubeq, groups)
    for label, found in faults.items():
        print(f"{label}: does not read back whole: {', '.join(found)}")
    if args.save:
        args.save.mkdir(parents=True, exist_ok=True)
        (args.save / "parity.json").write_text(json.dumps(hashes, indent=0) + "\n")
        print(f"saved {len(hashes)} runs to {args.save / 'parity.json'}")
        return 1 if faults else 0
    saved = json.loads((args.against / "parity.json").read_text())
    differ = differences(saved, hashes,
                         [field.name for field in dataclasses.fields(cubeq.IterationRecord)])
    total = len(saved.keys() | hashes.keys())
    print("\n".join(differ + [f"{len(differ)} of {total} runs differ"]))
    return 1 if differ or faults else 0


if __name__ == "__main__":
    sys.exit(main())
