"""A/B of the benchmark: two trees in alternating pairs of runs on one argv.

    python3 tools/ab.py --base DIR --head DIR [--workload W] [--pairs N]
                        [--seconds S] [--seed K] [--malloc-default]

Copies the trees ``--base`` and ``--head`` into two sibling directories of a
fresh temporary directory, ``base`` and ``head``, whose names have equal
length, and runs ``python3 bench/run.py --workload W --seed K --seconds S`` in
each with the identical argv and environment (this one's, without PYTHONPATH,
so that each side imports its own ``src/``), ``--pairs`` times, base first in
the odd-numbered pairs and head first in the even ones.  glibc's heap-trimming
state moves a run's timings by 10-40% with the directory name, the argv and
the number of environment variables alone, so all three are held equal; by
default both allocator thresholds are pinned, in the children's environment
only, to the values below, and with ``--malloc-default`` neither is set.  The
minor page faults of each run (``RUSAGE_CHILDREN.ru_minflt``) are divided by
its operations: a side in the trimming state reads tens of thousands more.

It prints each pair's runs, then, per end-to-end metric of ``BENCHMARK.json``
(the base tree's), each side's median and quartiles, the relative change of
the medians, "head better in k of n pairs", the bound, and the pairs in which
head is worse than base by more than the bound.  Exits 1 when a run does not
print its result, is not correct or has a failed operation.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PINNED = {"MALLOC_MMAP_THRESHOLD_": "4194304", "MALLOC_TRIM_THRESHOLD_": "536870912"}
SIDES = ("base", "head")
FAULTS = "faults_per_op"


def copy_trees(base: Path, head: Path, into: Path) -> dict:
    """Each tree copied, without version control or build leftovers, to ``into/side``."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")
    copies = {}
    for side, tree in zip(SIDES, (base, head)):
        if not (tree / "bench" / "run.py").is_file():
            raise SystemExit(f"error: {tree} has no bench/run.py")
        copies[side] = into / side
        shutil.copytree(tree, copies[side], ignore=ignore)
    return copies


def run_once(tree: Path, argv: list, env: dict) -> dict:
    """One benchmark run in ``tree``: its result line, with its minor faults per
    operation among the metrics, or an ``error``."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=False)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        return {"error": f"exit {proc.returncode}, no result line: {proc.stderr.strip()[-500:]}"}
    metrics[FAULTS] = faults / max(result["attempted"], 1)
    if not result["correct"] or result["failed"]:
        result["error"] = f"correct {result['correct']}, {result['failed']} failed operations"
    return {**result, "metrics": metrics}


def worse_by(end: dict, base: float, head: float) -> float:
    """How much worse head is than base, relative to base (negative: better)."""
    change = (head - base) / abs(base) if base else 0.0 if head == base else float("inf")
    return change if end["better"] == "lower" else -change


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(ends: list, pairs: list) -> list:
    """One line per metric: medians and quartiles, change, wins and pairs beyond the bound."""
    lines = [f"{'metric':22}{'base median [q1, q3]':>34} {'head median [q1, q3]':>34}"
             f"{'change':>9}  {'head better':12}{'bound':>6}  beyond bound"]
    for end in ends:
        name = end["name"]
        values = {side: [pair[side]["metrics"][name] for pair in pairs] for side in SIDES}
        cells = []
        for side in SIDES:
            q1, q3 = quartiles(values[side])
            cells.append(f"{statistics.median(values[side]):.4g} [{q1:.4g}, {q3:.4g}]")
        base, head = (statistics.median(values[side]) for side in SIDES)
        change = (head - base) / abs(base) * 100 if base else 0.0
        worse = [worse_by(end, b, h) for b, h in zip(values["base"], values["head"])]
        bound = end.get("bound")
        lines.append(
            f"{name:22}{cells[0]:>34} {cells[1]:>34}{change:>+8.1f}%  "
            f"{sum(w < 0 for w in worse):>2} of {len(pairs):<5}"
            f"{'-' if bound is None else format(bound, '.0%'):>6}  "
            + ("-" if bound is None else f"{sum(w > bound for w in worse)} of {len(pairs)}"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", type=Path, required=True, metavar="DIR")
    parser.add_argument("--head", type=Path, required=True, metavar="DIR")
    parser.add_argument("--workload", default="curved")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--malloc-default", action="store_true")
    args = parser.parse_args(argv)
    ends = json.loads((args.base / "BENCHMARK.json").read_text())["end_to_end"]
    ends.append({"name": FAULTS, "better": "lower"})
    # PYTHONPATH goes too: each side imports cubeq from its own src/ alone
    env = {key: value for key, value in os.environ.items()
           if key not in PINNED and key != "PYTHONPATH"}
    if not args.malloc_default:
        env.update(PINNED)
    run = [sys.executable, "bench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", f"{args.seconds:g}"]
    allocator = ("glibc's default allocator thresholds" if args.malloc_default
                 else " ".join(f"{key}={value}" for key, value in PINNED.items()))
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs, {allocator}", flush=True)
    pairs, errors = [], []
    with tempfile.TemporaryDirectory(prefix="cubeq-ab-") as work:
        trees = copy_trees(args.base.resolve(), args.head.resolve(), Path(work))
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {side: run_once(trees[side], run, env) for side in order}
            errors += [f"pair {i + 1} {side}: {pair[side]['error']}"
                       for side in SIDES if "error" in pair[side]]
            if any("metrics" not in pair[side] for side in SIDES):
                continue
            pairs.append(pair)
            print(f"pair {i + 1}, {order[0]} first: " + "; ".join(
                f"{end['name']} {pair['base']['metrics'][end['name']]:.4g} -> "
                f"{pair['head']['metrics'][end['name']]:.4g}" for end in ends), flush=True)
    if errors:
        print("\n".join(errors))
    if pairs:
        print("\n".join(summary(ends, pairs)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
