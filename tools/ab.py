"""A/B of the benchmark: two trees in alternating pairs of runs on one argv.

    python3 tools/ab.py --base DIR --head DIR [--workload W|all] [--pairs N]
                        [--seconds S] [--seed K] [--malloc-default]

Copies the trees ``--base`` and ``--head`` into two sibling directories of a
fresh temporary directory, ``base`` and ``head``, whose names have equal
length, and runs ``python3 bench/run.py --workload W --seed K --seconds S`` in
each with the identical argv and environment (this one's, without PYTHONPATH,
so that each side imports its own ``src/``), ``--pairs`` times, base first in
the odd-numbered pairs and head first in the even ones.  With ``--workload
all`` the run is the benchmark's own command, the ``command`` of
``BENCHMARK.json`` with ``--seed K --seconds S``, which runs every workload,
each in a child process.  glibc's heap-trimming state moves a run's timings by
10-40% with the directory name, the argv and the number of environment
variables alone, so all three are held equal; by default both allocator
thresholds are pinned, in the children's environment only, to the values
below, and with ``--malloc-default`` neither is set.  The minor page faults of
each run (``RUSAGE_CHILDREN.ru_minflt``) are divided by its operations: a side
in the trimming state reads tens of thousands more.  A run of all workloads
counts its faults over all of them, as the metric of the section ``all``.

It prints each pair's runs, then, per workload and per end-to-end metric of
``BENCHMARK.json`` (the base tree's), each side's median and quartiles, the
relative change of the medians, "head better in k of n pairs", the bound, and
the pairs in which head is worse than base by more than the bound.  Exits 1
when a run does not print its results, is not correct or has a failed operation.
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


def run_once(tree: Path, argv: list, env: dict, workload: str, names: list) -> dict:
    """One benchmark run in ``tree`` of ``workload``, which is one of ``names``
    or ``all`` of them: each workload's metrics by name, with the run's minor
    faults per operation as a metric of ``workload``, or an ``error``."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=False)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = proc.stdout.strip().splitlines()
    try:  # one result line, or with all of them one "name: result" line each
        named = [line.split(": ", 1) for line in lines] if workload == "all" else [
            (workload, lines[-1])]
        results = {name: json.loads(text) for name, text in named}
        if workload == "all" and list(results) != names:
            raise ValueError
        metrics = {name: {key: entry["value"] for key, entry in result["metrics"].items()}
                   for name, result in results.items()}
        attempted = sum(result["attempted"] for result in results.values())
    except (IndexError, ValueError, KeyError, TypeError):
        return {"error": f"exit {proc.returncode}, no result lines: {proc.stderr.strip()[-500:]}"}
    metrics.setdefault(workload, {})[FAULTS] = faults / max(attempted, 1)
    wrong = [f"{name}: correct {result['correct']}, {result['failed']} failed operations"
             for name, result in results.items() if not result["correct"] or result["failed"]]
    return {"metrics": metrics, **({"error": "; ".join(wrong)} if wrong else {})}


def worse_by(end: dict, base: float, head: float) -> float:
    """How much worse head is than base, relative to base (negative: better)."""
    change = (head - base) / abs(base) if base else 0.0 if head == base else float("inf")
    return change if end["better"] == "lower" else -change


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def sections(pair: dict) -> dict:
    """Each workload of a pair, and ``all``, to its base and head metrics."""
    return {section: (metrics, pair["head"]["metrics"][section])
            for section, metrics in pair["base"]["metrics"].items()}


def summary(ends: list, pairs: list, section: str) -> list:
    """One line per metric of ``section``: medians and quartiles, change, wins and
    pairs beyond the bound."""
    lines = [f"{'metric':22}{'base median [q1, q3]':>34} {'head median [q1, q3]':>34}"
             f"{'change':>9}  {'head better':12}{'bound':>6}  beyond bound"]
    for end in ends:
        name = end["name"]
        values = {side: [pair[side]["metrics"][section][name] for pair in pairs]
                  for side in SIDES}
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
    parser.add_argument("--workload", default="curved", metavar="W|all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--malloc-default", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((args.base / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in bench["workloads"]]
    ends = bench["end_to_end"] + [{"name": FAULTS, "better": "lower"}]
    # PYTHONPATH goes too: each side imports cubeq from its own src/ alone
    env = {key: value for key, value in os.environ.items()
           if key not in PINNED and key != "PYTHONPATH"}
    if not args.malloc_default:
        env.update(PINNED)
    run = ([*bench["command"]] if args.workload == "all" else
           [sys.executable, "bench/run.py", "--workload", args.workload])
    run += ["--seed", str(args.seed), "--seconds", f"{args.seconds:g}"]
    allocator = ("glibc's default allocator thresholds" if args.malloc_default
                 else " ".join(f"{key}={value}" for key, value in PINNED.items()))
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs, {allocator}", flush=True)
    pairs, errors = [], []
    with tempfile.TemporaryDirectory(prefix="cubeq-ab-") as work:
        trees = copy_trees(args.base.resolve(), args.head.resolve(), Path(work))
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {side: run_once(trees[side], run, env, args.workload, names)
                    for side in order}
            errors += [f"pair {i + 1} {side}: {pair[side]['error']}"
                       for side in SIDES if "error" in pair[side]]
            if any("metrics" not in pair[side] for side in SIDES):
                continue
            pairs.append(pair)
            for section, (base, head) in sections(pair).items():
                label = f", {section}" if args.workload == "all" else ""
                print(f"pair {i + 1}, {order[0]} first{label}: " + "; ".join(
                    f"{end['name']} {base[end['name']]:.4g} -> {head[end['name']]:.4g}"
                    for end in ends if end["name"] in base), flush=True)
    if errors:
        print("\n".join(errors))
    for section, (base, _) in sections(pairs[0]).items() if pairs else ():
        if args.workload == "all":
            print(f"{section}:")
        print("\n".join(summary([end for end in ends if end["name"] in base], pairs, section)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
