"""k(eps): the iterations each run needs to reach each tolerance, read from one run.

    python3 tools/rates.py [--group G ...]

The paper bounds the iterations needed to reach eps by O(eps^{-3/2}) for the
Lagrangian gradient, O(eps^{-1}) for the constraint violation and O(eps^{-3})
for second-order stationarity.  A tolerance enters a solve only through its
stop test, so a solve at a looser eps makes, bit for bit, the first records of
the solve at the default 1e-8 (``tests/test_driver.py`` checks this).  So each
run of the parity set (``tools/parity.py``, whose groups ``--group`` names; all
by default) is solved once, and for eps = 1e-1, ..., 1e-8 this reads the first
k whose iterate meets eps in

    grad   |grad L| <= eps
    feas   |c|_1 <= eps
    curv   the least eigenvalue of the reduced Hessian >= -eps
    all    all three at once: where a solve at eps stops

and the accepted steps before that k.  The records give k = 0 .. K-1; the
iterate a run stops at has no record, so its final report gives k = K.

For each group and measure it prints, per eps, the max and the median of k and
of the accepted steps over the runs that reach eps, and the number of runs that
never do.  Beside max k it prints the log-log slope of max k against 1/eps,
fitted where max k >= 1, and the paper's exponent (for "all", the largest).
"""

import argparse
import statistics
import sys

from parity import GROUPS, ROOT, import_cubeq, runs  # before numpy: one BLAS thread

import numpy as np

EPS = [10.0 ** -e for e in range(1, 9)]
MEASURES = {  # name -> (the paper's exponent of 1/eps, whether a report meets eps)
    "grad": (1.5, lambda r, eps: r.grad_lagrangian_norm <= eps),
    "feas": (1.0, lambda r, eps: r.c_l1 <= eps),
    "curv": (3.0, lambda r, eps: r.lambda_min_red >= -eps),
    "all": (3.0, lambda r, eps: (r.grad_lagrangian_norm <= eps and r.c_l1 <= eps
                                 and r.lambda_min_red >= -eps)),
}
STATS = {"max": max, "median": statistics.median}


def first_k(result, meets, eps):
    """The first k whose iterate meets ``eps``, and the accepted steps before it;
    None if no iterate does."""
    reports = [*result.history, *filter(None, [result.final_report])]
    k = next((k for k, report in enumerate(reports) if meets(report, eps)), None)
    return None if k is None else (k, sum(r.accepted for r in result.history[:k]))


def slope(ks) -> str:
    """The least-squares slope of log k against log 1/eps where k >= 1."""
    points = [(eps, k) for eps, k in zip(EPS, ks) if k is not None and k >= 1]
    if len(points) < 2:
        return "-"
    eps, k = zip(*points)
    return f"{np.polyfit(-np.log(eps), np.log(k), 1)[0]:.3g}"


def table(group: str, found: list) -> list:
    """The lines printed for ``group``; ``found`` holds, per run of the group
    and per measure, a first_k per eps."""
    lines = [f"{group}: {len(found)} runs",
             " ".join([f"{'measure':8}{'value':16}", *(f"{eps:>7.0e}" for eps in EPS),
                       f"{'slope':>7}", f"{'paper':>6}"])]
    for name, (exponent, _) in MEASURES.items():
        reached = [[run[name][i] for run in found if run[name][i] is not None]
                   for i in range(len(EPS))]
        for column, value in enumerate(("k", "accepted")):
            for stat, of in STATS.items():
                row = [of([hit[column] for hit in hits]) if hits else None for hits in reached]
                cells = [f"{'-' if cell is None else format(cell, 'g'):>7}" for cell in row]
                if (value, stat) == ("k", "max"):
                    cells += [f"{slope(row):>7}", f"{exponent:>6g}"]
                lines.append(" ".join([f"{name:8}{value + '_' + stat:16}", *cells]))
        never = [sum(run[name][i] is None for run in found) for i in range(len(EPS))]
        lines.append(" ".join([f"{name:8}{'never':16}", *(f"{n:>7}" for n in never)]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--group", action="append", choices=GROUPS)
    groups = parser.parse_args(argv).group or GROUPS
    cubeq = import_cubeq(ROOT)
    found = {group: [] for group in GROUPS if group in groups}
    for label, problem, x0, config in runs(cubeq, groups):
        result = cubeq.solve(problem, x0, config)
        found[label.split("/", 1)[0]].append(
            {name: [first_k(result, meets, eps) for eps in EPS]
             for name, (_, meets) in MEASURES.items()})
    print("\n\n".join("\n".join(table(group, rows)) for group, rows in found.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
