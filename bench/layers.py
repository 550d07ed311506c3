"""Spans and call counts around the layers of ``cubeq``, from the outside.

Each layer function is replaced by a wrapper in the module namespace its
caller looks it up in (``driver`` imports ``evaluate`` by name, so the
wrapper goes on ``cubeq.driver.evaluate``).  A wrapper records one span:
its calls and its self time, which is its duration minus the time of the
spans it encloses.  Spans are summed in memory per (step, layer).

A target that a refactor removed or renamed is reported as absent and its
metrics read 0; the benchmark keeps running.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, layer) for every call site that gets a wrapper.
TARGETS = (
    ("cubeq.driver", "evaluate", "problems.evaluate"),
    ("cubeq.driver", "lagrangian_hessian", "problems.lagrangian_hessian"),
    ("cubeq.driver", "factorize_jacobian", "linalg.factorize_jacobian"),
    ("cubeq.driver", "min_eig_reduced", "linalg.min_eig_reduced"),
    ("cubeq.linalg", "reduce_matrix", "linalg.reduce_matrix"),
    ("cubeq.tangential", "reduce_matrix", "linalg.reduce_matrix"),
    ("cubeq.driver", "assemble_normal", "normal_step.assemble_normal"),
    ("cubeq.driver", "estimate_multipliers", "multipliers.estimate_multipliers"),
    ("cubeq.driver", "build_reduced_model", "tangential.build_reduced_model"),
    ("cubeq.driver", "solve_cubic", "tangential.solve_cubic"),
    ("cubeq.driver", "compute_correction", "correction.compute_correction"),
    ("cubeq.diagnostics", "rebuild_context", "diagnostics.rebuild_context"),
    ("cubeq.diagnostics", "audit_iteration", "diagnostics.audit_iteration"),
    ("cubeq.diagnostics", "evaluate", "problems.evaluate"),
    ("cubeq.diagnostics", "lagrangian_hessian", "problems.lagrangian_hessian"),
    ("cubeq.diagnostics", "factorize_jacobian", "linalg.factorize_jacobian"),
    ("cubeq.diagnostics", "min_eig_reduced", "linalg.min_eig_reduced"),
)
# Every public function of this module is one layer, `merit`.
MERIT_MODULE = "cubeq.merit"

# Layers the search and the audit replay share: their spans inside the
# replay are reported under `audit.<layer>`, apart from the search's.
SHARED = frozenset({"problems.evaluate", "problems.lagrangian_hessian",
                    "linalg.factorize_jacobian", "linalg.min_eig_reduced",
                    "linalg.reduce_matrix", "merit"})


def _module(name):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


class Tracer:
    """Span stack and per-(step, layer) totals of calls and self time."""

    def __init__(self):
        self.step = None  # "solve", "write" or "audit"
        self._stack = []  # child time (ns) of each open span
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.absent = []

    def wrap(self, layer, fn):
        stack, calls, self_ns = self._stack, self.calls, self.self_ns

        def span(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                key = (self.step, layer)
                calls[key] += 1
                self_ns[key] += dt - child

        span.__wrapped__ = fn
        return span

    def install(self):
        """Wrap every target that exists; list the others in ``absent``."""
        for module_name, attr, layer in TARGETS:
            module = _module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(layer, fn))
        merit = _module(MERIT_MODULE)
        public = [(name, fn) for name, fn in inspect.getmembers(merit, inspect.isfunction)
                  if not name.startswith("_") and fn.__module__ == MERIT_MODULE]
        if not public:
            self.absent.append(f"{MERIT_MODULE}.*")
        for name, fn in public:
            setattr(merit, name, self.wrap("merit", fn))

    def metric_name(self, step, layer):
        if step == "audit" and (layer in SHARED or layer.startswith("callbacks.")):
            return f"audit.{layer}"
        return layer

    def totals(self):
        """{metric layer name: (calls, self_ns)} over the solve/write/audit steps."""
        out = defaultdict(lambda: [0, 0])
        for key, n in self.calls.items():
            step, layer = key
            if step is None:
                continue
            entry = out[self.metric_name(step, layer)]
            entry[0] += n
            entry[1] += self.self_ns[key]
        return out

    def solve_self_ns(self):
        """Sum of the self times of every span inside `solve`."""
        return sum(ns for (step, _), ns in self.self_ns.items() if step == "solve")

