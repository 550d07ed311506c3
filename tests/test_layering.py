"""The package's modules import each other along an acyclic graph, every
top-level definition is used by the package or exported by it, every
parameter of every function is read, every test module is named after a
package module or a listed cross-cutting suite, and every field of a config
or a trace record has a type rule."""

import ast
import dataclasses
import graphlib
from pathlib import Path

import cubeq
from cubeq import driver, trace_io

PACKAGE = Path(cubeq.__file__).parent


def _intra_package_imports(path):
    """Sibling modules ``path`` imports anywhere in it, inside functions too."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import a, b
                found.update(alias.name for alias in node.names)
            elif node.level == 1:  # from .a import b
                found.add(node.module.split(".")[0])
            elif node.level == 0 and (node.module or "").startswith("cubeq."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("cubeq."))
    return found


def test_intra_package_imports_are_acyclic():
    graph = {path.stem: _intra_package_imports(path)
             for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    assert graph["cli"] >= {"diagnostics", "driver"}  # the parser sees the imports
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def _is_click_command(node):
    """Whether a decorator such as ``@main.command("solve")`` registers ``node``."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _names_used(tree):
    """Names read and attributes taken anywhere in ``tree``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_top_level_definition_is_used_or_exported():
    """A function or class that only tests call is code the package does not need."""
    statements = [(path.stem, node, _names_used(node)) for path in PACKAGE.glob("*.py")
                  for node in ast.parse(path.read_text()).body]
    unused = [f"{module}.{node.name}" for module, node, _ in statements
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not _is_click_command(node) and node.name not in cubeq.__all__
              and not any(node.name in names for _, other, names in statements
                          if other is not node)]
    assert unused == []


def _parameters(function):
    """The names of every parameter of ``function``, ``self`` and ``cls`` aside."""
    args = function.args
    every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    return [arg.arg for arg in every if arg is not None and arg.arg not in ("self", "cls")]


def test_every_parameter_is_read():
    """No function takes a parameter and then ignores it: each one is read
    somewhere in its function's body, nested functions included.  Lambdas, the
    catalog's constant callbacks among them, answer to the callback signature."""
    ignored = []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                read = {name.id for statement in node.body for name in ast.walk(statement)
                        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
                ignored += [f"{path.stem}.{node.name}({arg})"
                            for arg in _parameters(node) if arg not in read]
    assert ignored == []


CROSS_CUTTING = {"acceptance", "certificates", "corpus", "layering", "tooling",
                 "tangential_properties"}


def test_every_test_module_names_a_module_or_a_listed_suite():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    suites = {path.stem.removeprefix("test_")
              for path in Path(__file__).parent.glob("test_*.py")}
    assert suites - modules - CROSS_CUTTING == set()


def test_every_config_and_record_field_has_a_rule():
    """A field whose annotation has no rule in ``driver.FIELD_RULES`` would go
    unchecked by both the constructor and ``read_trace``."""
    config_fields = {f.name for f in dataclasses.fields(driver.SolverConfig)}
    assert set(driver.CONFIG_RULES) == config_fields
    record_fields = {f.name for f in dataclasses.fields(driver.IterationRecord)}
    assert record_fields - set(trace_io._RECORD_RULES) - set(trace_io._VECTORS) == set()
