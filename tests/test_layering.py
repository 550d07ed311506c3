"""The package's modules import each other along an acyclic graph, every
top-level definition is used by the package or exported by it, and every test
module is named after a package module or a listed cross-cutting suite."""

import ast
import graphlib
from pathlib import Path

import cubeq

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


CROSS_CUTTING = {"acceptance", "certificates", "corpus", "layering", "tooling",
                 "tangential_properties"}
# suites of code that now lives in linalg and driver, not yet folded into theirs
UNFOLDED = {"correction", "multipliers", "normal_step"}


def test_every_test_module_names_a_module_or_a_listed_suite():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    suites = {path.stem.removeprefix("test_")
              for path in Path(__file__).parent.glob("test_*.py")}
    assert suites - modules - CROSS_CUTTING - UNFOLDED == set()
    assert UNFOLDED <= suites  # a folded suite leaves this list
