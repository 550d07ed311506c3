"""The package's modules import each other along an acyclic graph."""

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
