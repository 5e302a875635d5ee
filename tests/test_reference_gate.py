"""The test oracle ``tests/reference.py`` shares no code with the package."""

import ast
from pathlib import Path

import pytest

REFERENCE = Path(__file__).with_name("reference.py")


def _package_imports(source: str) -> list[str]:
    """Every import in ``source`` that reaches, or could reach, the package:
    ``eulerpart`` and its submodules, relative imports (the test tree sits
    beside the package) and ``__import__`` / ``import_module`` calls whose
    module is not a literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in ("__import__", "import_module") and node.args:
                arg = node.args[0]
                found.append(arg.value if isinstance(arg, ast.Constant) else ".<dynamic>")
    return [m for m in found if m.startswith(".") or m.split(".")[0] == "eulerpart"]


def test_reference_oracle_imports_nothing_from_the_package():
    assert _package_imports(REFERENCE.read_text()) == []


@pytest.mark.parametrize("line", [
    "import eulerpart",
    "import eulerpart.complexes as cx",
    "from eulerpart.complexes import components",
    "from eulerpart import partition",
    "from . import cutgen",
    "importlib.import_module('eulerpart.partition')",
    "__import__(name)",
])
def test_the_gate_catches_a_package_import(line):
    assert _package_imports(f"from collections import deque\n{line}\n")
