"""Every module of the package and of the tests uses each name it imports.

No linter ships with the toolchain, so this walks the syntax tree with the
standard library: a name bound by an import must be read somewhere in the
same module or listed in its ``__all__``. ``from __future__`` imports are
compiler directives and are skipped.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
SOURCES = sorted((TESTS.parent / "src" / "cfisac").glob("*.py")) + sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, in order of first import."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used - exported, key=imported.get)


def test_detects_unused_and_skips_exports():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy.linalg\n"
        "from math import pi as PI, tau\n"
        "__all__ = ['tau']\n"
        "print(sys.argv, numpy.linalg)\n"
    )
    assert unused_imports(source) == ["os", "PI"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
