"""Every module of the package and of the tests uses each name it imports,
and the package runs on numpy alone.

No linter ships with the toolchain, so this walks the syntax tree with the
standard library: a name bound by an import must be read somewhere in the
same module or listed in its ``__all__``. ``from __future__`` imports are
compiler directives and are skipped.
"""

import ast
import subprocess
import sys
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


def test_the_engine_imports_no_scipy():
    # scipy is a test-only oracle: a fresh isolated interpreter that imports
    # the package and its CLI, validates a config and runs one small drop
    # holds no scipy module
    root = TESTS.parent
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import cfisac, cfisac.cli\n"
        "from cfisac.config import ExperimentConfig\n"
        "from cfisac.harness import run_drop\n"
        "assert cfisac.cli.main(['validate-config', '--config', sys.argv[2]]) == 0\n"
        "cfg = ExperimentConfig(m_aps=10, k_ues=6, t_targets=2, l_regions=1, n_antennas=4,\n"
        "                       q_serving=2, m_tx_per_region=3, m_rx_per_region=2, n_fading=4)\n"
        "assert run_drop(cfg, 0).statistics.size\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    config = root / "configs" / "baseline.cfg"
    argv = [sys.executable, "-I", "-c", code, str(root / "src"), str(config)]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
