"""The scalar reference model stays in the tests: no library module defines it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import cfisac

REFERENCE = Path(__file__).with_name("reference.py")


def _defined_names(path: Path) -> set[str]:
    """Public names bound at the top level of a module, imports excluded."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


def test_library_holds_no_reference_api():
    names = _defined_names(REFERENCE)
    assert {
        "build_plan", "draw_ap_ap_channel", "communication_sinr", "contains_xy", "law_normals",
        "sample_rows", "write_arm_by_row",
    } <= names
    modules = [cfisac] + [
        importlib.import_module(f"cfisac.{info.name}")
        for info in pkgutil.iter_modules(cfisac.__path__)
    ]
    clashes = sorted(
        f"{module.__name__}.{name}"
        for module in modules
        for name in names
        if hasattr(module, name)
    )
    assert not clashes, clashes
