"""Every gradmine name the benchmark under ``perfbench/`` reaches exists.

Parsed, not imported: each name of a ``from gradmine import`` line, and
each ``<module>.<name>`` the worker reads off such a module, must resolve.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

import gradmine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def imported(path: Path) -> dict[str, object]:
    """What a script's ``from gradmine import`` lines bind, by local name."""
    bound = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "gradmine":
            for alias in node.names:
                try:
                    value = importlib.import_module(f"gradmine.{alias.name}")
                except ModuleNotFoundError:
                    value = getattr(gradmine, alias.name)
                bound[alias.asname or alias.name] = value
    return bound


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_imported_names_exist(path):
    imported(path)


def test_worker_module_attributes_exist():
    path = PERFBENCH / "worker.py"
    modules = {k: v for k, v in imported(path).items() if isinstance(v, ModuleType)}
    reads = [
        (node.value.id, node.attr)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    assert reads, "the parse found no module attribute read"
    for module, attr in reads:
        assert hasattr(modules[module], attr), f"worker.py reads {module}.{attr}: no such name"
