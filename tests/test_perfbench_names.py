"""Every gradmine name the benchmark under ``perfbench/`` reaches exists.

Parsed, not imported: each name of a ``from gradmine import`` line, each
``<module>.<name>`` that the worker, the tracer and perfbench's own test
read off such a module, and each name the tracer wraps must resolve.
"""

import ast
import functools
import importlib
from pathlib import Path
from types import ModuleType

import pytest

import gradmine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: Names the tracer wraps or perfbench's test reads that gradmine no
#: longer has, as (owner, name).  The tracer's ``patch`` skips a missing
#: name without a word, so the metrics it feeds read 0 until the tracer
#: is repointed; a name that exists again must leave this set.
KNOWN_MISSING = {
    ("fitness", "decode"),
    ("fitness", "to_pattern"),
    ("search", "decode"),
    ("search", "encode"),
    ("search", "enumerate_valid"),
    ("search", "evaluate_with_index"),
    ("encoding", "InvalidCandidate"),
}


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


def module_reads(path: Path) -> list[tuple[str, str]]:
    """Each ``<module>.<name>`` a script reads off a gradmine module it
    imports, as (module, name)."""
    modules = {k for k, v in imported(path).items() if isinstance(v, ModuleType)}
    reads = [
        (node.value.id, node.attr)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    assert reads, f"the parse found no module attribute read in {path.name}"
    return reads


def wrapped_names(path: Path) -> list[tuple[str, str]]:
    """The (owner, name) of each ``simple(owner, "name", …)`` and
    ``patch(owner, "name", …)`` call, with a loop's owner variable
    expanded to every owner of its ``for owner in (…)`` tuple."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    loop_owners = {}
    for loop in ast.walk(tree):
        if isinstance(loop, ast.For) and isinstance(loop.iter, ast.Tuple):
            for node in ast.walk(loop):
                loop_owners[node] = (loop.target.id, loop.iter.elts)
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("simple", "patch")
            and isinstance(node.args[1], ast.Constant)
        ):
            owner = node.args[0]
            variable, owners = loop_owners.get(node, (None, ()))
            if not (isinstance(owner, ast.Name) and owner.id == variable):
                owners = [owner]
            found += [(ast.unparse(o), node.args[1].value) for o in owners]
    assert found, f"the parse found no wrapped name in {path.name}"
    return found


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_imported_names_exist(path):
    imported(path)


def test_worker_module_attributes_exist():
    modules = imported(PERFBENCH / "worker.py")
    for module, attr in module_reads(PERFBENCH / "worker.py"):
        assert hasattr(modules[module], attr), f"worker.py reads {module}.{attr}: no such name"


def test_tracer_and_perfbench_test_names_exist_but_the_known_misses():
    # ``patch`` looks a name up in the owner's own namespace, so a name
    # reached only through a base class or an import elsewhere is missing.
    tracer = PERFBENCH / "tracing.py"
    modules = imported(tracer)
    missing = set()
    for owner, name in wrapped_names(tracer):
        first, *rest = owner.split(".")
        if name not in vars(functools.reduce(getattr, rest, modules[first])):
            missing.add((owner, name))
    for path in (tracer, PERFBENCH / "test_perfbench.py"):
        modules = imported(path)
        missing |= {(m, name) for m, name in module_reads(path) if not hasattr(modules[m], name)}
    new, found_again = missing - KNOWN_MISSING, KNOWN_MISSING - missing
    assert not new, f"perfbench reaches names gradmine lacks: {sorted(new)}"
    assert not found_again, f"these exist again; drop them from KNOWN_MISSING: {sorted(found_again)}"
