"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import lostructure

MODULES = sorted(p for p in Path(lostructure.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


# Private functions kept although nothing in the library calls them, with the reason.
UNCALLED_PRIVATE = {
    ("beta.py", "_rank1_candidates"): "the _rank1_scan oracle in tests/test_beta.py calls it",
}


def _referenced_names(node) -> set:
    """Loaded names, attribute names and from-imported names under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_private_functions_have_a_caller():
    paths = sorted(Path(lostructure.__file__).parent.glob("*.py"))
    statements = [(p.name, stmt) for p in paths for stmt in ast.parse(p.read_text(encoding="utf-8")).body]
    uncalled = []
    for name, stmt in statements:
        if not (isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_") and not stmt.name.startswith("__")):
            continue
        if (name, stmt.name) in UNCALLED_PRIVATE:
            continue
        # references inside the function's own definition (recursion) do not count
        if not any(stmt.name in _referenced_names(other) for _, other in statements if other is not stmt):
            uncalled.append(f"{name}:{stmt.name}")
    assert uncalled == []
