"""Every name a module of the package imports is used in that module, and
every name a module exports is imported somewhere."""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "edgealloc"
# __init__.py files import names only to re-export them
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def exported(source: str) -> list:
    """The names in a module's ``__all__``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


@functools.cache
def imported_by_name() -> frozenset:
    """Every name a ``from ... import`` brings in across the source, the
    tests and the benchmark, leaving out the package's re-exports."""
    names = set()
    for top in ("src", "tests", "layerbench"):
        for path in (ROOT / top).rglob("*.py"):
            if path.name == "__init__.py" and path.is_relative_to(PACKAGE):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
    return frozenset(names)


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_every_exported_name_is_imported_somewhere(path):
    names = imported_by_name()
    assert [name for name in exported(path.read_text(encoding="utf-8")) if name not in names] == []
