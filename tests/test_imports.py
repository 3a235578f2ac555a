"""Every name a module of the package imports is used in that module, every
name a module exports is imported somewhere, every name a package
``__init__`` re-exports is imported from that package somewhere, and the
CLI starts without SciPy."""

import ast
import functools
import os
import subprocess
import sys
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


def _package(path: Path) -> str:
    """The dotted package a source file under ``src`` belongs to."""
    return ".".join(path.parent.relative_to(ROOT / "src").parts)


@functools.cache
def imported_from_package() -> dict:
    """For each module name, the names a ``from <module> import`` takes from
    it across the source, the tests and the benchmark, relative imports
    resolved; a package ``__init__`` is not counted for itself."""
    names = {}
    for top in ("src", "tests", "layerbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.ImportFrom):
                    continue
                module = node.module or ""
                if node.level:
                    parts = _package(path).split(".")
                    base = parts[: len(parts) - node.level + 1]
                    module = ".".join(base + ([module] if module else []))
                    if path.name == "__init__.py" and module == _package(path):
                        continue
                names.setdefault(module, set()).update(alias.name for alias in node.names)
    return names


def reexported(path: Path) -> list:
    """The names a package ``__init__`` binds by importing them from its modules."""
    return [
        alias.asname or alias.name
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    ]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("__init__.py")), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_every_reexport_is_imported_from_its_package(path):
    names = imported_from_package().get(_package(path), set())
    assert [name for name in reexported(path) if name not in names] == []


def test_importing_the_cli_leaves_scipy_unloaded():
    # SciPy serves scenario and training-set generation alone, so allocate and
    # train, which generate neither, do not pay for its import
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    code = "import sys, edgealloc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"
