"""Every name a package module imports is used in that module.

`__init__` is exempt: its imports are the package's re-exports.  Only
`linalg`, which owns the number rule, and `report`, which renders
Fractions, import `fractions`.
"""
import ast
from pathlib import Path

import pytest

import segrecone

MODULES = sorted(p for p in Path(segrecone.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def imported_modules(source: str) -> set[str]:
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
    return out


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom x import y as z\nz()\n") == \
        ["os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_only_linalg_and_report_import_fractions():
    assert "fractions" in imported_modules("from fractions import Fraction")
    users = {p.stem for p in MODULES
             if "fractions" in imported_modules(p.read_text(encoding="utf-8"))}
    assert users == {"linalg", "report"}
