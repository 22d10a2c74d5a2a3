"""Every name a package module imports is used in that module, and every
name it defines is read somewhere in the package or its tests.

`__init__` is exempt: its imports are the package's re-exports.  Only
`linalg`, which owns the number rule, and `report`, which renders
Fractions, import `fractions`.
"""
import ast
from functools import cache
from pathlib import Path

import pytest

import segrecone

PACKAGE = Path(segrecone.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = sorted(PACKAGE.glob("*.py")) + sorted(
    Path(__file__).parent.glob("*.py"))


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


def defined_names(source: str) -> dict[str, int]:
    """Functions, classes, module and class constants, and ``self.``
    attributes defined in ``source``, by line; dunder names are left out."""
    tree = ast.parse(source)
    out = {}

    def define(name, node):
        if not (name.startswith("__") and name.endswith("__")):
            out.setdefault(name, node.lineno)

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            define(node.name, node)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            define(node.attr, node)
    for scope in [tree] + [n for n in ast.walk(tree)
                           if isinstance(n, ast.ClassDef)]:
        for node in scope.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        define(name.id, name)
    return out


def loaded_names(source: str) -> set[str]:
    """Names and attributes that ``source`` reads."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            out.add(node.attr)
    return out


def dead_names(source: str, loaded: set[str]) -> list[str]:
    return sorted(f"{name} (line {line})"
                  for name, line in defined_names(source).items()
                  if name not in loaded)


@cache
def names_read_by_package_and_tests() -> set[str]:
    return set().union(*(loaded_names(p.read_text(encoding="utf-8"))
                         for p in READERS))


def test_the_scan_finds_a_dead_name():
    source = ("A, B = 1, 2\n"
              "class K:\n"
              "    C: int = 3\n"
              "    D = 4\n"
              "    def __init__(self):\n"
              "        self.e = self.f = 5\n"
              "    def g(self):\n"
              "        return self.e + A + K.C\n"
              "def h():\n"
              "    pass\n")
    loaded = loaded_names(source) | loaded_names("K().g()\n")
    assert dead_names(source, loaded) == \
        ["B (line 1)", "D (line 4)", "f (line 6)", "h (line 9)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_defines_only_names_that_are_read(path):
    assert dead_names(path.read_text(encoding="utf-8"),
                      names_read_by_package_and_tests()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_only_linalg_and_report_import_fractions():
    assert "fractions" in imported_modules("from fractions import Fraction")
    users = {p.stem for p in MODULES
             if "fractions" in imported_modules(p.read_text(encoding="utf-8"))}
    assert users == {"linalg", "report"}
