"""Every module of the package uses every name it imports.

No linter runs on the package, and moving a helper from one module to
another tends to leave its old import behind; this is the stdlib check.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "conedual"
# cli binds jsonio only for the traced benchmark, which wraps names through it
ALLOWED = {("cli", "jsonio")}


def _unused_imports(source):
    """The names a module imports and never reads, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "from math import gcd, lcm as l\n"
        "print(gcd(4, 6), os.sep)\n"
    )
    assert _unused_imports(source) == ["l"]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem,
)
def test_module_uses_every_import(path):
    unused = [name for name in _unused_imports(path.read_text(encoding="utf-8"))
              if (path.stem, name) not in ALLOWED]
    assert unused == [], f"{path.name} imports {unused} without using them"


# the margin LP and its certificate check are read and checked in one place
MARGIN_NAMES = {"_margin", "_covered"}


def _margin_uses(source):
    """The names of ``MARGIN_NAMES`` a module imports or reads as attributes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in MARGIN_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in MARGIN_NAMES:
            found.append(node.attr)
    return found


def test_the_check_finds_a_margin_import():
    source = (
        "from .functionals import LinFun, _covered\n"
        "from . import functionals\n"
        "functionals._margin([], [])\n"
        "_margin_free = 1\n"
    )
    assert _margin_uses(source) == ["_covered", "_margin"]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "functionals.py"),
    ids=lambda p: p.stem,
)
def test_only_functionals_reads_the_margin_lp(path):
    assert _margin_uses(path.read_text(encoding="utf-8")) == []
