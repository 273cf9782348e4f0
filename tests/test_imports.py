"""Every module of the package uses every name it imports, every name it
exports or defines at module level is read somewhere in it or named in the
README, and the command line imports only what its commands need.

No linter runs on the package, and moving a helper from one module to
another tends to leave its old import behind; this is the stdlib check.
"""

import ast
import os
import re
import subprocess
import sys
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


# the margin LP is read in one place
MARGIN_NAMES = {"_margin"}


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
        "from .functionals import LinFun, _margin\n"
        "from . import functionals\n"
        "functionals._margin([], [])\n"
        "_margin_free = 1\n"
    )
    assert _margin_uses(source) == ["_margin", "_margin"]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "functionals.py"),
    ids=lambda p: p.stem,
)
def test_only_functionals_reads_the_margin_lp(path):
    assert _margin_uses(path.read_text(encoding="utf-8")) == []


# Every check of a certificate is in certify, which runs none of the
# algorithms it checks, and raises the package's one internal error.
CHECKER_DEPS = {"extreal"}
# certify's functions and the private checks they replaced
CHECKS = {"require", "simplex", "in_corner", "combination_point", "verify_separated",
          "verify_meets_corner", "covered", "refutes", "_verified", "_covered", "_require"}


def _package_imports(source):
    """The package modules a module imports from, anywhere in it, function
    bodies included, as stems: ``from .lp``, ``from . import lp``,
    ``from conedual.lp``, ``from conedual import lp`` and ``import
    conedual.lp`` all give ``lp``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "conedual":
                    continue
                module = module.partition(".")[2]
            if module:
                found.add(module.split(".")[0])
            else:
                found |= {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("conedual.")}
    return found


def _raises_assertion(source):
    """True when the module raises ``AssertionError`` itself, called or not."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                return True
    return False


def test_the_checks_find_package_imports_and_raised_assertions():
    source = (
        "from . import lp\n"
        "from .extreal import ONE\n"
        "from fractions import Fraction\n"
        "def f(ok):\n"
        "    assert ok\n"
        "    raise AssertionError\n"
    )
    assert _package_imports(source) == {"lp", "extreal"}
    assert _raises_assertion(source)
    assert not _raises_assertion("raise ValueError('x')\nassert False\n")
    nested = (
        "import conedual.interpolate, os.path\n"
        "from conedual import convex_sep\n"
        "def f(rep, y):\n"
        "    from .functionals import minkowski\n"
        "    from conedual.finspace import FinitePoset\n"
        "    return minkowski(rep, y)\n"
    )
    assert _package_imports(nested) == {"interpolate", "convex_sep", "functionals", "finspace"}


def test_certify_imports_nothing_from_the_package_but_extreal():
    source = (PACKAGE / "certify.py").read_text(encoding="utf-8")
    assert _package_imports(source) == CHECKER_DEPS
    assert _raises_assertion(source)


def _stdlib_imports(source):
    """The top-level modules a module imports outside the package, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and not node.level and node.module:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
    return found


def test_the_check_finds_a_fractions_import():
    source = "import fractions.x\ndef f():\n    from fractions import Fraction\nfrom .extreal import ExtVec\n"
    assert _stdlib_imports(source) == {"fractions"}
    assert _stdlib_imports("from math import lcm\nfrom . import fractions\n") == {"math"}


# certificates are ExtVecs from the LP's integers on, so their builder and checker need no Fraction
@pytest.mark.parametrize("stem", ["convex_sep", "certify"])
def test_certificate_modules_import_nothing_from_fractions(stem):
    source = (PACKAGE / f"{stem}.py").read_text(encoding="utf-8")
    assert "fractions" not in _stdlib_imports(source)


# The oracles decide what lp, convex_sep, functionals and interpolate decide,
# by other means, so they read nothing of those modules.
ORACLE_DEPS = {"extreal"}


def test_oracles_import_nothing_from_the_package_but_extreal():
    source = (PACKAGE / "oracles.py").read_text(encoding="utf-8")
    assert _package_imports(source) == ORACLE_DEPS


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "certify.py"),
    ids=lambda p: p.stem,
)
def test_only_certify_raises_an_internal_error_or_defines_a_check(path):
    source = path.read_text(encoding="utf-8")
    assert not _raises_assertion(source), f"{path.name} raises AssertionError"
    defined = sorted(CHECKS.intersection(_definitions(source)))
    assert defined == [], f"{path.name} defines {defined}"
    if path.stem == "convex_sep":
        assert "_fractions" not in _definitions(source)


# The traced benchmark times each LP by wrapping the public ``solve_lp`` where
# a caller binds it at module level.  A call through a private solve, a
# nested import or the ``lp`` module object would drop that caller's LPs
# from the traced counts without a failure.
SOLVER_CALLERS = ("convex_sep", "functionals")


def _solver_reach(source):
    """``(top, other, calls)``: the names a module's module-level imports from
    ``lp`` bind, every other import of ``lp`` (nested, or of the module
    object), and the callees whose name mentions ``solve``, an attribute
    call written as ``.name``."""
    tree = ast.parse(source)
    top, other, calls = [], [], []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module in ("lp", "conedual.lp"):
            top += [a.asname or a.name for a in node.names]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("lp", "conedual.lp") and node not in tree.body:
                other += [a.name for a in node.names]
            elif node.module in (None, "conedual"):
                other += [a.name for a in node.names if a.name == "lp"]
        elif isinstance(node, ast.Import):
            other += [a.name for a in node.names if a.name == "conedual.lp"]
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and "solve" in node.func.id:
                calls.append(node.func.id)
            elif isinstance(node.func, ast.Attribute) and "solve" in node.func.attr:
                calls.append("." + node.func.attr)
    return top, other, calls


def test_the_check_finds_every_way_to_the_solver():
    source = (
        "from .lp import LPProblem, _solve as solve_lp\n"
        "from . import lp\n"
        "def f(p):\n"
        "    from .lp import _solve\n"
        "    return solve_lp(p), lp._solve(p), _solve(p)\n"
    )
    top, other, calls = _solver_reach(source)
    assert top == ["LPProblem", "solve_lp"]
    assert sorted(other) == ["_solve", "lp"]
    assert calls == ["solve_lp", "._solve", "_solve"]


def _private_lp_imports(source):
    """The private names a module imports from ``lp``, wherever it does."""
    return [a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module in ("lp", "conedual.lp")
            for a in node.names if a.name.startswith("_")]


@pytest.mark.parametrize("stem", SOLVER_CALLERS)
def test_lp_callers_reach_the_solver_through_module_level_solve_lp(stem):
    source = (PACKAGE / f"{stem}.py").read_text(encoding="utf-8")
    top, other, calls = _solver_reach(source)
    assert "solve_lp" in top, f"{stem} binds no module-level solve_lp"
    assert other == [], f"{stem} also reaches lp through {other}"
    assert calls and set(calls) == {"solve_lp"}, f"{stem} calls {calls}"


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "lp.py"),
    ids=lambda p: p.stem,
)
def test_no_module_imports_a_private_solve(path):
    names = _private_lp_imports(path.read_text(encoding="utf-8"))
    assert [n for n in names if "solve" in n] == [], f"{path.name} imports {names}"


# Every conedual process pays for what ``import conedual.cli`` loads.  Only
# ``check`` needs the property suites and their oracles, and no command needs
# these stdlib modules.
NOT_LOADED_BY_CLI = ("conedual.suites", "conedual.oracles", "dataclasses", "inspect", "random",
                     "pathlib")
# the layers perfbench/spans.py wraps, which it finds loaded once cli is
TRACED_LAYERS = ("cli", "jsonio", "convex_sep", "interpolate", "functionals", "lp", "extreal",
                 "finspace", "valuations")


def test_importing_the_cli_loads_only_what_every_command_needs():
    code = ("import sys; before = set(sys.modules); import conedual.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=path))
    loaded = set(proc.stdout.split())
    assert {f"conedual.{layer}" for layer in TRACED_LAYERS} <= loaded
    assert sorted(loaded.intersection(NOT_LOADED_BY_CLI)) == []


# Every name the package exports, and every module-level def and class, is
# read somewhere in the package or named in the README; what only its own
# tests call is dead weight on the public surface.
README = PACKAGE.parent.parent / "README.md"


def _module_reads(source):
    """The names a module reads: loaded names, attribute names and the
    modules it imports from.  A module-level def or class reading its own
    name inside its body does not count."""
    reads = set()
    for top in ast.parse(source).body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.ImportFrom) and node.module:
                name = node.module.rsplit(".", 1)[-1]
            else:
                continue
            if name != own:
                reads.add(name)
    return reads


def _definitions(source):
    """The names of a module's module-level ``def`` and ``class`` statements."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _exports(init_source):
    """The names ``__init__`` binds in its ``from ... import`` blocks."""
    return [a.asname or a.name for node in ast.parse(init_source).body
            if isinstance(node, ast.ImportFrom) for a in node.names]


def _readme_names(text):
    """The identifiers inside the README's code spans and code blocks."""
    return {word for span in re.findall(r"`+([^`]+)`+", text)
            for word in re.findall(r"[A-Za-z_]\w*", span)}


def _unread(sources, readme):
    """``(exports, definitions)`` that no module reads and the README does
    not name, given the package as ``{stem: source}``."""
    named = _readme_names(readme)
    reads = set()
    defined = []
    for stem, source in sources.items():
        if stem == "__init__":
            continue
        defined += _definitions(source)
        reads |= _module_reads(source)
    known = reads | named
    exports = [name for name in _exports(sources["__init__"]) if name not in known]
    return exports, [name for name in defined if name not in known]


def test_the_check_finds_an_unused_export_and_an_unused_helper():
    sources = {
        "__init__": "from .a import used, unused\nfrom . import b, c\n",
        "a": ("def used():\n    return _helper()\n\n"
              "def _helper():\n    return 1\n\n"
              "def unused():\n    return used()\n\n"
              "def _orphan():\n    return _orphan()\n"),
        "b": "from .a import used\n\nclass Shown:\n    pass\n\nused()\n",
        "c": "from .b import Shown\n\nShown()\n",
    }
    readme = "Call `Shown()`; the word unused names nothing.\n"
    assert _unread(sources, readme) == (["unused", "c"], ["unused", "_orphan"])


def _package_unread():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    return _unread(sources, README.read_text(encoding="utf-8"))


def test_every_export_is_read_by_the_package_or_named_in_the_readme():
    exports = _package_unread()[0]
    assert exports == [], f"exported but unused: {exports}"


def test_every_module_level_definition_is_read_by_the_package_or_named_in_the_readme():
    definitions = _package_unread()[1]
    assert definitions == [], f"defined but unused: {definitions}"


def test_the_package_and_pyproject_agree_on_the_version():
    pyproject = (PACKAGE.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1)
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    version = next(node.value.value for node in init.body if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["__version__"])
    assert version == declared
