"""Every name a module imports is read somewhere in that module.

Each module of the package, the tests and the tools is parsed with
``ast``; a name bound by an ``import`` or ``from ... import`` statement
must be read (a ``Name`` load, the base of an attribute chain included)
or listed in the module's ``__all__``.  ``from __future__`` imports and
the package's ``__init__.py`` re-exports are exempt.

No function nested inside a function of the package calls itself by
name: such a closure and the cell that holds it form a reference cycle,
which keeps whatever the closure reads (a memo, the expression it walks)
alive until the cyclic collector runs.  A recursive walker is written at
module level with its state passed in."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src/kk6", "tests", "tools")
                 for p in (ROOT / d).glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted((ROOT / "src/kk6").glob("*.py"))


def _bound(node) -> list:
    """The names an import statement binds, with its line."""
    if isinstance(node, ast.Import):
        return [(a.asname or a.name.split(".")[0], node.lineno)
                for a in node.names]
    if node.module == "__future__":
        return []
    return [(a.asname or a.name, node.lineno)
            for a in node.names if a.name != "*"]


def _exported(tree) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {e.value for e in node.value.elts
                    if isinstance(e, ast.Constant)}
    return set()


def unused_imports(source: str) -> list:
    """``(name, line)`` of each imported name ``source`` never reads."""
    tree = ast.parse(source)
    read = _exported(tree)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += _bound(node)
    return [(name, line) for name, line in bound if name not in read]


def test_the_scan_finds_each_kind_of_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "import numpy as np\n"
              "from fractions import Fraction\n"
              "from math import pi as PI, tau\n"
              "__all__ = ['tau']\n"
              "def f():\n"
              "    import json\n"
              "    return os.sep\n")
    assert unused_imports(source) == [("np", 3), ("Fraction", 4),
                                      ("PI", 5), ("json", 8)]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def self_calling_closures(source: str) -> list:
    """``(name, line)`` of each function nested inside another function
    that calls itself by name."""
    tree = ast.parse(source)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, defs):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, defs):
                continue
            if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == inner.name for n in ast.walk(inner)):
                found.add((inner.name, inner.lineno))
    return sorted(found, key=lambda f: f[1])


def test_the_scan_finds_a_self_calling_closure():
    source = ("def walk(n):\n"
              "    return n and walk(n - 1)\n"
              "def outer(e):\n"
              "    memo = {}\n"
              "    def count(n):\n"
              "        def deeper(m):\n"
              "            return deeper(m - 1) if m else 0\n"
              "        return memo.setdefault(n, count(n - 1) if n else 0)\n"
              "    def once(n):\n"
              "        return walk(n)\n"
              "    return count(e) + once(e)\n")
    assert self_calling_closures(source) == [("count", 5), ("deeper", 6)]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_no_nested_function_calls_itself(path):
    assert self_calling_closures(path.read_text()) == []
