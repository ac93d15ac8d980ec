"""Every name a module imports is read somewhere in that module.

Each module of the package, the tests and the tools is parsed with
``ast``; a name bound by an ``import`` or ``from ... import`` statement
must be read (a ``Name`` load, the base of an attribute chain included)
or listed in the module's ``__all__``.  ``from __future__`` imports and
the package's ``__init__.py`` re-exports are exempt."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src/kk6", "tests", "tools")
                 for p in (ROOT / d).glob("*.py") if p.name != "__init__.py")


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
