"""No module of the library may import a name it neither uses nor exports.

A name bound by an import must be read somewhere in its module, or be listed
in the module's ``__all__`` (as the package ``__init__`` re-exports).  Code
deletions tend to leave such imports behind.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lcpcodes"


def _imported(tree):
    """(bound name, line) of every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    """The string entries of every ``__all__ = [...]`` or ``__all__ += [...]``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            names.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return names


def unused_imports(source: str, filename: str = "<source>"):
    tree = ast.parse(source, filename=filename)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported(tree)
    return [
        f"{filename}:{line}: {name}"
        for name, line in _imported(tree)
        if name != "*" and name not in used and name not in exported
    ]


def test_library_has_no_unused_imports():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        found += unused_imports(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import itertools\n"
        "import os.path\n"
        "from collections import Counter, deque as dq\n"
        "from math import prod\n"
        "__all__ = ['prod']\n"
        "x = itertools.count(os.sep)\n"
    )
    assert unused_imports(source) == ["<source>:4: Counter", "<source>:4: dq"]
