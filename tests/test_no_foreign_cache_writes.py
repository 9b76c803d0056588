"""No function of the library may write a private attribute of another object.

A private attribute (a name starting with ``_``) holds an object's own
state, most often a cache of what was derived from it: a code's weights,
dual or involute.  Only the object's own code fills it: a method through
``self``, or a function through its first parameter, the object it
derives from (``code_dual(C)`` fills ``C._dual``).  A function that writes
the cache of some other object it reached (a dual's parts, a part of a
code) makes the caches point across objects, and which answer an object
holds then depends on what ran before.  So every store to a private
attribute in ``src/lcpcodes`` must go through ``self`` or through the
enclosing function's first parameter.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lcpcodes"

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def foreign_writes(source: str, filename: str = "<source>"):
    """``file:line: target`` of every store to a private attribute of an
    object other than ``self`` or the enclosing function's first
    parameter."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.ctx, ast.Store)
                and child.attr.startswith("_")
                and not (isinstance(child.value, ast.Name) and child.value.id in ("self", owner))
            ):
                found.append(f"{filename}:{child.lineno}: {ast.unparse(child)}")
            if isinstance(child, DEFS):
                params = child.args.posonlyargs + child.args.args
                visit(child, params[0].arg if params else None)
            else:
                visit(child, None if isinstance(child, ast.ClassDef) else owner)

    visit(ast.parse(source, filename=filename), None)
    return found


def test_the_library_writes_no_foreign_private_attribute():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        found += foreign_writes(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_the_check_sees_a_foreign_write():
    source = (
        "class Code:\n"
        "    def __init__(self, parts):\n"
        "        self._parts = parts\n"
        "        parts[0]._weights = None\n"
        "        self.parts._key = None\n"
        "    def fill(this):\n"
        "        this._cache = 1\n"
        "def dual(C, D):\n"
        "    C._dual = D\n"
        "    D._dual = C\n"
        "    for X in C.parts:\n"
        "        X._weights = C._weights\n"
        "    C._weights, D._key = 1, 2\n"
        "    D._count += 1\n"
        "    C.public = D.public = 0\n"
        "    def inner(X):\n"
        "        X._seen = True\n"
        "        C._seen = True\n"
        "    return inner\n"
        "module._state = 0\n"
    )
    assert foreign_writes(source) == [
        "<source>:4: parts[0]._weights",
        "<source>:5: self.parts._key",
        "<source>:10: D._dual",
        "<source>:12: X._weights",
        "<source>:13: D._key",
        "<source>:14: D._count",
        "<source>:18: C._seen",
        "<source>:20: module._state",
    ]
