"""No nested function of the library may refer to its own name.

A nested function that calls itself by name reads itself from its closure
cell, so the function, the cell and everything else the closure holds form
a reference cycle: it outlives the call until the cyclic collector runs.
``cli.main`` pauses that collector for the whole command, so such a cycle
would keep, say, a permutation search's word lists and tables alive until
the command returns.  Recursion in a nested function is written with an
explicit stack instead.  Module-level functions and methods look themselves
up as globals or attributes, which makes no cycle, so they are not checked.
"""

import ast
import pathlib

from test_no_unused_params import _params, _reads

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lcpcodes"

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def self_referencing_closures(source: str, filename: str = "<source>"):
    """``file:line: outer.inner`` of every function defined inside another
    function whose body reads its own name."""
    found = []

    def visit(node, qualname, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFS):
                name = f"{qualname}.{child.name}" if qualname else child.name
                if in_function and child.name not in _params(child) and _reads(child.name, child.body):
                    found.append(f"{filename}:{child.lineno}: {name}")
                visit(child, name, True)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{qualname}.{child.name}" if qualname else child.name, False)
            else:
                visit(child, qualname, in_function)

    visit(ast.parse(source, filename=filename), "", False)
    return found


def test_library_has_no_self_referencing_closures():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        found += self_referencing_closures(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_the_check_sees_a_self_referencing_closure():
    source = (
        "def outer():\n"
        "    def rec(k):\n"
        "        return rec(k - 1) if k else 0\n"
        "    def fine(x):\n"
        "        return x\n"
        "    def shadowed(rec):\n"
        "        return rec\n"
        "    def own(own):\n"
        "        return own\n"
        "    def deep():\n"
        "        return lambda: deep\n"
        "    def hidden():\n"
        "        return lambda hidden: hidden\n"
        "    return rec, fine, shadowed, own, deep, hidden\n"
        "def top(k):\n"
        "    return top(k - 1) if k else 0\n"
        "class K:\n"
        "    def m(self):\n"
        "        def walk(n):\n"
        "            return walk(n - 1) if n else self\n"
        "        return K.m, walk\n"
        "def make():\n"
        "    class L:\n"
        "        def m(self):\n"
        "            return m\n"
        "    return L\n"
    )
    assert self_referencing_closures(source) == [
        "<source>:2: outer.rec",
        "<source>:10: outer.deep",
        "<source>:19: K.m.walk",
    ]
