"""No module of the library may keep state of its own.

What the library learns about an object (a form's generator polynomial, a
group's translation maps, a code's dual) lives on that object, so it goes
when the object goes and no answer depends on what ran before.  So every
module-level assignment in ``src/lcpcodes`` must bind a constant: an int, a
str, a tuple of constants, a ``1 << k`` expression, or ``__all__``; no
function may rebind a module name (``global``); and the one memoizing
decorator (``functools.cache`` or ``lru_cache``) allowed is the one on
``cli._parser``, which keeps the argument parser and takes no argument.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lcpcodes"
MEMO_ALLOWED = {("cli.py", "_parser")}
MEMOS = {"cache", "lru_cache"}


def _constant(node) -> bool:
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, str)
    if isinstance(node, ast.Tuple):
        return all(map(_constant, node.elts))
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.LShift)
        and all(isinstance(side, ast.Constant) and type(side.value) is int for side in (node.left, node.right))
    )


def _exports(node) -> bool:
    return (
        isinstance(node, ast.Assign)
        and [ast.unparse(t) for t in node.targets] == ["__all__"]
        and isinstance(node.value, (ast.List, ast.Tuple))
        and all(isinstance(e, ast.Constant) and type(e.value) is str for e in node.value.elts)
    )


def _module_statements(body):
    """The statements run at module level: the body, and the bodies of its
    compound statements other than defs and classes."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        for name in ("body", "orelse", "finalbody", "handlers"):
            yield from _module_statements(getattr(node, name, []))


def _memo_name(decorator) -> str:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")


def module_state(sources: dict) -> list:
    """``file:line: what`` for every piece of module state in ``sources``
    (file name -> source)."""
    found = []
    for filename, text in sources.items():
        tree = ast.parse(text, filename=filename)
        for node in _module_statements(tree.body):
            if isinstance(node, ast.AugAssign) or (
                isinstance(node, (ast.Assign, ast.AnnAssign))
                and not (_exports(node) or (node.value is not None and _constant(node.value)))
            ):
                found.append(f"{filename}:{node.lineno}: {ast.unparse(node)[:60]}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.append(f"{filename}:{node.lineno}: global {', '.join(node.names)}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (filename, node.name) not in MEMO_ALLOWED:
                found += [
                    f"{filename}:{node.lineno}: @{ast.unparse(d)} on {node.name}"
                    for d in node.decorator_list
                    if _memo_name(d) in MEMOS
                ]
    return found


def test_the_library_keeps_no_module_state():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert module_state({path.name: path.read_text(encoding="utf-8") for path in files}) == []


def test_module_state_is_seen():
    source = """
from functools import cache, lru_cache
from weakref import WeakKeyDictionary

LIMIT = 1 << 12
NAMES = ("a", 2)
_KNOWN = WeakKeyDictionary()
_SEEN: dict = {}
_COUNT = 0
_COUNT += 1
if True:
    _LATE = []

@cache
def table(n):
    global _COUNT
    return n

class Kit:
    @lru_cache(maxsize=None)
    def load(self, row):
        return row

def _parser():
    return None
"""
    found = module_state({"mod.py": source})
    assert sorted(line.split(": ", 1)[1] for line in found) == sorted([
        "_KNOWN = WeakKeyDictionary()",
        "_SEEN: dict = {}",
        "_COUNT += 1",
        "_LATE = []",
        "global _COUNT",
        "@cache on table",
        "@lru_cache(maxsize=None) on load",
    ])
    assert module_state({"cli.py": "from functools import cache\n@cache\ndef _parser():\n    pass\n"}) == []
