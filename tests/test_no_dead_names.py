"""No module of the library may export a name it lacks or keep a def that
nothing calls.

Every ``__all__`` entry of every ``lcpcodes`` module must resolve, and every
function, method or class, private (``_name``) or public, must be referenced
somewhere in the library outside its own definition; a public one only
``KEPT`` names may go unread.  Code deletions tend to leave such names
behind, and a library API that no command reads is code with no caller.
"""

import ast
import importlib
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lcpcodes"

_TRACED = "traced by perfbench/spans.py, whose per-layer metrics need it (ROADMAP item 7)"

# public defs that no library code reads, each with why it stays
KEPT = {
    "find_permutation": _TRACED,
    "verify_permutation": _TRACED,
    "code_intersect": _TRACED,
    "RingMatrix.make": "the checked constructor for rows given from outside the library",
    "GroupCode.codewords": "lists a code's words as algebra elements for library callers",
    "GroupAlgebra.basis": "the basis elements 1 * g_i for library callers",
    "GroupAlgebra.crt_lift": "the checked inverse of GroupAlgebra.crt_project for library callers",
    "_Parser.error": "argparse calls it on a malformed command line",
}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _defs(tree, prefix=""):
    """(qualified name, node) of every def or class in ``tree``, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + node.name
            yield qualname, node
            yield from _defs(node, qualname + ".")
        else:
            yield from _defs(node, prefix)


def unread_defs(sources: dict, wanted) -> list:
    """(file, line, qualified name) of every def or class in ``sources``
    (file name -> source) whose name passes ``wanted`` and that no
    expression reads outside the def itself.  A read is a name or an
    attribute with the def's name, so imports and ``__all__`` strings are
    not reads."""
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    refs = []  # (file, line, name)
    for filename, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((filename, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((filename, node.lineno, node.attr))
    dead = []
    for filename, tree in trees.items():
        for qualname, node in _defs(tree):
            if not wanted(node.name):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(
                name == node.name and not (where == filename and line in inside)
                for where, line, name in refs
            ):
                dead.append((filename, node.lineno, qualname))
    return dead


def unreferenced_private_defs(sources: dict):
    """``file:line: name`` of every private def or class in ``sources`` that
    no expression reads outside the def itself."""
    dead = unread_defs(sources, _is_private)
    return [f"{where}:{line}: {qualname.rpartition('.')[2]}" for where, line, qualname in dead]


def test_every_export_resolves():
    missing = []
    for path in sorted(SRC.glob("*.py")):
        stem = "lcpcodes" if path.stem == "__init__" else f"lcpcodes.{path.stem}"
        module = importlib.import_module(stem)
        missing += [f"{stem}.{name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_every_private_def_is_used():
    files = sorted(SRC.glob("*.py"))
    assert files
    sources = {path.name: path.read_text(encoding="utf-8") for path in files}
    assert unreferenced_private_defs(sources) == []


def test_the_check_sees_a_dead_private_def():
    sources = {
        "a.py": (
            "def _used():\n"
            "    return 1\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "class _Box:\n"
            "    def _peek(self):\n"
            "        return self._peek\n"
            "    def __repr__(self):\n"
            "        return ''\n"
        ),
        "b.py": "from a import _used\nx = _used()\n",
    }
    assert unreferenced_private_defs(sources) == ["a.py:3: _recursive", "a.py:5: _Box", "a.py:6: _peek"]


def test_every_public_def_is_read():
    files = sorted(SRC.glob("*.py"))
    assert files
    sources = {path.name: path.read_text(encoding="utf-8") for path in files}
    unread = unread_defs(sources, _is_public)
    assert [f"{where}:{line}: {qualname}" for where, line, qualname in unread if qualname not in KEPT] == []
    assert sorted(qualname for _, _, qualname in unread) == sorted(KEPT)  # no stale exception


def test_the_check_sees_a_dead_public_def():
    sources = {
        "a.py": (
            "def used():\n"
            "    return 1\n"
            "def wrapper(x):\n"
            "    return used() + x\n"
            "class Box:\n"
            "    def peek(self):\n"
            "        return self.peek\n"
            "    def _hidden(self):\n"
            "        return 0\n"
        ),
        "b.py": "from a import wrapper, Box\n__all__ = ['wrapper']\nx = Box()\n",
    }
    assert unread_defs(sources, _is_public) == [("a.py", 3, "wrapper"), ("a.py", 6, "Box.peek")]
