"""No module of the library may export a name it lacks or keep a private
helper that nothing calls.

Every ``__all__`` entry of every ``lcpcodes`` module must resolve, and every
private (``_name``) function, method or class must be referenced somewhere in
the library outside its own definition.  Code deletions tend to leave such
names behind.
"""

import ast
import importlib
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lcpcodes"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unreferenced_private_defs(sources: dict):
    """``file:line: name`` of every private def or class in ``sources`` (file
    name -> source) that no expression reads outside the def itself."""
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
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not _is_private(node.name):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(
                name == node.name and not (where == filename and line in inside)
                for where, line, name in refs
            ):
                dead.append(f"{filename}:{node.lineno}: {node.name}")
    return dead


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
