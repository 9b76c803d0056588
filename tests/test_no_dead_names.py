"""No module of the library may export a name it lacks or keep a def that
nothing calls.

Every ``__all__`` entry of every ``lcpcodes`` module must resolve, and every
function, method or class, private (``_name``) or public, must be read
somewhere in the library outside its own definition; a public one only
``KEPT`` names may go unread.  Code deletions tend to leave such names
behind, and a library API that no command reads is code with no caller.

A read of a method counts for the class it resolves to where the code
shows the class: ``self`` or ``cls`` in a method, the class by name, or a
parameter annotated with it.  A read whose receiver the code does not show
counts for every method of that name while no other class defines or
assigns the name; a public method whose name is shared must instead be
entered from a library frame during the pinned runs of
``test_output_identity``.
"""

import ast
import contextlib
import importlib
import io
import pathlib
import sys
import tempfile
from collections import Counter

from lcpcodes import cli

from test_output_identity import job_sets, load_perfbench

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lcpcodes"

_TRACED = "traced by perfbench/spans.py, whose per-layer metrics need it (ROADMAP item 7)"

# public defs that no library code reads, each with why it stays
KEPT = {
    "find_permutation": _TRACED,
    "verify_permutation": _TRACED,
    "code_intersect": _TRACED,
    "_Parser.error": "argparse calls it on a malformed command line",
}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _defs(tree, prefix="", owner=None):
    """(qualified name, node, class) of every def or class in ``tree``,
    nested ones too; the class is the one whose body holds a def directly,
    else None."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + node.name
            yield qualname, node, owner
            yield from _defs(node, qualname + ".", node.name if isinstance(node, ast.ClassDef) else None)
        else:
            yield from _defs(node, prefix, owner)


def _first_line(node) -> int:
    """The line a def's code object starts on: its first decorator's."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _classes(trees):
    """{class name: (base names, names it defines, names it assigns)}; a
    class assigns the names bound in its body and the ``self.x`` it sets."""
    classes = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defined = {f.name for f in node.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
                assigned = {
                    t.id for stmt in node.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                    for t in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
                    if isinstance(t, ast.Name)
                }
                assigned |= {
                    a.attr for a in ast.walk(node)
                    if isinstance(a, ast.Attribute) and isinstance(a.ctx, ast.Store)
                    and isinstance(a.value, ast.Name) and a.value.id == "self"
                }
                bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
                classes[node.name] = (bases, defined, assigned)
    return classes


class _Reads(ast.NodeVisitor):
    """Every read in one tree as (line, name, receiver): receiver is
    "name" for a bare name, the class an attribute read resolves to, or None
    where the code does not show it."""

    def __init__(self, classes):
        self.classes = classes
        self.reads = []
        self.known = [{}]  # per scope: variable -> the class it holds
        self.owner = [None]  # the class whose body holds the next def directly

    def visit_ClassDef(self, node):
        self.owner.append(node.name)
        self.generic_visit(node)
        self.owner.pop()

    def visit_FunctionDef(self, node):
        params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        known = {k: v for k, v in self.known[-1].items() if k not in {p.arg for p in params}}
        for p in params:
            hint = p.annotation
            if isinstance(hint, ast.Name) and hint.id in self.classes:
                known[p.arg] = hint.id
            elif isinstance(hint, ast.Constant) and hint.value in self.classes:
                known[p.arg] = hint.value
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        if self.owner[-1] and params and not static:
            known[params[0].arg] = self.owner[-1]
        self.known.append(known)
        self.owner.append(None)
        self.generic_visit(node)
        self.owner.pop()
        self.known.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        self.reads.append((node.lineno, node.id, "name"))

    def visit_Attribute(self, node):
        receiver = None
        if isinstance(node.value, ast.Name):
            name = node.value.id
            receiver = self.known[-1].get(name, name if name in self.classes else None)
        if isinstance(node.ctx, ast.Load):
            self.reads.append((node.lineno, node.attr, receiver))
        self.generic_visit(node)


def unread_defs(sources: dict, wanted, trace=None) -> list:
    """(file, line, qualified name) of every def or class in ``sources``
    (file name -> source) whose name passes ``wanted`` and that nothing
    reads outside the def itself; imports and ``__all__`` strings are not
    reads.  A function or class is read by any name or attribute with its
    name.  A method is read by an attribute read that resolves to it (in
    its class, or inherited by the class the read names, or overriding it
    in a subclass of that class); an unresolved attribute read with its name
    counts too, unless another class defines or assigns that name and
    ``trace`` is given.  ``trace`` takes the set of (file, first line) of
    such methods and returns those entered from a library frame."""
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    classes = _classes(trees)

    def mro(cls):
        return [cls] + [c for b in classes[cls][0] if b in classes for c in mro(b)]

    def receivers(cls, attr):
        """The classes whose def of attr a read of attr on cls may call."""
        owners = [c for c in mro(cls) if attr in classes[c][1]][:1]
        return owners + [c for c in classes if c != cls and cls in mro(c) and attr in classes[c][1]]

    reads = []  # (file, line, name, class read or None, bare name)
    for filename, tree in trees.items():
        visitor = _Reads(classes)
        visitor.visit(tree)
        for line, name, receiver in visitor.reads:
            if receiver in (None, "name"):
                reads.append((filename, line, name, None, receiver == "name"))
            else:
                reads.extend((filename, line, name, c, False) for c in receivers(receiver, name))
    holders = Counter(name for _, defined, assigned in classes.values() for name in defined | assigned)

    verdicts, traced = [], set()
    for filename, tree in trees.items():
        for qualname, node, owner in _defs(tree):
            if not wanted(node.name):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            outside = [r for r in reads if r[2] == node.name and not (r[0] == filename and r[1] in inside)]
            if owner is None:
                read = bool(outside)
            elif any(r[3] == owner for r in outside):
                read = True
            elif trace is not None and holders[node.name] > 1:
                read = None
                traced.add((filename, _first_line(node)))
            else:
                read = any(r[3] is None and not r[4] for r in outside)
            verdicts.append((filename, node, qualname, read))
    entered = trace(traced) if traced else set()
    return [
        (filename, node.lineno, qualname)
        for filename, node, qualname, read in verdicts
        if read is False or (read is None and (filename, _first_line(node)) not in entered)
    ]


def unreferenced_private_defs(sources: dict):
    """``file:line: name`` of every private def or class in ``sources`` that
    no expression reads outside the def itself."""
    dead = unread_defs(sources, _is_private)
    return [f"{where}:{line}: {qualname.rpartition('.')[2]}" for where, line, qualname in dead]


def _modules():
    """Every module of the library, the package itself too."""
    return [
        importlib.import_module("lcpcodes" if path.stem == "__init__" else f"lcpcodes.{path.stem}")
        for path in sorted(SRC.glob("*.py"))
    ]


def entered_in_pinned_runs(wanted: set) -> set:
    """The (file, first line) pairs of ``wanted`` whose code a library frame
    calls during the pinned runs, the ``extra`` set first; the runs stop once
    every one is seen.  ``sys.settrace`` sees each Python call once, where
    ``sys.setprofile`` would also stop at every call into C."""
    files = {module.__file__: pathlib.Path(module.__file__).name for module in _modules()}
    seen = set()

    def tracer(frame, event, arg):
        caller = frame.f_back
        if caller is not None and caller.f_code.co_filename in files:
            code = frame.f_code
            key = (files.get(code.co_filename), code.co_firstlineno)
            if key in wanted:
                seen.add(key)

    with tempfile.TemporaryDirectory() as tmp:
        sets = job_sets(load_perfbench("gen"), pathlib.Path(tmp))
        runs = [argv for name in sorted(sets, key=lambda name: name != "extra") for _, _, argv, _ in sets[name]]
        before = sys.gettrace()
        for argv in runs:
            if seen == wanted:
                break
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                sys.settrace(tracer)
                try:
                    cli.main(argv)
                finally:
                    sys.settrace(before)
    return seen


def test_every_export_resolves():
    missing = [
        f"{module.__name__}.{name}"
        for module in _modules()
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
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
    unread = unread_defs(sources, _is_public, entered_in_pinned_runs)
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


SHARED = {
    "a.py": (
        "class Ring:\n"
        "    def neg(self, a):\n"
        "        return -a\n"
        "    def twice(self, a):\n"
        "        return self.neg(self.neg(a))\n"
        "class Pair:\n"
        "    def __init__(self):\n"
        "        self.twice = None\n"
        "    def neg(self, a):\n"  # dead: only Ring.neg is ever called
        "        return a\n"
        "class Sub(Ring):\n"
        "    def neg(self, a):\n"  # read: Ring.twice may call it on a Sub
        "        return a\n"
    ),
    "b.py": (
        "from a import Pair, Ring, Sub\n"
        "def run(ring: Ring, x, y):\n"
        "    return ring.twice(x) + y.neg(x)\n"
        "z = run(Sub(), 1, Pair())\n"
    ),
}


def test_the_check_sees_a_dead_method_whose_name_a_read_method_shares():
    """``y.neg`` names no class, and two classes besides ``Ring`` define
    ``neg``: ``Pair.neg`` counts as read only when the trace saw it
    entered.  ``Ring.neg`` and ``Sub.neg`` are read through ``self`` in
    ``Ring.twice``, and ``Ring.twice`` through the annotated ``ring``, though
    ``Pair`` assigns ``twice``."""
    asked = []

    def trace(wanted):
        asked.append(wanted)
        return set()

    assert unread_defs(SHARED, _is_public, trace) == [("a.py", 9, "Pair.neg")]
    assert asked == [{("a.py", 9)}]
    assert unread_defs(SHARED, _is_public, lambda wanted: wanted) == []
    assert unread_defs(SHARED, _is_public) == []  # by name alone, y.neg reads every neg


def test_the_trace_sees_entered_methods_only():
    """In the pinned runs ``SpanSolver.solve`` (``dsm``) enters
    ``ChainRing.neg``, and ``cmd_dsm`` enters ``GroupAlgebra.format_element``;
    the first line of a module, where no def starts, is never entered."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    lines = {
        qualname: (name, _first_line(node))
        for name, text in sources.items()
        for qualname, node, _ in _defs(ast.parse(text))
    }
    wanted = {lines["ChainRing.neg"], lines["GroupAlgebra.format_element"], ("rings.py", 1)}
    assert entered_in_pinned_runs(wanted) == wanted - {("rings.py", 1)}
