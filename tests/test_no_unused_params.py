"""No function of the library may take a parameter that it never reads.

Every parameter of every function, method and lambda, other than ``self``
and ``cls``, must be read in the body, a nested function reading it
included.  The ``cmd_*`` handlers of ``cli`` are exempt: ``main`` calls each
of them as ``handler(cfg, args)``, so they share that signature whether or
not they read both.  Code deletions tend to leave such parameters behind.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lcpcodes"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _params(fn):
    a = fn.args
    named = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
    return [x.arg for x in named if x.arg not in ("self", "cls")]


def _reads(name, nodes) -> bool:
    """Whether the nodes read name, not counting nested functions that take
    a parameter of the same name."""
    for node in nodes:
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            return True
        if isinstance(node, FUNCTIONS) and name in _params(node):
            continue
        if _reads(name, ast.iter_child_nodes(node)):
            return True
    return False


def _cli_handler(filename: str, name: str) -> bool:
    return filename == "cli.py" and name.startswith("cmd_")


def unused_params(source: str, filename: str = "<source>"):
    """``file:line: function(parameter)`` of every parameter that its
    function never reads.  Defaults and annotations belong to the enclosing
    scope, so only the body counts."""
    tree = ast.parse(source, filename=filename)
    functions = [node for node in ast.walk(tree) if isinstance(node, FUNCTIONS)]
    found = []
    for fn in sorted(functions, key=lambda node: (node.lineno, node.col_offset)):
        name = getattr(fn, "name", "<lambda>")
        if _cli_handler(filename, name):
            continue
        body = [fn.body] if isinstance(fn, ast.Lambda) else fn.body
        found += [f"{filename}:{fn.lineno}: {name}({p})" for p in _params(fn) if not _reads(p, body)]
    return found


def test_library_has_no_unused_parameters():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        found += unused_params(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_the_check_sees_an_unused_parameter():
    source = (
        "class K:\n"
        "    def m(self, a, b=1, *rest, c, **kw):\n"
        "        return a + sum(rest) + kw['x']\n"
        "def f(x, y):\n"
        "    def g(y):\n"
        "        return y\n"
        "    return g(x)\n"
        "def h(z):\n"
        "    z = 1\n"
        "    return lambda w: 0\n"
        "def outer(v):\n"
        "    return lambda: v\n"
        "def cmd_info(cfg, args):\n"
        "    return cfg\n"
    )
    assert unused_params(source) == [
        "<source>:2: m(b)",
        "<source>:2: m(c)",
        "<source>:4: f(y)",
        "<source>:8: h(z)",
        "<source>:10: <lambda>(w)",
        "<source>:13: cmd_info(args)",
    ]
    assert unused_params(source, "cli.py")[-1] == "cli.py:10: <lambda>(w)"
