"""Call counting for tests that bound how often the library runs a function.

A module that imports a function by name (``from .linalg import
enumerate_codewords``) holds its own binding, which patching the defining
module does not reach: a wrapper set there counts nothing.  ``count_calls``
replaces every binding of the function object across the loaded
``lcpcodes`` modules, as ``perfbench/spans.py`` does for the traced run.
"""

import sys


def count_calls(monkeypatch, fn):
    """Bind a counting wrapper wherever a loaded ``lcpcodes`` module binds
    the function object ``fn``; returns the list of each call's first
    argument, which grows as the library calls ``fn``.  Raises LookupError
    when no module binds ``fn``."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0] if args else None)
        return fn(*args, **kwargs)

    bound = 0
    for name, module in list(sys.modules.items()):
        if name == "lcpcodes" or name.startswith("lcpcodes."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
                    bound += 1
    if not bound:
        raise LookupError(f"no lcpcodes module binds {fn.__qualname__}")
    return calls
