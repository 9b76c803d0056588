"""Call counting for tests that bound how often the library runs a function.

A module that imports a function by name (``from .linalg import
enumerate_codewords``) holds its own binding, which patching the defining
module does not reach: a wrapper set there counts nothing.  ``count_calls``
replaces every binding of the function object across the loaded
``lcpcodes`` modules, as ``perfbench/spans.py`` does for the traced run,
and in the classes those modules define: a method as it stands in the
class body, a classmethod as the ``classmethod`` around it.
"""

import sys


def count_calls(monkeypatch, fn):
    """Bind a counting wrapper wherever a loaded ``lcpcodes`` module, or a
    class one defines, binds the function object ``fn`` (for a classmethod,
    pass its ``__func__``); returns the list of each call's first argument
    (for a method, the instance or class), which grows as the library calls
    ``fn``.  Raises LookupError when nothing binds ``fn``."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0] if args else None)
        return fn(*args, **kwargs)

    bound, classes = 0, {}
    for name, module in list(sys.modules.items()):
        if name == "lcpcodes" or name.startswith("lcpcodes."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
                    bound += 1
                elif isinstance(value, type) and value.__module__ == name:
                    classes[value] = None
    for cls in classes:
        for attr, value in list(vars(cls).items()):
            if value is fn:
                monkeypatch.setattr(cls, attr, counted)
                bound += 1
            elif isinstance(value, classmethod) and value.__func__ is fn:
                monkeypatch.setattr(cls, attr, classmethod(counted))
                bound += 1
    if not bound:
        raise LookupError(f"nothing in lcpcodes binds {fn.__qualname__}")
    return calls
