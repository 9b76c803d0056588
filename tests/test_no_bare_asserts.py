"""No result guard in the library may be a bare ``assert``.

``python -O`` strips assert statements, so a check that guards a reported
result must raise explicitly.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lcpcodes"


def test_library_has_no_assert_statements():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
