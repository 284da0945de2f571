"""Rules the library source keeps, checked by parsing it."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spinpicard"


def test_no_assert_statements_in_the_library():
    """`python -O` strips asserts, so runtime checks must raise explicitly."""
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/spinpicard: {', '.join(found)}"
