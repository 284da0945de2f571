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


def test_every_max_vertices_parameter_is_read():
    """A cap that a function accepts but never reads is a dead knob: callers
    would believe it bounds a scan that no longer runs."""
    unread = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            if not any(arg.arg == "max_vertices" for arg in params):
                continue
            if not any(
                isinstance(name, ast.Name) and name.id == "max_vertices"
                and isinstance(name.ctx, ast.Load)
                for stmt in node.body for name in ast.walk(stmt)
            ):
                unread.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unread, f"max_vertices accepted but never read: {', '.join(unread)}"
