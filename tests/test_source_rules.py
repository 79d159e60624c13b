"""Rules on the library source itself."""

import ast
from pathlib import Path

import lpl

SOURCES = sorted(Path(lpl.__file__).parent.rglob("*.py"))


def test_library_has_no_assert_statements():
    # An assert vanishes under `python -O`; invariants raise typed errors instead.
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
