"""Checks on the library source itself."""

import ast
from pathlib import Path

import matsketch

SOURCES = sorted(Path(matsketch.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # invariants are explicit checks: ``python -O`` strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
