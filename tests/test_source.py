"""Checks on the package source itself."""

import ast
from pathlib import Path

import groupcodes

SOURCES = sorted(Path(groupcodes.__file__).parent.glob("*.py"))


def test_no_bare_asserts():
    """Invariants raise explicitly, so they still hold under ``python -O``."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found
