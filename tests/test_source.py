"""Checks on the source of the xstring package itself."""

import ast
from pathlib import Path

import xstring


def test_no_private_names_across_modules():
    # a module's underscore names are its own; siblings use public ones
    crossing = []
    for path in sorted(Path(xstring.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("xstring"):
                continue
            crossing += [f"{path.name}: {node.module}.{alias.name}"
                         for alias in node.names if alias.name.startswith("_")]
    assert crossing == []
