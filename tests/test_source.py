"""Properties of the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "toricstab"


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements; a cross-check must raise a
    # ToricStabError instead, so that it still runs and the CLI exits 3
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
