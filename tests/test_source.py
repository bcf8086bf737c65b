"""Checks on the library's source text rather than its behaviour."""

import ast
from pathlib import Path

import thetachar

PACKAGE = Path(thetachar.__file__).parent


def test_no_assert_statements_in_the_library():
    # runtime cross-checks raise InvariantError, which python -O keeps;
    # an assert statement would vanish under -O
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
