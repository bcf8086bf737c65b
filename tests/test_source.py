"""Checks on the library's source text rather than its behaviour."""

import ast
import sys
from pathlib import Path

import thetachar

PACKAGE = Path(thetachar.__file__).parent


def _nodes():
    """(module file name, node) for every syntax node of the package."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    return [
        (path.name, node)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    ]


def test_no_assert_statements_in_the_library():
    # runtime cross-checks raise InvariantError, which python -O keeps;
    # an assert statement would vanish under -O
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_imports_are_the_standard_library_numpy_or_the_package():
    # numpy is the one runtime dependency; a test dependency such as mpmath,
    # or scipy, imports fine wherever the suite runs, so only this sees it
    allowed = set(sys.stdlib_module_names) | {"numpy", "thetachar"}
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            continue
        found += [f"{name}:{node.lineno} {root}" for root in roots if root not in allowed]
    assert found == []


def test_no_module_reads_the_environment():
    # every setting is a flag of the command that reads it
    reads = {"environ", "environb", "getenv", "getenvb"}
    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if isinstance(node, ast.Attribute) and node.attr in reads
        or isinstance(node, ast.alias) and node.name in reads
    ]
    assert found == []
