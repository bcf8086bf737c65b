"""Checks on the library's source text rather than its behaviour."""

import ast
import importlib
import pkgutil
import runpy
import sys
from pathlib import Path

import pytest

import thetachar

PACKAGE = Path(thetachar.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


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


def test_only_the_cli_prints():
    # the layers hand data to cli.py, which alone decides how a report
    # prints; a __repr__, for debugging, may stay in a layer
    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if name != "cli.py"
        and (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
            or isinstance(node, ast.FunctionDef) and node.name in ("__str__", "__format__")
        )
    ]
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


def test_the_names_callers_use_resolve():
    # the names callers outside the tests reach: the benchmark's tracer
    # wraps LAYERS in each layer's module, its workloads call tc.<name> on
    # the package, and `from thetachar.x import *` reads __all__
    layers = runpy.run_path(str(BENCH / "spans.py"))["LAYERS"]
    missing = [
        f"{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not hasattr(importlib.import_module(f"thetachar.{layer}"), name)
    ]
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    called = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "tc"
    }
    assert len(called) > 10
    for name in sorted(called):
        obj = getattr(thetachar, name, None)
        home = sys.modules.get(getattr(obj, "__module__", ""))
        if obj is None or getattr(home, name, None) is not obj:
            missing.append(f"tc.{name}")
    for info in pkgutil.iter_modules(thetachar.__path__, "thetachar."):
        module = importlib.import_module(info.name)
        missing += [
            f"{module.__name__}.__all__: {name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert missing == []


def test_the_package_exports_exactly_its_layers_all():
    # __init__ star-imports these layers, so their __all__ is the package's
    # surface; a layer without one would leak its imports (np, math, ...)
    layers = ("amplitude", "boundary", "characteristics", "picard", "symplectic", "theta", "verify")
    exported = set()
    for layer in layers:
        module = importlib.import_module(f"thetachar.{layer}")
        exported |= set(module.__all__)
        # two layers may list one name only if both hold the same object
        assert [n for n in module.__all__ if getattr(thetachar, n) is not getattr(module, n)] == []
    # the package imports every module but the CLI, which a test may import
    modules = {info.name for info in pkgutil.iter_modules(thetachar.__path__)} - {"cli"}
    public = {name for name in vars(thetachar) if not name.startswith("_")} - {"cli"}
    assert public == exported | modules


# Public names no caller outside the tests reaches, kept for what they are
SURFACE_ALLOWLIST = {
    "weil_pairing": "the paper's form dictionary: the pairing <u, v>",
    "eval_form": "the paper's form dictionary: q(x)",
    "translate_form": "the paper's form dictionary: q + v",
    "form_difference": "the paper's form dictionary: the vector q - q'",
    "transvection": "the generator of Sp(2g, F2)",
}


def test_every_public_name_has_a_caller_outside_the_tests():
    # a name or attribute read in src/ (its def and its __all__ string do
    # not count), scripts/ or bench/; the tracer's LAYERS list does not
    # count, since wrapping a name never runs it
    read = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *BENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(thetachar.__path__, "thetachar.")
        for name in getattr(importlib.import_module(info.name), "__all__", ())
        if name not in read and name not in SURFACE_ALLOWLIST
    ]
    assert unread == []
    assert not read & set(SURFACE_ALLOWLIST), "an allowlisted name has a caller now"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_every_console_script_resolves_to_a_callable():
    import tomllib

    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    scripts = pyproject["project"]["scripts"]
    assert scripts
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), target
