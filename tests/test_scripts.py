"""The command-line scripts under scripts/, run as a user runs them."""

import ast
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_loc_counts_add_up():
    proc = _script("loc.py", "--src", str(ROOT / "src"))
    assert proc.returncode == 0, proc.stderr
    header, *rows, total = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["module", "lines", "code"]
    modules = sorted((ROOT / "src" / "thetachar").glob("*.py"))
    assert [row[0] for row in rows] == [path.name for path in modules]
    for (_, lines, code), path in zip(rows, modules):
        assert int(lines) == len(path.read_text(encoding="utf-8").splitlines())
        assert 0 < int(code) < int(lines)
    assert total == ["total", *(str(sum(int(row[k]) for row in rows)) for k in (1, 2))]


def test_loc_skips_blanks_comments_and_docstrings():
    count = runpy.run_path(str(ROOT / "scripts" / "loc.py"))["count"]
    source = (
        '"""Module docstring."""\n'
        "\n"
        "# a comment\n"
        'x = """a string on\n'
        'two lines"""  # code, not a docstring\n'
        "\n"
        "\n"
        "def f():\n"
        '    """A docstring\n'
        '    on two lines."""\n'
        "    return x\n"
    )
    assert count(source) == (11, 4)


def test_ab_times_a_tree_against_itself():
    proc = _script("ab.py", str(ROOT / "src"), str(ROOT / "src"), "--rounds", "2", "--decks", "1", "--json")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["rounds"] == 2
    assert sorted(report["workloads"]) == ["exact-census", "theta-points", "xi-g4"]
    for row in report["workloads"].values():
        assert sorted(row) == ["a_ms", "aa_ratio", "ab_ratio", "b_ms", "b_won", "failed"]
        assert math.isfinite(row["ab_ratio"]) and math.isfinite(row["aa_ratio"])
        assert row["failed"] == 0 and 0 <= row["b_won"] <= 2
    # --workload plays only the named workloads
    proc = _script("ab.py", str(ROOT / "src"), str(ROOT / "src"), "--rounds", "2", "--decks", "1",
                   "--workload", "exact-census", "--json")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert sorted(report["workloads"]) == ["exact-census"]
    assert report["workloads"]["exact-census"]["failed"] == 0
    proc = _script("ab.py", str(ROOT / "src"), str(ROOT / "src"), "--workload", "no-such-workload")
    assert proc.returncode == 2 and "invalid choice" in proc.stderr


def test_every_mutant_applies_once():
    # scripts/mutants.py plants each mutant by exact text: the text must
    # stay in the source, once, or the mutant would silently stop planting
    mutants = runpy.run_path(str(ROOT / "scripts" / "mutants.py"))["MUTANTS"]
    sources = {path: path.read_text(encoding="utf-8") for path in (ROOT / "src").rglob("*.py")}
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert m.old != m.new
        assert sources[ROOT / m.file].count(m.old) == 1, m.name
        assert sum(text.count(m.old) for text in sources.values()) == 1, m.name


def test_the_mutant_harness_copies_every_root_path_the_tests_read():
    # scripts/mutants.py runs the suite in a copy of COPIED alone: a test
    # reading ROOT / "x" for any other x fails in every copy, unmutated too
    copied = runpy.run_path(str(ROOT / "scripts" / "mutants.py"))["COPIED"]
    read = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                    and isinstance(node.left, ast.Name) and node.left.id == "ROOT"
                    and isinstance(node.right, ast.Constant)):
                read.add(node.right.value.split("/")[0])
    assert {"src", "scripts", "bench", "pyproject.toml"} <= read
    assert sorted(read - set(copied)) == []
