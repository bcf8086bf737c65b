"""The command-line scripts under scripts/, run as a user runs them."""

import json
import os
import subprocess
import sys
from pathlib import Path

from thetachar.picard import bn_applicable, general_type_test, slope_combination

ROOT = Path(__file__).resolve().parent.parent


def _script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_slope_table_matches_the_library():
    proc = _script("slope_table.py", "--json")
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert [row["g"] for row in rows] == list(range(4, 31))
    for row in rows:
        g = row["g"]
        assert row["bn_applicable"] == bn_applicable(g)
        for label, space in (("odd", "Sbar_minus"), ("even", "Sbar_plus")):
            res = slope_combination(g, space)
            assert row[f"{label}_slope"] == str(res.lambda_slope)
            assert row[f"{label}_c"] == str(res.c_coefficient)
            assert row[f"{label}_verdict"] == general_type_test(g, space)


def test_aronhold_census_script():
    proc = _script("aronhold_census.py", "--json")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["azygetic_odd_7set_count"] == 288
    assert report["structure_failures"] == 0


def test_factorization_scan_script():
    proc = _script("factorization_scan.py", "--trials", "1", "--max-genus", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].split()[:3] == ["2", "1", "1"]
