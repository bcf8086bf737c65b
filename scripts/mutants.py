"""Plant each listed mutant in a copy of the tree and report what catches it.

A mutant is one exact text replacement in one source file: (name, file,
old text, new text), the old text occurring exactly once in src/ (a
tier-1 test keeps that so).  For each mutant the script copies src/,
tests/, scripts/, bench/ and pyproject.toml to a temporary directory,
plants the mutant there, runs the tier-1 suite and `thetachar verify` in
the copy, and prints the tests that fail and the criteria that fail.  The
working tree is only read.  An unmutated copy runs first, and the script
stops with exit 1 if anything fails there: a test that fails unmutated
would be blind to every mutant.  A tier-1 test checks that every root
path the tests read is copied.

The mutants nothing catches are the to-do list for tests; those no
`verify` criterion catches, for runtime checks.  A mutant that one
change plants to check a test belongs in this list.  A mutant whose
`equivalent` field gives a reason no input can tell it from the tree
is planted and reported like the others, but not counted as missed.

Usage:
    python scripts/mutants.py [--only NAME ...] [--json]

Exits 1 when the unmutated copy fails or tier-1 misses a mutant that is
not marked equivalent.  Each mutant runs the whole suite, about 15 s on
two cores.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "bench", "pyproject.toml")
# the tier-1 test that checks this list; under a mutant it fails by design
LIST_TEST = "tests/test_scripts.py::test_every_mutant_applies_once"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the root of the tree
    old: str
    new: str
    equivalent: str = ""  # why no test can catch it, when none can


_THETA = "src/thetachar/theta.py"
MUTANTS = (
    # the row and column gathers of the theta kernels, each picking wrong entries
    # (theta-sum-rows: the rows a single evaluation keeps, from the box or its lines)
    Mutant("theta-sum-rows", _THETA, "np.take(m, keep, axis=0)", "np.take(m, keep[::-1], axis=0)"),
    # (line-rows-*: the lines both kernels' line cut leaves, each off by one or reversed)
    Mutant("line-rows-lines", _THETA, "line_value(heads, s), cutoff + slack)",
           "line_value(heads, s), cutoff + slack) + 1"),
    Mutant("line-rows-points", _THETA, "line_value(heads, s), cutoff + slack)",
           "line_value(heads, s), cutoff + slack)[::-1]"),
    # the compact line index: every box point one step off along each axis
    Mutant("line-points-offset", _THETA, "coords -= radius", "coords -= radius - 1"),
    # the table's phase lookup: every gather's keys reversed, or each table read with the next one's keys
    Mutant("phase-columns-reversed", _THETA, "np.take(t, k, axis=1)", "np.take(t, k[::-1], axis=1)"),
    Mutant("phase-columns-shift", _THETA, "zip(tables, keys)", "zip(tables, keys[1:] + keys[:1])"),
    Mutant("table-rows-box-order", _THETA, "np.take(m, keep[order], axis=0)", "np.take(m, keep, axis=0)"),
    # the table's row cut, its line cut's c_max, and the phase lookup
    Mutant("table-cut-bare", _THETA, "low += np.minimum(ym, 0.0, out=ym)", "low += 0.0"),
    Mutant("table-line-cmax", _THETA, "_lower_bound(heads, s) - c_max", "_lower_bound(heads, s)"),
    Mutant("phase-lookup-offset", _THETA, "np.arange(-radius, radius + 1.0)",
           "np.arange(1 - radius, radius + 2.0)"),
    # the domain of Im tau (PeriodMatrix): the cap back at a quarter of the largest double, where
    # the kernel's products overflow, and eigvalsh's lambda_min trusted wherever it is positive
    Mutant("im-cap-at-max", _THETA, "_IM_CAP = sys.float_info.max / 2**32", "_IM_CAP = sys.float_info.max / 4"),
    Mutant("lambda-min-untrusted", _THETA, "if not lam > 4 * len(y) * _U * top:", "if not lam > 0.0:"),
    # the line cut: a single evaluation's augmented form with b unhalved, and the one rounding slack
    # without its Schur size term, or with none
    Mutant("line-form-half", _THETA, "half = [v / 2.0 for v in b.tolist()]", "half = b.tolist()"),
    Mutant("line-slack-size", _THETA, "size = sum(abs(v) for row in a for v in row) + w * (w * att)",
           "size = sum(abs(v) for row in a for v in row)", equivalent="no double input found that the "
           "smaller slack misses, in either form; see theta._line_cut"),
    Mutant("line-slack-none", _THETA, "slack = 2.0 * (g * g + 4 * g + 7) * _U",
           "slack = 0.0 * (g * g + 4 * g + 7) * _U"),
    # the single evaluation's phase sum, and the Re tau reduction's quarter turns
    Mutant("phase-sum-sin-sign", _THETA, "(mag * np.sin(re)).sum()", "-(mag * np.sin(re)).sum()"),
    Mutant("turns-off-diagonal", _THETA, "((e @ tau._shift) * e).sum(axis=-1)",
           "(np.diagonal(tau._shift) * e).sum(axis=-1)"),
    # the truncation search and the subspace sums read off one gather
    Mutant("box-skip-shell", _THETA, "_shell_term(lam, g, z_im_norm, radius + 1) > abs_tol",
           "_shell_term(lam, g, z_im_norm, radius) > abs_tol"),
    Mutant("level-slice", "src/thetachar/amplitude.py", "start += rows * cols", "start += rows * cols - 1"),
    Mutant("level-power", "src/thetachar/amplitude.py", "range(4 - i)", "range(3 - i)"),
    Mutant("level-sums-tol", "src/thetachar/amplitude.py", "_sum_levels(theta_constant_table(tau, tol), tau.g)",
           "_sum_levels(theta_constant_table(tau), tau.g)"),
    # the subspace search, the coset lists and the Sp action
    Mutant("search-leading-bit", "src/thetachar/symplectic.py",
           "range(basis[-1].bit_length() - 1 if basis else 2 * g)", "range(2 * g)"),
    Mutant("search-level-order", "src/thetachar/symplectic.py",
           "sorted(children, reverse=True)", "sorted(children)"),
    Mutant("coset-span-order", "src/thetachar/characteristics.py", "for w in sorted(_span(basis)):",
           "for w in _span(basis):"),
    Mutant("sp-apply-no-parities", "src/thetachar/symplectic.py",
           "high[t.delta] ^ low[t.eps] ^ m._row_parities", "high[t.delta] ^ low[t.eps]"),
    Mutant("half-table-column", "src/thetachar/symplectic.py", "(row >> b & 1)", "(row >> (b ^ 1) & 1)"),
    # the two routes of the syzygy test and the Aronhold structure check
    Mutant("syzygy-arf-term", "src/thetachar/characteristics.py",
           "a.eps & a.delta ^ b.eps & b.delta ^", "a.eps & a.delta ^"),
    Mutant("aronhold-three-count", "src/thetachar/characteristics.py",
           "three_sums.bit_count() != 35", "three_sums.bit_count() != 34"),
    # the exact divisor-class layer
    Mutant("divclass-rescale", "src/thetachar/picard.py",
           "num, den = [n * scale for n in num], den * scale", "den = den * scale"),
    Mutant("divclass-lowest-terms", "src/thetachar/picard.py", "        if d > 1:", "        if False:"),
    Mutant("pullback-unramified", "src/thetachar/picard.py",
           "num = [n[0], n[1], 2 * n[1]]", "num = [n[0], n[1], n[1]]"),
    Mutant("named-class-numerator", "src/thetachar/picard.py", "[4, -1, 0] + [0, -8] * k",
           "[4, -1, 0] + [0, -4] * k"),
    Mutant("class-min-genus", "src/thetachar/picard.py", '"Z_odd": 3', '"Z_odd": 2'),
    Mutant("bound-strict", "src/thetachar/picard.py", "not -n >= 2 * den", "not -n > 2 * den"),
    Mutant("forest-graft", "src/thetachar/boundary.py", "path[w] ^= mask", "path[w] ^= 1 << j ^ path[v]"),
    # the CLI's defaults, the one tolerance range check and z's finiteness check
    Mutant("cli-default-tol", "src/thetachar/cli.py", "tol=Tolerance().abs_tol", "tol=1e-10"),
    Mutant("cli-default-output", "src/thetachar/cli.py", 'Namespace(output="json"', 'Namespace(output="table"'),
    # table mode alone: every value through json.dumps, which quotes strings
    Mutant("table-quoted", "src/thetachar/cli.py",
           "value if isinstance(value, (str, int)) else json.dumps(value, allow_nan=False)",
           "json.dumps(value, allow_nan=False)"),
    # json mode lets an inf or a nan through as Infinity or NaN
    Mutant("emit-allow-nan", "src/thetachar/cli.py", "json.dumps(payload, indent=2, allow_nan=False)",
           "json.dumps(payload, indent=2, allow_nan=True)"),
    Mutant("tolerance-floor", _THETA, "1e-13 < self.abs_tol", "0.0 < self.abs_tol"),
    Mutant("z-finite", _THETA, "if not all(map(cmath.isfinite, z)):", "if False:"),
)


def _env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1",
            "OPENBLAS_NUM_THREADS": "1"}


def failing_tests(tree: Path) -> list[str]:
    """The ids of the tier-1 tests that fail or error in the tree."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests", "--rootdir", str(tree), "-q", "-p", "no:cacheprovider",
         "--tb=no", "-rfE", "--continue-on-collection-errors", "--deselect", LIST_TEST],
        cwd=tree, env=_env(tree), capture_output=True, text=True, timeout=900,
    )
    return [line.split()[1] for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]


def failing_criteria(tree: Path) -> list[str]:
    """The `verify` criteria that fail in the tree, as "index: details"."""
    proc = subprocess.run([sys.executable, "-m", "thetachar.cli", "verify", "--output", "json"],
                          cwd=tree, env=_env(tree), capture_output=True, text=True, timeout=600)
    try:
        criteria = json.loads(proc.stdout)["criteria"]
    except (ValueError, KeyError):
        return [f"crash: exit {proc.returncode}, {proc.stderr.strip().splitlines()[-1:]}"]
    return [f"{c['index']}: {c['details']}" for c in criteria if not c["passed"]]


def run(mutant: Mutant | None) -> tuple[list[str], list[str]]:
    """Failing tests and criteria in a fresh copy of the tree, with the mutant planted."""
    with tempfile.TemporaryDirectory(prefix="thetachar-mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(ROOT / name, tree / name)
        if mutant is not None:
            path = tree / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                raise SystemExit(f"error: {mutant.name}: the old text occurs {text.count(mutant.old)} times")
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        return failing_tests(tree), failing_criteria(tree)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run only these mutants")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()
    chosen = [m for m in MUTANTS if args.only is None or m.name in args.only]
    if args.only and len(chosen) != len(set(args.only)):
        parser.error(f"unknown mutant among {args.only}")

    base_tests, base_criteria = run(None)
    if base_tests or base_criteria:
        print(f"error: the unmutated copy fails: {base_tests + base_criteria}", file=sys.stderr)
        return 1
    rows = []
    for m in chosen:
        tests, criteria = run(m)
        rows.append({"name": m.name, "file": m.file, "tests": tests, "criteria": criteria})
        if not args.json:
            row = rows[-1]
            print(f"{m.name}: {len(row['tests'])} tests, criteria {[c.split(':')[0] for c in row['criteria']]}")
            for name in row["tests"]:
                print(f"    {name}")
            for line in row["criteria"]:
                print(f"    verify {line}")
    equivalent = {m.name for m in chosen if m.equivalent}
    missed_tests = [r["name"] for r in rows if not r["tests"] and r["name"] not in equivalent]
    missed_verify = [r["name"] for r in rows if not r["criteria"]]
    if args.json:
        print(json.dumps({"baseline": {"tests": base_tests, "criteria": base_criteria}, "mutants": rows,
                          "missed_by_tests": missed_tests, "missed_by_verify": missed_verify,
                          "equivalent": sorted(equivalent)}, indent=2))
    else:
        print(f"missed by tier-1: {missed_tests or 'none'}")
        print(f"missed by verify: {missed_verify or 'none'}")
        print(f"marked equivalent: {sorted(equivalent) or 'none'}")
    return int(bool(missed_tests))


if __name__ == "__main__":
    sys.exit(main())
