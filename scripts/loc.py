"""Line counts of the thetachar package, per module and in total.

For each module the physical lines (as `wc -l` counts them) and the code
lines are printed: a code line holds part of a token that is not a
comment and not part of a docstring, so blank lines, comment lines and
docstrings do not count.  A docstring is the string literal that opens a
module, class or function body.

Usage:
    python scripts/loc.py [--src PATH]

--src names the directory holding the thetachar package (default: the
src/ next to this script), so two checkouts can be counted the same way.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = parser.parse_args()

    modules = sorted((Path(args.src) / "thetachar").glob("*.py"))
    if not modules:
        parser.error(f"no thetachar modules under {args.src}")
    rows = [(path.name, *count(path.read_text(encoding="utf-8"))) for path in modules]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")


if __name__ == "__main__":
    main()
