"""Time two checkouts of thetachar in one process, with an A/A control.

Each tree's src/thetachar is loaded under its own module name, and the
first tree is loaded twice, so one process holds three copies: A, A'
(the same sources as A) and B.  Every round plays the same seeded decks
of the bench workloads (bench/workloads.py, read-only) on all three, in
the order A, A', B on even rounds and B, A', A on odd ones, and times
each play.  Each round plays decks it has not played before, so no cache
hit carries over from one round to the next; the untimed deck 0 warms
each copy up first.  One process removes the import-allocation effects
that separate bench processes see, but not the host's drift, so every
A/B ratio is printed next to the A/A ratio of the same rounds.

For each workload the script prints the median over rounds of the time
of A over the time of B (above 1: B is faster), the same ratio of A over
A', and the number of rounds in which B beat A.  BLAS runs on one
thread, as in the bench workers.  A failed operation makes the exit
code 1.

Usage:
    python scripts/ab.py A_SRC B_SRC [--workload NAME]... [--rounds 30] [--decks 8]
                         [--seed 17] [--json]

A_SRC and B_SRC are directories holding a thetachar package, such as the
src/ of two checkouts.  --workload NAME, which may be repeated, plays only
the named workloads (default: all three), so a claim on one workload can
run many rounds without paying for the others.
"""

import argparse
import gc
import importlib.util
import json
import os
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from run import WORKER_ENV  # noqa: E402  (before numpy loads BLAS)

os.environ.update(WORKER_ENV)

from workloads import WORKLOADS  # noqa: E402


def load_tree(src: str, name: str):
    """src/thetachar imported as the package ``name``, beside any other copy."""
    init = Path(src) / "thetachar" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no thetachar package under {src}")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def play(tc, workload, cases) -> tuple[float, int]:
    """Wall time of one pass over the cases, and the number that failed.

    A collection first, untimed, so no play pays for another's garbage.
    """
    gc.collect()
    failed = 0
    start = time.perf_counter()
    for case in cases:
        failed += not workload.run(tc, case)[1]
    return time.perf_counter() - start, failed


def compare(trees: dict, workload, seed: int, rounds: int, decks: int) -> dict:
    """Per-round times of each tree on the workload, summarised as ratios."""
    for tc in trees.values():
        workload.warm_up(tc, seed)
    times = {label: [] for label in trees}
    failed = 0
    for r in range(rounds):
        cases = [case for d in range(1 + r * decks, 1 + (r + 1) * decks) for case in workload.deck(seed, d)]
        for label in (("a", "a2", "b") if r % 2 == 0 else ("b", "a2", "a")):
            elapsed, bad = play(trees[label], workload, cases)
            times[label].append(elapsed)
            failed += bad
    a, a2, b = times["a"], times["a2"], times["b"]
    return {
        "a_ms": median(a) * 1e3,
        "b_ms": median(b) * 1e3,
        "ab_ratio": median(x / y for x, y in zip(a, b)),
        "aa_ratio": median(x / y for x, y in zip(a, a2)),
        "b_won": sum(y < x for x, y in zip(a, b)),
        "failed": failed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_src", help="directory holding tree A's thetachar package")
    parser.add_argument("b_src", help="directory holding tree B's thetachar package")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="play only this workload; may be repeated (default: all)")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--decks", type=int, default=8, help="new decks per round")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()
    if args.rounds < 1 or args.decks < 1:
        parser.error("need --rounds >= 1 and --decks >= 1")

    trees = {"a": load_tree(args.a_src, "thetachar_a"), "a2": load_tree(args.a_src, "thetachar_a2"),
             "b": load_tree(args.b_src, "thetachar_b")}
    chosen = args.workload or list(WORKLOADS)
    results = {name: compare(trees, w, args.seed, args.rounds, args.decks)
               for name, w in WORKLOADS.items() if name in chosen}
    failed = sum(row["failed"] for row in results.values())

    if args.json:
        print(json.dumps({"a": args.a_src, "b": args.b_src, "seed": args.seed, "rounds": args.rounds,
                          "decks": args.decks, "workloads": results}, indent=2))
        return int(failed > 0)
    print(f"A = {args.a_src}, B = {args.b_src}; seed {args.seed}, {args.rounds} rounds of {args.decks} decks")
    print(f"{'workload':<14} {'A ms':>9} {'B ms':>9} {'A/B':>7} {'A/A':>7} {'B won':>7} {'failed':>7}")
    for name, row in results.items():
        won = f"{row['b_won']}/{args.rounds}"
        print(f"{name:<14} {row['a_ms']:9.2f} {row['b_ms']:9.2f} {row['ab_ratio']:7.3f} "
              f"{row['aa_ratio']:7.3f} {won:>7} {row['failed']:>7}")
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())
