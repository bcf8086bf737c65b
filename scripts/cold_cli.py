"""Cold-process wall time of the thetachar CLI.

Each command is run in a fresh Python process, N times in turn, and the
best wall time is printed next to the process floor: a bare interpreter
(`python -c pass`) and one that only imports thetachar.cli.  Every call
pays the one-time enumeration and lattice set-up again, so this is the
end-to-end cost a CLI user sees.  BLAS runs on one thread
(OPENBLAS_NUM_THREADS=1) and stdout is discarded.  A command that exits
non-zero (say, one past a genus cap of the tree timed) is reported as
failed, with no time.

Usage:
    python scripts/cold_cli.py [--repeat 3] [--src PATH] [--json]

--src names the directory holding the thetachar package (default: the
src/ next to this script), so two checkouts can be timed the same way.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# the genus-4 period matrix of the CLI byte-identity test, as [re, im] pairs
TAU_G4 = json.dumps([
    [[0, 0.9], [0.1, 0.05], [0, 0], [-0.1, 0]],
    [[0.1, 0.05], [0.2, 1.0], [0, 0.05], [0, 0]],
    [[0, 0], [0, 0.05], [-0.3, 0.8], [0.05, 0]],
    [[-0.1, 0], [0, 0], [0.05, 0], [0, 1.1]],
])

# a genus-4 point with lambda_min(Im tau) = 0.307 and |Im z| = 0.19, whose
# single evaluation has truncation radius 8 (an 83,521-point box)
TAU_G4_THIN = json.dumps([
    [[0, 0.31], [0.1, 0.02], [0, 0], [-0.1, 0]],
    [[0.1, 0.02], [0.2, 0.45], [0, 0], [0, 0]],
    [[0, 0], [0, 0], [-0.3, 0.55], [0.05, 0]],
    [[-0.1, 0], [0, 0], [0.05, 0], [0, 0.7]],
])
Z_G4_THIN = json.dumps([[0.1, 0.095], [0, 0.095], [-0.2, 0.095], [0.3, 0.095]])

FLOOR = {
    "python -c pass": ["-c", "pass"],
    "import thetachar.cli": ["-c", "import thetachar.cli"],
}

COMMANDS = {
    "verify": ["verify"],
    "amplitude --genus 4": ["amplitude", "--genus", "4", "--tau", TAU_G4],
    "theta --genus 4": [
        "theta", "--genus", "4", "--tau", TAU_G4_THIN, "--char", "1010;0110", "--z", Z_G4_THIN,
    ],
    "systems --genus 3 --kind tetrads": ["systems", "--genus", "3", "--kind", "tetrads"],
    "systems --genus 3 --kind aronhold": ["systems", "--genus", "3", "--kind", "aronhold"],
    "systems --genus 3 --kind gopel": ["systems", "--genus", "3", "--kind", "gopel"],
    "picard --genus 12 --space odd": ["picard", "--genus", "12", "--space", "odd"],
    "forms --genus 4 --count": ["forms", "--genus", "4", "--count"],
}


def best_time(argv: list[str], env: dict, repeat: int) -> float | None:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            return None
        best = min(best, elapsed)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="processes per command")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("need --repeat >= 1")

    env = {**os.environ, "PYTHONPATH": args.src, "OPENBLAS_NUM_THREADS": "1"}
    rows = {name: best_time(argv, env, args.repeat) for name, argv in FLOOR.items()}
    for name, argv in COMMANDS.items():
        rows[name] = best_time(["-m", "thetachar.cli", *argv], env, args.repeat)

    if args.json:
        print(json.dumps({"repeat": args.repeat, "best_s": rows}, indent=2))
        return
    width = max(map(len, rows))
    print(f"{'command':<{width}}  best of {args.repeat}")
    for name, seconds in rows.items():
        print(f"{name:<{width}}  " + (f"{'failed':>7}" if seconds is None else f"{seconds:7.3f} s"))


if __name__ == "__main__":
    main()
