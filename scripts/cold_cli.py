"""Cold-process wall and CPU time of the thetachar CLI.

Each command is run in a fresh Python process, N times in turn, and the
best wall time is printed next to the process floor: a bare interpreter
(`python -c pass`) and one that only imports thetachar.cli.  Every call
pays the one-time enumeration and lattice set-up again, so this is the
end-to-end cost a CLI user sees.  Next to it stand the least CPU time
(user plus sys) of the child process and its peak resident set size
(the largest over the timed runs), both from the resource usage that
os.wait4 returns for that child alone: on a shared machine the wall time
also counts the time the child waits for a core, and the CPU time does
not.  BLAS runs on one thread (OPENBLAS_NUM_THREADS=1) and stdout is
discarded.  A command that exits non-zero (say, one past a genus cap of
the tree timed) is reported as failed, with no time.

Bytecode is read from, and written to, a fresh PYTHONPYCACHEPREFIX made
for the run, and one untimed run of each command fills it first, so a
tree's own __pycache__ directories, valid or missing, do not change its
times.  They would: a cold `import thetachar` that reads the package's
bytecode took 161 ms against 188 ms for one that compiles it (medians of
40 alternating imports on a 2-core x86 host).  The mode is printed with
the times.

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
import tempfile
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

# tau = i I + 0.1 (the all-ones matrix) and z = (0.1 + 2i) (1, 1, 1, 1): the
# |Im z| = 4 point whose single evaluation has radius 18 (a 37^4-point box)
TAU_G4_UNIT = json.dumps([[[0.1, 1.0 if j == k else 0.0] for k in range(4)] for j in range(4)])
Z_G4_FAR = json.dumps([[0.1, 2.0]] * 4)

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
    "theta --genus 4, Im z = 2": [
        "theta", "--genus", "4", "--tau", TAU_G4_UNIT, "--char", "1010;0110", "--z", Z_G4_FAR,
    ],
    "systems --genus 3 --kind tetrads": ["systems", "--genus", "3", "--kind", "tetrads"],
    "systems --genus 3 --kind aronhold": ["systems", "--genus", "3", "--kind", "aronhold"],
    "systems --genus 3 --kind gopel": ["systems", "--genus", "3", "--kind", "gopel"],
    "picard --genus 12 --space odd": ["picard", "--genus", "12", "--space", "odd"],
    "forms --genus 4 --count": ["forms", "--genus", "4", "--count"],
    "forms --genus 4": ["forms", "--genus", "4"],
}


BYTECODE = "a fresh PYTHONPYCACHEPREFIX, filled by one untimed run of each command"


def run_child(argv: list[str], env: dict) -> tuple[int, float, float, float]:
    """Exit code, wall time, CPU time (user plus sys) and peak RSS in MB of one child."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, elapsed, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def best_times(argv: list[str], env: dict, repeat: int) -> tuple[float, float, float] | None:
    """The least wall and CPU times and the largest peak RSS over repeat runs, after one untimed run."""
    if run_child(argv, env)[0] != 0:
        return None
    wall = cpu = float("inf")
    rss = 0.0
    for _ in range(repeat):
        code, elapsed, used, peak = run_child(argv, env)
        if code != 0:
            return None
        wall, cpu, rss = min(wall, elapsed), min(cpu, used), max(rss, peak)
    return wall, cpu, rss


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="processes per command")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("need --repeat >= 1")

    with tempfile.TemporaryDirectory(prefix="thetachar-pycache-") as prefix:
        env = {**os.environ, "PYTHONPATH": args.src, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPYCACHEPREFIX": prefix}
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        rows = {name: best_times(argv, env, args.repeat) for name, argv in FLOOR.items()}
        for name, argv in COMMANDS.items():
            rows[name] = best_times(["-m", "thetachar.cli", *argv], env, args.repeat)

    if args.json:
        wall = {name: None if times is None else times[0] for name, times in rows.items()}
        cpu = {name: None if times is None else times[1] for name, times in rows.items()}
        rss = {name: None if times is None else round(times[2], 1) for name, times in rows.items()}
        print(json.dumps({"repeat": args.repeat, "bytecode": BYTECODE, "best_s": wall, "cpu_s": cpu,
                          "peak_rss_mb": rss}, indent=2))
        return
    print(f"bytecode: {BYTECODE}")
    width = max(map(len, rows))
    print(f"{'command':<{width}}  best of {args.repeat}  cpu (user+sys)  peak RSS")
    for name, times in rows.items():
        if times is None:
            print(f"{name:<{width}}  {'failed':>9}")
        else:
            print(f"{name:<{width}}  {times[0]:7.3f} s  {times[1]:12.3f} s  {times[2]:6.1f} MB")


if __name__ == "__main__":
    main()
