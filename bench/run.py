"""The thetachar benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload xi-g4 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout of the repository; it imports
thetachar from ``src/`` there and nowhere else.  Each run starts fresh
worker processes (bench/worker.py), one at a time:

  --trace 0  RUNS processes, each of which starts, imports thetachar,
             does the workload's first untimed operation (set-up) and then
             measures a closed loop (one client, one operation at a time)
             for --seconds / RUNS.  setup_s and peak_rss_mb are medians over
             the processes; op_ms_p50 is the median of all their operation
             latencies and ops_per_s the median of all their decks'
             throughputs.  Pooling processes evens out process-to-process
             speed differences (memory layout, hash seeds).
  --trace 1  one process that records spans around the calls into each
             layer and reports the per-layer metrics and the tracing
             overhead; spans are written to .bench_out/.

Every operation is checked against an exact identity; a raise or a
failed check counts as a failed operation.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 3
# One client and no extra threads: with its default of one thread per core,
# OpenBLAS makes each threaded mat-vec of the theta sums wait up to ~8 ms
# whenever anything else holds the other core, which split runs into a fast
# and a slow mode.  See bench/DESIGN.md, Machine.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170  # the whole run, workers included, ends within this


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_worker(workload: str, seed: int, seconds: float, mode: str, deadline: float, first_deck: int = 1) -> dict:
    spec = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "mode": mode,
        "first_deck": first_deck,
        "launched_ns": time.monotonic_ns(),
    }
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
        cwd=ROOT,
        env={**os.environ, **WORKER_ENV},
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker ({mode}) timed out")
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def untraced(args, deadline: float) -> tuple[dict, dict]:
    runs, deck = [], 1
    for _ in range(RUNS):
        runs.append(run_worker(args.workload, args.seed, args.seconds / RUNS, "measure", deadline, deck))
        deck = runs[-1]["next_deck"]  # each process plays new decks of the seed
    latencies = sorted(x for r in runs for x in r["latencies_ms"])
    setups = [r["setup_s"] for r in runs]
    values = {
        "setup_s": median(setups),
        "ops_per_s": median(x for r in runs for x in r["deck_rates"]),
        "op_ms_p50": median(latencies),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in runs),
    }
    # the highest percentile with at least ten samples beyond it
    p90 = f"{quantiles(latencies, n=10)[8]:.4f} ms" if len(latencies) >= 100 else "n/a (fewer than 100)"
    decks = sum(len(r["deck_rates"]) for r in runs)
    raw = ", ".join(f"{r['setup_raw_s']:.3f}" for r in runs)
    refs = ", ".join(f"{r['reference_ms']:.3f}" for r in runs)
    print(f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)} (raw {raw})")
    print(f"reference loop per process: {refs} ms; times are scaled to {runs[0]['reference_target_ms']:g} ms")
    print(f"decks: {decks}, latency samples: {len(latencies)}, op_ms_p90: {p90}")
    res = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "selftest": None if runs[0]["selftest"] is None else all(r["selftest"] for r in runs),
        "machine": runs[-1]["machine"],
    }
    return res, values


def traced(args, deadline: float) -> tuple[dict, dict]:
    res = run_worker(args.workload, args.seed, args.seconds, "trace", deadline)
    print(
        f"ops_per_s untraced {res['ops_per_s_untraced']:.4f}, traced {res['ops_per_s_traced']:.4f}, "
        f"spans {res['spans']}"
    )
    for name, layers in res["self_ms_per_case"].items():
        cells = ", ".join(f"{layer} {ms:.3f}" for layer, ms in layers.items())
        print(f"self time per {name} case (ms): {cells}")
    return res, res["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "thetachar" / "__init__.py").is_file():
        print(f"error: no thetachar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    res, values = (traced if args.trace else untraced)(args, deadline)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = res["failed"] == 0 and res["selftest"] is not False
    selftest = {True: "flags the planted error", False: "FAILED to flag the planted error", None: "none"}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: machine {json.dumps(res['machine'])}")
    print(f"attempted {res['attempted']}, failed {res['failed']}, failed_share {res['failed'] / res['attempted']:.4f}, "
          f"self-test: {selftest[res['selftest']]}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
