"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Run from the root of a checkout.  It checks that

1. a given seed generates identical inputs on two calls, and another seed
   different ones, for every workload;
2. the xi-g4 identity check flags the odd-diagonal shift tau -> tau + E_11,
   which is not a symmetry of Xi, at g = 2, 3 and 4, while the true
   identities pass; and the theta-points check flags a wrong sign;
3. a one-second pass of every workload, untraced on one seed and traced on
   another, reports every metric BENCHMARK.json names, with its unit, and
   no failed operation.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
from dataclasses import replace

from worker import ROOT, load_package
from workloads import (
    WORKLOADS,
    odd_shift_pair,
    run_theta,
    theta_deck,
    xi_deck,
    xi_relative_defect,
    xi_report,
)

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def inputs_are_seeded() -> None:
    for name, wl in WORKLOADS.items():
        a, b = pickle.dumps(wl.deck(5, 3)), pickle.dumps(wl.deck(5, 3))
        check(a == b, f"{name}: seed 5 gives identical inputs on two calls")
        check(a != pickle.dumps(wl.deck(6, 3)), f"{name}: seed 6 gives other inputs")


def planted_errors_are_flagged(tc) -> None:
    for g in (2, 3, 4):
        pair = odd_shift_pair(1, g)
        xi_a, _ = xi_report(tc, pair.tau, g)
        xi_b, _ = xi_report(tc, pair.image, g)
        defect = xi_relative_defect(xi_a, xi_b, 1)
        check(defect > 1e-6, f"xi check flags tau + E_11 at g={g} (relative change {defect:.3g})")
    for pair in xi_deck(1, 0):
        xi_a, _ = xi_report(tc, pair.tau, 4)
        xi_b, _ = xi_report(tc, pair.image, 4)
        defect = xi_relative_defect(xi_a, xi_b, pair.factor)
        check(defect <= 1e-6, f"xi check passes the true {pair.kind} identity at g=4 ({defect:.3g})")
    wrong = [run_theta(tc, replace(p, sign=-p.sign))[1] for p in theta_deck(1, 0)]
    check(not any(wrong), f"theta check flags a wrong sign on all {len(wrong)} pairs of a deck")


def metrics_are_reported() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for seed, trace, group in ((1, 0, "end_to_end"), (2, 1, "per_layer")):
            cmd = [sys.executable, "bench/run.py", "--workload", workload["name"], "--seed", str(seed),
                   "--seconds", "1", "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            what = f"{workload['name']} seed {seed} trace {trace}"
            if out.returncode != 0:
                check(False, f"{what}: exit code {out.returncode}\n{out.stderr[-2000:]}")
                continue
            res = json.loads(out.stdout.strip().splitlines()[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{what}: correct, {res['attempted']} attempted, {res['failed']} failed")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{what}: every {group} metric present with its unit")
            numbers = all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
            check(numbers, f"{what}: every value is a number")


def main() -> int:
    tc = load_package()
    inputs_are_seeded()
    planted_errors_are_flagged(tc)
    metrics_are_reported()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
