"""One fresh benchmark process: import thetachar from the checkout, set up, measure.

run.py starts it as ``python3 bench/worker.py '<json spec>'`` and reads
one JSON object from the last line of its standard output.  The spec
names the workload, seed, seconds, mode and the CLOCK_MONOTONIC time at
which run.py launched the process, so the worker can report its own
set-up time (launch, imports, first untimed operation) without a pipe
handshake.  Modes:

  measure  set up, then a closed loop of whole decks for the given
           seconds with tracing off; returns every operation latency and
           every deck's throughput, host-normalised (see Loop);
  trace    probe the one-time amplitude set-up, then the same closed loop
           with decks alternately untraced and traced, then one traced
           deck of each other workload, and derive the per-layer metrics
           from the spans.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from statistics import median

import numpy as np

from spans import Recorder, SpanIndex, traced
from workloads import TOL, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def load_package():
    src = ROOT / "src"
    if not (src / "thetachar" / "__init__.py").is_file():
        raise SystemExit(f"no thetachar sources under {src}")
    sys.path.insert(0, str(src))
    import thetachar

    if Path(thetachar.__file__).resolve().parent != (src / "thetachar").resolve():
        raise SystemExit(f"imported thetachar from {thetachar.__file__}, not from {src}")
    return thetachar


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
    }


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy wheels, if that is the BLAS."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# Host-speed normalisation.  On a shared host the same operation was seen to
# take anywhere from 1x to 2x as long over tens of seconds, so raw times
# could not be compared across runs.  A fixed reference loop (pure Python
# and numpy work that calls no thetachar code) is timed between operations;
# every time is scaled by REF_S / (reference time at that moment), i.e.
# reported as it would read on a host where the loop takes REF_S.
REF_S = 0.004
CAL_INTERVAL_S = 0.25  # at most this much work between two reference timings
_REF_KEYS = [(k * 7919 % 65521, k % 257) for k in range(12_000)]
_REF_VEC = np.linspace(0.0, 1.0, 30_000)


def reference_loop() -> float:
    """Seconds taken by the fixed reference work (about 4 ms on the baseline host)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(15_000):
        acc += i * i % 7
    counts: dict = {}
    for key in _REF_KEYS:
        counts[key] = counts.get(key, 0) + 1
    sum(Fraction(1, i) for i in range(1, 120))
    np.exp(1j * _REF_VEC).sum()
    return time.perf_counter() - t0


class Loop:
    """Totals of one closed loop: a single client, one operation at a time.

    Latencies and deck throughputs are host-normalised: the work between
    two reference timings is scaled by REF_S over their mean.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []  # normalised, s
        self.deck_rates: list[float] = []  # normalised successful operations per second, per deck
        self.refs: list[float] = []  # reference-loop timings, s
        self.attempted = self.failed = 0
        self.seconds = 0.0  # raw wall time spent in operations

    def run_deck(self, tc, wl, cases, recorder=None) -> None:
        if not self.refs:
            self.refs.append(reference_loop())
        pending, ops, scaled = [], 0, 0.0
        for k, case in enumerate(cases):
            t0 = time.perf_counter()
            latencies, completed = self.run_case(tc, wl, case, recorder)
            pending.append((time.perf_counter() - t0, latencies, completed))
            if k == len(cases) - 1 or sum(p[0] for p in pending) >= CAL_INTERVAL_S:
                self.refs.append(reference_loop())
                factor = 2 * REF_S / (self.refs[-2] + self.refs[-1])
                for seconds, lat, done in pending:
                    self.latencies += [x * factor for x in lat]
                    self.seconds += seconds
                    scaled += seconds * factor
                    ops += done
                pending = []
        self.deck_rates.append(ops / scaled)

    def run_case(self, tc, wl, case, recorder=None) -> tuple[list, int]:
        """Run one case; returns its operation latencies and how many succeeded."""
        self.attempted += wl.ops
        try:
            if recorder is None:
                latencies, ok = wl.run(tc, case)
            else:
                with recorder.span(f"bench.{wl.name}"):
                    latencies, ok = wl.run(tc, case)
        except Exception:  # a raise is a failed operation, not an abort
            traceback.print_exc(file=sys.stderr)
            self.failed += wl.ops
            return [], 0
        if not ok:
            self.failed += wl.ops
            print(f"{wl.name}: identity check failed on {case!r:.200}", file=sys.stderr)
        return latencies, wl.ops if ok else 0


def set_up(tc, wl, spec) -> tuple[float, float]:
    """The first, untimed operation; returns raw and normalised seconds since launch."""
    wl.warm_up(tc, spec["seed"])
    raw = (time.monotonic_ns() - spec["launched_ns"]) / 1e9
    return raw, raw * REF_S / median(reference_loop() for _ in range(5))


def self_test(tc, wl, seed: int) -> bool | None:
    """True when the workload's check catches its planted error; None if it has none."""
    return None if wl.self_test is None else wl.self_test(tc, seed)


def measure(tc, wl, spec) -> dict:
    setup_raw_s, setup_s = set_up(tc, wl, spec)
    selftest = self_test(tc, wl, spec["seed"])
    loop = Loop()
    deck = spec["first_deck"]
    while loop.seconds < spec["seconds"]:
        loop.run_deck(tc, wl, wl.deck(spec["seed"], deck))
        deck += 1
    return {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "reference_ms": 1e3 * median(loop.refs),
        "reference_target_ms": 1e3 * REF_S,
        "selftest": selftest,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "latencies_ms": [1e3 * x for x in loop.latencies],
        "deck_rates": loop.deck_rates,
        "next_deck": deck,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "machine": machine_info(),
    }


def trace(tc, wl, spec) -> dict:
    seed = spec["seed"]
    rec = Recorder()
    # amplitude.span_setup_s needs caches that no call has filled yet
    tau0 = WORKLOADS["xi-g4"].deck(seed, 0)[0].tau
    with traced(rec), rec.span("bench.probe.amplitude_setup"):
        tau = tc.PeriodMatrix(tau0)
        tc.theta_constant_table(tau, TOL)
        for i in range(5):
            tc.P_i_g(tau, 4, i, TOL)
            tc.P_i_g(tau, 4, i, TOL)
    wl.warm_up(tc, seed)

    plain, spanned = Loop(), Loop()
    deck = 1
    while plain.seconds + spanned.seconds < spec["seconds"] or not spanned.attempted:
        cases = wl.deck(seed, deck)
        if deck % 2:
            plain.run_deck(tc, wl, cases)
        else:
            with traced(rec):
                spanned.run_deck(tc, wl, cases, rec)
        deck += 1

    # every per-layer metric needs samples, so the other workloads get one
    # traced deck each, after an untraced warm-up deck
    probes = Loop()
    for other in WORKLOADS.values():
        if other is not wl:
            other.warm_up(tc, seed)
            with traced(rec):
                probes.run_deck(tc, other, other.deck(seed, 1), rec)

    overhead = median(plain.deck_rates) / median(spanned.deck_rates) - 1
    index = SpanIndex(rec.rows)
    metrics = layer_metrics(index, 100 * overhead)
    self_ms = {name: index.layer_self_ms(f"bench.{name}") for name in WORKLOADS}
    info = machine_info()
    rec.dump(
        ROOT / ".bench_out" / f"spans-{wl.name}.json",
        {"workload": wl.name, "seed": seed, "machine": info, "self_ms_per_case": self_ms},
    )
    loops = (plain, spanned, probes)
    return {
        "selftest": self_test(tc, wl, seed),
        "attempted": sum(lp.attempted for lp in loops),
        "failed": sum(lp.failed for lp in loops),
        "metrics": metrics,
        "self_ms_per_case": self_ms,
        "spans": len(rec.rows),
        "ops_per_s_untraced": median(plain.deck_rates),
        "ops_per_s_traced": median(spanned.deck_rates),
        "machine": info,
    }


def layer_metrics(ix, overhead_pct: float) -> dict:
    """The per-layer metrics, all from span durations (ns) and notes."""
    ms, us, s = 1e6, 1e3, 1e9
    tables = ix.where("theta.theta_constant_table")
    cold = [i for i in tables if ix.radius[i] is not None]
    hits = [i for i in tables if ix.radius[i] is None]
    evals = ix.where("theta.theta_report")

    def points(i):
        g, radius = ix.radius[i]
        return (2 * radius + 1) ** g

    work = sum(points(i) * 4 ** ix.radius[i][0] for i in cold) + sum(points(i) for i in evals)
    busy = sum(ix.dur[i] for i in cold + evals) / s

    probe = ix.where("bench.probe.amplitude_setup")[0]
    direct = [i for i in ix.where("amplitude.P_i_g") if ix.rows[i][3] == probe]
    first, repeat = direct[0::2], direct[1::2]

    xi_roots = set(ix.where("bench.xi-g4"))
    assembly = ix.per_root(("amplitude.xi_g", "amplitude.P_i_g"), lambda i: ix.self_ns[i])
    systems = ix.per_root(
        ("characteristics.enumerate_fundamental_systems", "characteristics.enumerate_gopel_systems"),
        lambda i: ix.dur[i],
    )

    def med(values):
        values = list(values)
        if not values:
            raise ValueError("a per-layer metric has no samples")
        return median(values)

    m = {
        "amplitude.span_setup_s": sum(ix.dur[a] - ix.dur[b] for a, b in zip(first, repeat)) / s,
        "amplitude.assembly_ms": med(v / 2 / ms for r, v in assembly.items() if r in xi_roots),
        "theta.table_ms": med(ix.dur[i] / ms for i in cold),
        "theta.table_hit_us": med(ix.dur[i] / us for i in hits),
        "theta.radius": med(ix.radius[i][1] for i in cold),
        "theta.box_points": med(points(i) for i in cold),
        "theta.eval_box_points": med(points(i) for i in evals),
        "theta.points_per_s": work / busy,
        "theta.radius_us": med(ix.dur[i] / us for i in ix.where("theta.truncation_radius")),
    }
    for g in range(1, 5):
        m[f"theta.eval_ms.g{g}"] = med(ix.dur[i] / ms for i in evals if ix.radius[i][0] == g)
    m.update(
        {
            "theta.period_matrix_ms": med(ix.dur[i] / ms for i in ix.where("theta.PeriodMatrix")),
            "characteristics.aronhold_ms": med(
                ix.dur[i] / ms for i in ix.where("characteristics.quartic_coordinate_check")
            ),
            "characteristics.tetrads_ms": med(
                ix.dur[i] / ms for i in ix.where("characteristics.enumerate_syzygetic_tetrads")
            ),
            "characteristics.systems_ms": med(v / ms for v in systems.values()),
            "symplectic.sp_apply_us": med(ix.dur[i] / us for i in ix.where("symplectic.sp_apply")),
            "symplectic.random_symplectic_ms": med(
                ix.dur[i] / ms for i in ix.where("symplectic.random_symplectic")
            ),
            "boundary.th_components_ms": med(ix.dur[i] / ms for i in ix.where("boundary.th_components")),
            "picard.slope_ms": med(ix.dur[i] / ms for i in ix.where("picard.general_type_test")),
            "trace.overhead_pct": overhead_pct,
        }
    )
    return m


def main() -> int:
    spec = json.loads(sys.argv[1])
    tc = load_package()
    wl = WORKLOADS[spec["workload"]]
    result = trace(tc, wl, spec) if spec["mode"] == "trace" else measure(tc, wl, spec)
    if any(isinstance(v, float) and not math.isfinite(v) for v in result.get("metrics", {}).values()):
        raise SystemExit("a metric is not finite")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
