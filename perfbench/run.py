"""twistgate benchmark: one seeded workload per run, driven in-process.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/``.  A run is one client in a closed loop on one thread: a fresh
worker process sends each operation through ``twistgate.cli.run`` only
after the previous one returned, and checks every output against the
pinned reference and the independent checks (``checks.py``).

--trace 0 measures the end-to-end metrics: whole rounds run until the
summed operation time reaches --seconds.  Operation timings are scaled to
a nominal host speed by a calibration run between them, and set-up time
by a baseline interpreter start (METRICS.md says why).  --trace 1 runs a fixed number of
rounds twice, each in a fresh worker, untraced and then with every layer
wrapped (``layers.py``), and reports the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object; the exit code is 1
when any operation failed its check.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from generate import describe, load_reference, rounds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Per workload: the latency percentile reported as the tail, chosen so that
# a run at the seed commit's speed leaves at least 10 samples beyond it
# with room for a slower host, and the rounds of the traced run (10 to 20
# seconds untraced).
WORKLOADS = {
    "hypothesis-sweep": {"tail_percentile": 75, "trace_rounds": 1},
    "lvalue-fresh": {"tail_percentile": 90, "trace_rounds": 16},
    "exact-mix": {"tail_percentile": 98, "trace_rounds": 30},
}
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_RUNS = 9
# Operation timings are reported at the host speed where worker.calibrate()
# takes this long; see scaled_latencies.
NOMINAL_CALIBRATION_S = 0.010
SETUP_BASELINE_CODE = "import numpy, mpmath"
NOMINAL_BASELINE_S = 0.25
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import twistgate; "
    "twistgate.load_curve_table(); "
    "sys.exit(not twistgate.__file__.startswith(sys.argv[1]))"
)
# Rounds handed to a timed worker; far more than a 25-second run at the
# seed commit's speed uses (hypothesis-sweep 2, lvalue-fresh ~30,
# exact-mix ~60).
TIMED_ROUNDS = 2000
WORKER_TIMEOUT_S = 150


def scaled_latencies(result: dict) -> list[float]:
    """Each operation's time scaled to the nominal host speed, at which
    worker.calibrate() takes NOMINAL_CALIBRATION_S, by the mean of the two
    calibrations taken just before and just after its block of operations."""
    cal = result["calibrations"]
    return [
        seconds * 2 * NOMINAL_CALIBRATION_S / (cal[block] + cal[block + 1])
        for seconds, block in zip(result["latencies"], result["blocks"])
    ]


def _wall_time(argv) -> float:
    start = time.perf_counter()
    subprocess.run(argv, check=True)
    return time.perf_counter() - start


def measure_setup() -> float:
    """Median over SETUP_RUNS fresh interpreters of the time to import
    twistgate and load the curve table, each scaled to the nominal host
    speed by the fresh interpreter run just before it that imports only
    numpy and mpmath (start-up time drifts with the host as much as the
    operations do, and most of it is those imports)."""
    ratios = []
    for _ in range(SETUP_RUNS):
        baseline = _wall_time([sys.executable, "-c", SETUP_BASELINE_CODE])
        ratios.append(_wall_time([sys.executable, "-c", SETUP_CODE, str(SRC)]) / baseline)
    return statistics.median(ratios) * NOMINAL_BASELINE_S


def run_worker(pool, job_rounds, seconds, trace) -> dict:
    job = {"src": str(SRC), "pool": pool, "rounds": job_rounds,
           "seconds": seconds, "trace": trace}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "twistgate" / "__init__.py").is_file():
        print(f"error: no twistgate sources under {SRC}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    pool = load_reference()["workloads"][args.workload]["pool"]

    if args.trace == 0:
        setup_s = measure_setup()
        job_rounds = rounds(pool, args.workload, args.seed, TIMED_ROUNDS)
        result = run_worker(pool, job_rounds, args.seconds, trace=False)
        passes = [result]
        latencies = sorted(scaled_latencies(result))
        tail, beyond = percentile(latencies, spec["tail_percentile"])
        metrics = {
            "ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1000,
            "latency_tail_ms": tail * 1000,
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = dict(END_TO_END)
        raw = sorted(result["latencies"])
        print(f"as measured, before scaling to the nominal host speed: "
              f"ops_per_s {len(raw) / sum(raw):.6g}, "
              f"latency_p50_ms {statistics.median(raw) * 1000:.6g}, "
              f"latency_tail_ms {percentile(raw, spec['tail_percentile'])[0] * 1000:.6g}")
        print(f"latency_tail_ms is p{spec['tail_percentile']}: "
              f"{beyond} of {len(latencies)} samples beyond it")
        if beyond < 10:
            print("warning: fewer than 10 samples beyond the tail percentile")
    else:
        job_rounds = rounds(pool, args.workload, args.seed, spec["trace_rounds"])
        plain = run_worker(pool, job_rounds, None, trace=False)
        result = run_worker(pool, job_rounds, None, trace=True)
        passes = [plain, result]
        metrics = dict(result["layers"])
        metrics["lterms_per_s"] = plain["lterms"] / sum(scaled_latencies(plain))
        metrics["trace.overhead_share"] = (
            sum(scaled_latencies(result)) / sum(scaled_latencies(plain)) - 1
        )
        units = {name: layer_unit(name) for name in metrics}

    ops = [i for r in job_rounds for i in r][:len(result["latencies"])]
    failed = sum(p["failed"] for p in passes)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations, {result['busy_s']:.2f} s busy, {failed} failed")
    for p in passes:
        for line in p["failures"]:
            print(f"  FAILED {line}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:.6g} {units[name]}")
    print(f"  inputs: {json.dumps(describe(pool, ops))}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(len(p["latencies"]) for p in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
