"""One closed-loop client in a fresh interpreter.

Reads a job from stdin, runs its rounds of operations through
``twistgate.cli.run([..., "--json"])`` one after another, checks each
output after its timed call, and prints one JSON result to stdout.

With ``seconds`` set, whole rounds run until the summed operation time
reaches it; otherwise every round runs once (the traced run needs the same
operations on every run so that its counts repeat exactly).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from checks import check

# Loads the curve table and imports every layer before timing starts; it
# shares no input with any workload.
WARMUP = ["curve-info", "--label", "15a1"]
CALIBRATION_EVERY_S = 0.5


def run_op(cli, argv):
    """(seconds, status, payload) of one operation; status 'error: ...' if it raised.

    ``cli.run`` is looked up on every call, so a traced wrapper is used.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            cli.run(argv + ["--json"])
        except (Exception, SystemExit) as exc:
            return time.perf_counter() - start, f"error: {type(exc).__name__}: {exc}", {}
        elapsed = time.perf_counter() - start
    try:
        document = json.loads(out.getvalue())
    except json.JSONDecodeError as exc:
        return elapsed, f"error: output is not one JSON document ({exc})", {}
    return elapsed, document["status"], document["payload"]


def calibrate() -> float:
    """Seconds taken by fixed work that uses no program code: an interpreted
    integer loop and vectorised modular arithmetic, in about equal parts, as
    the workloads mix them.  The speed of the shared host drifts by tens of
    percent within minutes; the program's timings follow this loop's."""
    start = time.perf_counter()
    total = 0
    for i in range(70_000):
        total += i * i % 7
    x = np.arange(20_011, dtype=np.int64)
    for p in (20_011, 10_007, 5_003) * 6:
        y = x[:p]
        g = (4 * y + 3) % p
        g = (g * y + 5) % p
        squares = np.zeros(p, dtype=bool)
        squares[(y * y) % p] = True
        total += int(np.count_nonzero(squares[g]))
    return time.perf_counter() - start


def _lterms(argv, status, payload) -> int:
    """Dirichlet terms summed by an L-value operation."""
    if status.startswith("error") or status == "unsupported-input":
        return 0
    if argv[0] == "lvalue":
        return payload["terms_used"]
    if argv[0] == "check-hypothesis":
        return sum(c["terms_used"] for c in payload["characters"])
    return 0


def import_twistgate(src: Path):
    """Import twistgate from the given source tree, refusing any other copy."""
    sys.path.insert(0, str(src))
    import twistgate.cli

    if Path(twistgate.__file__).resolve().parent != (src / "twistgate").resolve():
        raise SystemExit(f"imported twistgate from {twistgate.__file__}, not {src}")
    return twistgate.cli


def main() -> None:
    job = json.load(sys.stdin)
    cli = import_twistgate(Path(job["src"]))
    run_op(cli, WARMUP)
    tracer = None
    if job["trace"]:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()

    pool, seconds = job["pool"], job["seconds"]
    latencies: list[float] = []
    failures: list[str] = []
    failed = 0
    lterms = 0
    busy = 0.0
    calibrations = [calibrate()]
    blocks: list[int] = []  # per operation, the calibration taken before it
    since_calibration = 0.0  # operation time since the last calibration
    for round_ in job["rounds"]:
        if seconds is not None and busy >= seconds:
            break
        for index in round_:
            op = pool[index]
            elapsed, status, payload = run_op(cli, op["argv"])
            busy += elapsed
            latencies.append(elapsed)
            blocks.append(len(calibrations) - 1)
            since_calibration += elapsed
            if since_calibration >= CALIBRATION_EVERY_S:
                calibrations.append(calibrate())
                since_calibration = 0.0
            reason = status if status.startswith("error") else check(op, status, payload)
            if reason:
                failed += 1
                if len(failures) < 10:
                    failures.append(f"{' '.join(op['argv'])}: {reason}")
            lterms += _lterms(op["argv"], status, payload)
    calibrations.append(calibrate())
    result = {
        "latencies": latencies,
        "busy_s": busy,
        "calibrations": calibrations,
        "blocks": blocks,
        "failed": failed,
        "failures": failures,
        "lterms": lterms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": tracer.metrics() if tracer else None,
    }
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
