"""Benchmark entry point: one workload, one seed, one measured run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/``.  With --trace 0 a fresh worker process (bench/worker.py) runs
the workload untraced in a closed loop for S seconds, rounded up to whole
cycles (but never past 2S), and the run reports the end-to-end metrics.  With --trace 1 one
worker runs untraced for S/2 seconds and a second one replays the same
cycles traced; the run reports the per-layer metrics of the traced
worker and the tracing overhead, the traced wall time over the untraced.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
details (tail percentile, sample counts, warm share, failures, Python
and numpy versions, CPU count).  Files the run writes go under
.bench_work/ of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))
from tracing import PER_LAYER  # noqa: E402
from worker import RSS_CYCLES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# (name, unit): the end-to-end metrics of an untraced run
END_TO_END = (
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
# The tail percentile of each workload: the highest of 50, 90, 95 and 99
# that 45-second runs of the seed commit leave at least ten samples
# beyond (about 30, 15 and 20).  Fixed, so that a later commit that
# completes more requests is compared on the same percentile.
TAIL_PERCENTILE = {"ff_curves": 95, "quad_fields": 50, "verb_mix": 99}
SETUP_REPEATS = 5
TIME_LIMIT_S = 170  # both workers of a traced run together
WORKER_SLACK_S = 20  # beyond the worker's own stop at twice its --seconds


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing weilzeta.cli,
    after one unmeasured import that leaves the bytecode cache warm."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import weilzeta.cli"
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def run_worker(limit_s: float, *args: str) -> dict:
    """Run a worker for at most ``limit_s`` seconds and collect its stream.
    A worker still busy at the limit is killed; the request it was
    serving counts as failed, and the rest of what it streamed stands."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, limit_s))
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout or ""
        out = out.decode() if isinstance(out, bytes) else out
        end = None
    else:
        if proc.returncode != 0:
            raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
        out, end = proc.stdout, {}
    run = {"latencies_s": [], "failures": [], "cycle_s": [], "cycle_correct": [], "peak_rss_mb": None}
    for line in out.splitlines():
        try:
            record = json.loads(line)
        except ValueError:  # the last line of a killed worker may be cut short
            continue
        if "lat" in record:
            run["latencies_s"].append(record["lat"])
            if record["fail"]:
                run["failures"].append(record["fail"])
        elif "cycle_s" in record:
            run["cycle_s"].append(record["cycle_s"])
            run["cycle_correct"].append(record["correct"])
            run["peak_rss_mb"] = record["rss_mb"] or run["peak_rss_mb"]
        elif "end" in record:
            end = record["end"]
    run["attempted"] = len(run["latencies_s"])
    if end is None:
        run["attempted"] += 1
        run["failures"].append(f"a request gave no answer within the run's {limit_s:.0f} s")
        end = {"elapsed_s": sum(run["cycle_s"]), "numpy": None, "ff_warm_share": None}
        if run["peak_rss_mb"] is None:
            run["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    run["failed"] = len(run["failures"])
    run["cycles"] = len(run["cycle_s"])
    return {**run, **end}


def percentile(latencies, p: float):
    """(nearest-rank p-th percentile, samples beyond it)."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="weilzeta benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weilzeta" / "cli.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            half = ["--seconds", str(args.seconds / 2)]
            plain = run_worker(args.seconds + WORKER_SLACK_S, *common, *half)
            traced = run_worker(TIME_LIMIT_S - args.seconds - WORKER_SLACK_S, *common, *half,
                                "--cycles", str(max(1, plain["cycles"])), "--trace")
            runs = [plain, traced]
            if "per_layer" not in traced:
                raise RuntimeError("the traced worker was killed at its time limit")
            units = {name: unit for name, unit, _ in PER_LAYER}
            metrics = dict(traced["per_layer"])
            metrics["trace.overhead_ratio"] = {
                "value": traced["elapsed_s"] / plain["elapsed_s"],
                "unit": units["trace.overhead_ratio"],
            }
        else:
            setup_s = measure_setup()
            plain = run_worker(2 * args.seconds + WORKER_SLACK_S, *common, "--seconds", str(args.seconds))
            runs = [plain]
            lat = plain["latencies_s"]
            tail_s, _ = percentile(lat, TAIL_PERCENTILE[args.workload])
            values = {
                "latency_p50_s": statistics.median(lat),
                "latency_tail_s": tail_s,
                "throughput_rps": statistics.median(
                    [n / s for n, s in zip(plain["cycle_correct"], plain["cycle_s"])]
                    or [(plain["attempted"] - plain["failed"]) / sum(lat)]),
                "setup_s": setup_s,
                "peak_rss_mb": plain["peak_rss_mb"],
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    _, beyond = percentile(plain["latencies_s"], TAIL_PERCENTILE[args.workload])
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": [r["cycles"] for r in runs],
        "elapsed_s": [r["elapsed_s"] for r in runs],
        "failed_ratio": failed / attempted,
        "tail_percentile": TAIL_PERCENTILE[args.workload],
        "samples": len(plain["latencies_s"]), "samples_beyond_tail": beyond,
        "ff_warm_share": plain["ff_warm_share"],
        "peak_rss_at_cycle": min(RSS_CYCLES, plain["cycles"]),
        "failures": [f for r in runs for f in r["failures"]],
        "python": platform.python_version(), "numpy": plain["numpy"],
        "nproc": os.cpu_count(),
    }
    if args.trace:
        detail["spans"] = traced["spans"]
        detail["absent"] = sorted(k for k, v in metrics.items() if v.get("absent"))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
