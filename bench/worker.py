"""One fresh benchmark process: runs a single workload in a closed loop.

One client sends a request, waits for it, checks its output, and only
then sends the next; no threads, no pool.  The process imports the
program from ``src/`` of the checkout it sits in, so its peak RSS is that
of the program running this workload alone.  Its standard output is a
stream of JSON lines, ending with {"end": ...}; bench/run.py reads it.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S
           [--cycles C] [--trace] [--capture FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402


def import_program():
    """The CLI and fgab modules of the checkout's own source tree."""
    sys.path.insert(0, str(SRC))
    from weilzeta import cli, fgab

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"weilzeta imported from {cli.__file__}, not from {SRC}")
    return cli, fgab


# About 4x the slowest request that completes at the seed commit.  The
# alarm interrupts Python code only: a request stuck in one long C call
# (a huge integer product) ignores it, and bench/run.py kills the worker
# at its time limit instead.
REQUEST_TIMEOUT_S = 20
RSS_CYCLES = 4  # peak RSS is read after this many cycles (or the last, if fewer)
STOP_FACTOR = 2


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout(f"no answer within {REQUEST_TIMEOUT_S} s")


@contextlib.contextmanager
def time_limit(seconds: float):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def call_cli(cli, argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def execute(request, cli, fgab, reference):
    """(latency in s, failure reason or None, report summary or None).
    A request fails if it raises (a traceback, an argparse exit) or takes
    longer than REQUEST_TIMEOUT_S."""
    matrix = fgab.IntMatrix(*request.matrix) if request.verb == "snf" else None
    start = time.perf_counter()
    try:
        with time_limit(REQUEST_TIMEOUT_S):
            start = time.perf_counter()
            if matrix is None:
                code, out, err = call_cli(cli, request.argv)
            else:
                u, d, v = fgab.smith_normal_form(matrix)
            latency = time.perf_counter() - start
    except (Exception, SystemExit) as exc:
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}", None
    if matrix is not None:
        return latency, checks.check_snf(request.matrix, u.to_rows(), d.to_rows(), v.to_rows()), None
    failure, summary = checks.check_cli(request, code, out, err, reference)
    return latency, failure, summary


def set_up(workload: str, seed: int, cli, fgab) -> set:
    """Untimed preparation: warms the fixed fields of ff_curves, writes
    the report files of verb_mix.  Returns the primes whose fields it built."""
    primes = set()
    if workload == "ff_curves":
        for request in workloads.ff_curves_setup(seed):
            _, failure, _ = execute(request, cli, fgab, {})
            if failure:
                raise RuntimeError(f"set-up request {request.key!r} failed: {failure}")
            primes.add(request.prime)
    elif workload == "verb_mix":
        for path, request in workloads.verb_mix_setup().items():
            code, out, err = call_cli(cli, request.argv)
            failure, _ = checks.check_cli(request, code, out, err, {})
            if failure:
                raise RuntimeError(f"set-up request {request.key!r} failed: {failure}")
            (ROOT / path).parent.mkdir(parents=True, exist_ok=True)
            (ROOT / path).write_text(out, encoding="utf-8")
    return primes


def emit(record: dict) -> None:
    """One line of the result stream.  Every request and every cycle is
    written as it ends, so a run killed at its time limit by a request
    that never returns still leaves what it measured."""
    print(json.dumps(record), flush=True)


def run(workload, seed, seconds, cycles=None, trace=False, capture=None) -> dict:
    """Whole cycles until ``seconds`` have passed, or exactly ``cycles``
    cycles.  Either way the loop gives up, mid-cycle if need be, once
    STOP_FACTOR * seconds have passed.  Streams {"lat", "fail"} per
    request and {"cycle_s", "correct", "rss_mb"} per cycle; returns the
    rest of the result."""
    cli, fgab = import_program()
    os.chdir(ROOT)
    reference = checks.load_reference() if seed == workloads.DEFAULT_SEED and not capture else {}
    reference = reference.get(workload, {})
    tracer = Tracer() if trace else None
    captured = {}
    warm = curves = requests = 0
    with tracer or contextlib.nullcontext():
        seen_primes = set_up(workload, seed, cli, fgab)
        start = time.perf_counter()
        stop = start + STOP_FACTOR * seconds
        for done, cycle in enumerate(workloads.WORKLOADS[workload](seed), start=1):
            cycle_start, correct = time.perf_counter(), 0
            for request in cycle:
                if tracer:
                    tracer.request = requests
                requests += 1
                latency, failure, summary = execute(request, cli, fgab, reference)
                emit({"lat": latency, "fail": failure and f"{request.key}: {failure}"})
                correct += failure is None
                if summary is not None and capture:
                    captured[request.key] = summary
                if request.prime:
                    curves += 1
                    warm += request.prime in seen_primes
                    seen_primes.add(request.prime)
                if time.perf_counter() >= stop:
                    break
            now = time.perf_counter()
            last = done == cycles or now >= stop or (cycles is None and now - start >= seconds)
            rss_mb = None
            if done == RSS_CYCLES or (last and done < RSS_CYCLES):
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            emit({"cycle_s": now - cycle_start, "correct": correct, "rss_mb": rss_mb})
            if last:
                break
        elapsed = time.perf_counter() - start
    import numpy

    result = {"elapsed_s": elapsed, "numpy": numpy.__version__,
              "ff_warm_share": warm / curves if curves else None}
    if tracer:
        result["per_layer"] = per_layer_metrics(tracer)
        result["spans"] = len(tracer.spans)
        (WORK / "trace").mkdir(parents=True, exist_ok=True)
        tracer.dump(WORK / "trace" / f"{workload}-seed{seed}.jsonl")
    if capture:
        with open(capture, "w", encoding="utf-8") as fh:
            json.dump(captured, fh)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--cycles", type=int, help="run exactly this many cycles")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--capture", help="write the report summaries to this file")
    args = parser.parse_args(argv)
    emit({"end": run(args.workload, args.seed, args.seconds, args.cycles, args.trace, args.capture)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
