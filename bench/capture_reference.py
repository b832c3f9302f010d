"""Regenerate bench/reference.json at the commit whose outputs it pins.

    python3 bench/capture_reference.py

Runs the first CYCLES[workload] cycles of every workload for DEFAULT_SEED
in a fresh worker each and stores, per request, the exit code, verdict,
rank_predicted, ord_computed and both special values (exact mantissa,
log exponents, numeric).  A run that completes more cycles than captured
checks the rest by exit code and verdict only.  Requests that fail are
not captured.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from checks import REFERENCE  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# a little more than a 30-second run completes at the seed commit
CYCLES = {"ff_curves": 24, "quad_fields": 8, "verb_mix": 32}


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        for workload in sorted(WORKLOADS):
            out = Path(tmp) / f"{workload}.json"
            cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                   "--seed", str(DEFAULT_SEED), "--seconds", "600", "--cycles", str(CYCLES[workload]),
                   "--capture", str(out)]
            stream = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            for line in stream.splitlines():
                failure = json.loads(line).get("fail")
                if failure:
                    print(f"{workload}: not captured: {failure}", file=sys.stderr)
            reference[workload] = json.loads(out.read_text(encoding="utf-8"))
    blocks = []  # one request per line
    for workload, entries in sorted(reference.items()):
        lines = ",\n".join(f"{json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
                           for key, value in sorted(entries.items()))
        blocks.append(f"{json.dumps(workload)}: {{\n{lines}\n}}")
    REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
