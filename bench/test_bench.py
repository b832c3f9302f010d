"""Self-test of the benchmark at tiny size.

    python3 -m pytest -q bench/test_bench.py

One request per verb, run untraced and traced, checked against the
reference for DEFAULT_SEED and by exit code and verdict for a held-out
seed; plus one short run of bench/run.py per trace mode.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import worker  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import PER_LAYER, Tracer, per_layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

HELD_OUT_SEED = 7
VERBS = {"numberring", "pn-of", "ff pn", "ff curve", "open", "snf"}


def _size(request) -> int:
    return max([abs(int(a)) for a in request.argv if a.lstrip("-").isdigit()] or [0])


def one_per_verb(seed: int) -> list:
    """The smallest request of each verb in the first cycles of the workloads."""
    picks = {}
    for name in ("quad_fields", "verb_mix", "ff_curves"):
        for request in sorted(next(WORKLOADS[name](seed)), key=_size):
            picks.setdefault(request.verb, request)
    assert set(picks) == VERBS
    return list(picks.values())


@pytest.fixture(scope="module")
def program():
    cli, fgab = worker.import_program()
    worker.set_up("verb_mix", DEFAULT_SEED, cli, fgab)  # report files for `open`
    return cli, fgab


def test_benchmark_json_names_every_metric_the_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
def test_one_request_per_verb_untraced_and_traced(program, seed):
    cli, fgab = program
    reference = checks.load_reference()
    reference = {k: v for w in reference.values() for k, v in w.items()} if seed == DEFAULT_SEED else {}
    requests = one_per_verb(seed)
    if seed == DEFAULT_SEED:
        assert all(r.key in reference for r in requests if r.verb != "snf")
    original = cli.run
    with Tracer() as tracer:
        assert cli.run is not original
        for i, request in enumerate(requests):
            tracer.request = i
            _, failure, _ = worker.execute(request, cli, fgab, reference)
            assert failure is None, (request.key, failure)
    assert cli.run is original
    for request in requests:
        _, failure, _ = worker.execute(request, cli, fgab, reference)
        assert failure is None, (request.key, failure)

    metrics = per_layer_metrics(tracer)
    assert set(metrics) == {name for name, _, _ in PER_LAYER} - {"trace.overhead_ratio"}
    assert not [name for name, m in metrics.items() if m.get("absent")]
    assert metrics["cli.run.self_s"]["value"] > 0
    assert metrics["fgab.smith_normal_form.calls"]["value"] == 1
    assert metrics["ff_zeta.count_points.calls"]["value"] > 0


def test_check_rejects_a_changed_value(program):
    cli, fgab = program
    request = next(r for r in one_per_verb(DEFAULT_SEED) if r.verb == "ff pn")
    code, out, err = worker.call_cli(cli, request.argv)
    report = json.loads(out)
    want = checks.summarize(code, report)
    assert checks.check_cli(request, code, out, err, {request.key: want}) == (None, want)
    report["special_value_computed"]["numeric"] *= 1 + 1e-6
    assert checks.check_cli(request, code, json.dumps(report), err, {request.key: want})[0]
    assert checks.check_snf((1, 1, (2,)), [[1]], [[3]], [[1]]) == "U M V != D"


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_contract_line(trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "verb_mix",
           "--seed", str(HELD_OUT_SEED), "--seconds", "0.1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = [n for n, *_ in (PER_LAYER if trace else END_TO_END)]
    assert sorted(result["metrics"]) == sorted(names)
    assert result["attempted"] >= 1
