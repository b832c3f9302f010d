"""Output checks behind `failed` and `failed_ratio`.

A CLI request fails on a wrong exit code, anything on stderr (an
`error:` line or a traceback), a wrong verdict, or, where reference.json
holds the request, a value that differs from the one captured at the
seed commit.  Reference entries exist for DEFAULT_SEED only; any other
seed is held out and checked by exit code and verdict alone.

A Smith normal form request is checked as acceptance criterion 6 checks
it (U M V = D, U and V unimodular, D diagonal with a divisibility chain),
with integer arithmetic of the benchmark's own.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
EXPECTED_VERDICT = {
    "numberring": "PASS",
    "pn-of": "RANK_ONLY",
    "ff pn": "PASS",
    "ff curve": "PASS",
    "open": "PASS",
}
VALUE_KEYS = ("special_value_predicted", "special_value_computed")
REL_TOL = 1e-9


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def summarize(exit_code: int, report: dict) -> dict:
    """The parts of a JSON report that the reference pins."""
    values = []
    for key in VALUE_KEYS:
        v = report[key]
        values.append(None if v is None else [v["mantissa"], v["log_exponents"], v["numeric"]])
    return {
        "exit": exit_code,
        "verdict": report["verdict"],
        "rank_predicted": report["rank_predicted"],
        "ord_computed": report["ord_computed"],
        "values": values,
    }


def _numbers_differ(a, b) -> bool:
    if a is None or b is None:
        return a is not b
    return not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def diff_summary(got: dict, want: dict) -> str | None:
    for key in ("exit", "verdict", "rank_predicted", "ord_computed"):
        if got[key] != want[key]:
            return f"{key} {got[key]!r} != reference {want[key]!r}"
    for name, g, w in zip(VALUE_KEYS, got["values"], want["values"]):
        if (g is None) != (w is None):
            return f"{name} {g!r} != reference {w!r}"
        if g is None:
            continue
        if g[:2] != w[:2]:
            return f"{name} exact part {g[:2]!r} != reference {w[:2]!r}"
        if _numbers_differ(g[2], w[2]):
            return f"{name} numeric {g[2]!r} != reference {w[2]!r}"
    return None


def check_cli(request, exit_code: int, out: str, err: str, reference: dict):
    """(failure reason or None, summary or None) for one CLI request."""
    if err.strip():
        return f"stderr: {err.strip().splitlines()[-1]}", None
    try:
        summary = summarize(exit_code, json.loads(out))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}", None
    if exit_code != 0:
        return f"exit code {exit_code}", summary
    if summary["verdict"] != EXPECTED_VERDICT[request.verb]:
        return f"verdict {summary['verdict']}", summary
    want = reference.get(request.key)
    return (diff_summary(summary, want) if want else None), summary


# ---------------------------------------------------------------------------
# Smith normal form

def _matmul(a, b, inner):
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)] for i in range(len(a))]


def _det(rows) -> Fraction:
    a = [[Fraction(x) for x in r] for r in rows]
    n, det = len(a), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return det


def check_snf(matrix, u, d, v) -> str | None:
    """Failure reason or None for U, D, V given as lists of rows."""
    rows, cols, entries = matrix
    m = [list(entries[i * cols:(i + 1) * cols]) for i in range(rows)]
    if len(u) != rows or len(v) != cols or len(d) != rows or any(len(r) != cols for r in d):
        return "shapes of U, D, V do not match M"
    if rows and cols and _matmul(_matmul(u, m, rows), v, cols) != d:
        return "U M V != D"
    if abs(_det(u)) != 1 or abs(_det(v)) != 1:
        return "U or V not unimodular"
    if any(d[i][j] for i in range(rows) for j in range(cols) if i != j):
        return "D not diagonal"
    diag = [d[i][i] for i in range(min(rows, cols))]
    for x, y in zip(diag, diag[1:]):
        if (y != 0) if x == 0 else (y % x != 0):
            return "diagonal not a divisibility chain"
    return None
