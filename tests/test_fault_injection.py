"""Fault injection: make one computation return a wrong value, and pin
which requests still end in PASS or RANK_ONLY.

Each injection replaces every ``weilzeta.*`` binding of one function.  A
request is scored only if the replaced function was called; it escapes
when it still ends in PASS or RANK_ONLY.  Every escape is pinned with the
ROADMAP item that closes it, so the list can only shrink.  These are the
number-ring rows; curves, borel_dim, pn_of_order and the K-torsion
orders are still to come.
"""

import sys
from fractions import Fraction

import pytest

from weilzeta import cli, lfunc, number_field

REQUESTS = (
    "numberring --disc -23",
    "numberring --disc 229",
    "numberring --disc -999995",
    "numberring --disc 999997",
    "pn-of --disc -23 --n 2",
    "pn-of --disc 229 --n 1",
    "suite",
)


# function -> the wrong value, from the right one and the discriminant
INJECTIONS = {
    "class_number_imaginary": lambda h, D: h + 1,
    "class_number_real": lambda h, D: h + 1,
    "_reduced_triples": lambda triples, D: tuple(x[:-1] for x in triples),  # the last triple
    "fundamental_unit_real": lambda unit_R, D: (unit_R[0], unit_R[1] * 1.01),
    "l_at_0": lambda l0, D: l0 + Fraction(1, abs(D)),
    "l_prime_at_0": lambda l1, D: l1 * 1.01,
}

# function -> {request: (verdict, the ROADMAP item that closes the escape)}
ESCAPES = {
    # above n = 0 no value side meets the class number or the regulator
    "class_number_imaginary": {"pn-of --disc -23 --n 2": ("RANK_ONLY", 5)},
    "class_number_real": {"pn-of --disc 229 --n 1": ("RANK_ONLY", 5)},
    "_reduced_triples": {"pn-of --disc -23 --n 2": ("RANK_ONLY", 5)},
    "fundamental_unit_real": {"pn-of --disc 229 --n 1": ("RANK_ONLY", 5)},
    # zeta_F(0) is off by 5e-7, inside the tolerance 1e-8 * 240; an exact
    # comparison for D < 0 closes it
    "l_at_0": {"numberring --disc -999995": ("PASS", 4)},
}


def outcome(request, capsys):
    code = cli.run(request.split())
    out, _ = capsys.readouterr()
    if request == "suite":
        return "PASS" if code == 0 else "FAIL"
    if code == 1:
        return "error"
    return next(line.split()[-1] for line in out.splitlines() if line.startswith("verdict:"))


@pytest.mark.parametrize("name", INJECTIONS)
def test_injected_faults_escape_only_where_pinned(monkeypatch, capsys, name):
    original = getattr(number_field, name, None) or getattr(lfunc, name)
    calls = []

    def injected(D):
        calls.append(D)
        return INJECTIONS[name](original(D), D)

    for module in [m for key, m in sys.modules.items() if key.startswith("weilzeta.")]:
        if vars(module).get(name) is original:
            monkeypatch.setattr(module, name, injected)
    outcomes = {}
    for request in REQUESTS:
        calls.clear()
        verdict = outcome(request, capsys)
        if calls:
            outcomes[request] = verdict
    escapes = {r: v for r, v in outcomes.items() if v in ("PASS", "RANK_ONLY")}
    assert escapes == {r: v for r, (v, _) in ESCAPES.get(name, {}).items()}
    assert outcomes["suite"] == "FAIL"
