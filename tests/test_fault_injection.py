"""Fault injection: make one computation return a wrong value, and pin
which requests still end in PASS or RANK_ONLY.

Each injection replaces every ``weilzeta.*`` binding of one function.  A
request is scored only if the injection changed a value it returned to
the request; it escapes when it still ends in PASS or RANK_ONLY.  Every
escape is pinned with the ROADMAP item that closes it, so the list can
only shrink, and every injection but borel_dim makes ``suite`` fail;
``suite`` reads no K-torsion file, so parse_k_torsion does not score it.
"""

import json
import sys
from fractions import Fraction

import pytest

from weilzeta import cli, ff_zeta, lfunc, motivic_rank, number_field

REQUESTS = (
    "numberring --disc -23",
    "numberring --disc 229",
    "numberring --disc -999995",
    "numberring --disc 999997",
    "pn-of --disc -23 --n 2",
    "pn-of --disc 229 --n 1",
    "pn-of --disc 5 --n 2",
    "pn-of --disc -4 --n 3",
    "ff curve --p 13 --f x^3+x+1",
    "ff curve --p 65521 --f x^3+x+1",
    "ff curve --p 1021 --f x^5+x+1",
    "pn-of --disc 1 --n 1 --k-torsion q.txt",
    "pn-of --disc 5 --n 1 --k-torsion d5.txt",
    "suite",
)
# the --k-torsion files, written to the test's working directory
K_TORSION = {"q.txt": "K2=2\nK3=48\n", "d5.txt": "K2=4\nK3=120\n"}


def flipped_at_1(table):
    """A character table with chi(1) = -1."""
    table = table.copy()
    table[1] = -table[1]
    return table


# function -> the wrong value, from the right one and the function's arguments
INJECTIONS = {
    "class_number_imaginary": lambda h, D: h + 1,
    "class_number_real": lambda h, D: h + 1,
    # drops the last triple; a walk of one triple is left alone
    "_reduced_triples": lambda t, D: tuple(x[:-1] for x in t) if len(t[0]) > 1 else t,
    "fundamental_unit_real": lambda unit_R, D: (unit_R[0], unit_R[1] * 1.01),
    "l_at_0": lambda l0, D: l0 + Fraction(1, abs(D)),
    "l_prime_at_0": lambda l1, D: l1 * 1.01,
    "count_points": lambda count, curve, m=1: count + 2 if m == curve.genus else count,  # N_g + 2
    "character_table": lambda chi, D: flipped_at_1(chi),
    "legendre": lambda chi, p: flipped_at_1(chi),
    "borel_dim": lambda rank, inv, r: rank + 1 if r >= 2 else rank,
    "pn_of_order": lambda order, inv, n: order + 1,
    "parse_k_torsion": lambda orders, path: {m: t + 1 for m, t in orders.items()},
}

# function -> {request: (verdict, the ROADMAP item that closes the escape)}
ESCAPES = {
    # above n = 0 no value side meets the class number or the regulator
    "class_number_imaginary": {"pn-of --disc -23 --n 2": ("RANK_ONLY", 5),
                               "pn-of --disc -4 --n 3": ("RANK_ONLY", 5)},
    "class_number_real": {"pn-of --disc 229 --n 1": ("RANK_ONLY", 5),
                          "pn-of --disc 5 --n 2": ("RANK_ONLY", 5),
                          "pn-of --disc 5 --n 1 --k-torsion d5.txt": ("RANK_ONLY", 5)},
    "_reduced_triples": {"pn-of --disc -23 --n 2": ("RANK_ONLY", 5)},
    "fundamental_unit_real": {"pn-of --disc 229 --n 1": ("RANK_ONLY", 5),
                              "pn-of --disc 5 --n 2": ("RANK_ONLY", 5),
                              "pn-of --disc 5 --n 1 --k-torsion d5.txt": ("RANK_ONLY", 5)},
    # zeta_F(0) is off by 5e-7, inside the tolerance 1e-8 * 240; an exact
    # comparison for D < 0 closes it
    "l_at_0": {"numberring --disc -999995": ("PASS", 4)},
    "character_table": {"numberring --disc -999995": ("PASS", 4)},
    # a wrong N_g is reproduced by the Z(t) built from it; the Jacobian
    # side closes it.  At p = 13, N_1..N_4 are counted, and "counts
    # reproduced from Z(t)" catches it
    "count_points": {"ff curve --p 65521 --f x^3+x+1": ("PASS", 1),
                     "ff curve --p 1021 --f x^5+x+1": ("PASS", 1)},
    "legendre": {"ff curve --p 65521 --f x^3+x+1": ("PASS", 1),
                 "ff curve --p 1021 --f x^5+x+1": ("PASS", 1)},
    # the table's ranks and Soule's sum read the same Borel dimensions
    "borel_dim": {"pn-of --disc -23 --n 2": ("RANK_ONLY", 5),
                  "pn-of --disc 229 --n 1": ("RANK_ONLY", 5),
                  "pn-of --disc 5 --n 2": ("RANK_ONLY", 5),
                  "pn-of --disc -4 --n 3": ("RANK_ONLY", 5),
                  "pn-of --disc 1 --n 1 --k-torsion q.txt": ("RANK_ONLY", 5),
                  "pn-of --disc 5 --n 1 --k-torsion d5.txt": ("RANK_ONLY", 5),
                  "suite": ("PASS", 5)},
    # no value side reads the K-torsion orders: it fails nowhere
    "parse_k_torsion": {"pn-of --disc 1 --n 1 --k-torsion q.txt": ("RANK_ONLY", 5),
                        "pn-of --disc 5 --n 1 --k-torsion d5.txt": ("RANK_ONLY", 5)},
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
def test_injected_faults_escape_only_where_pinned(monkeypatch, capsys, tmp_path, name):
    for file, text in K_TORSION.items():
        (tmp_path / file).write_text(text)
    monkeypatch.chdir(tmp_path)
    original = next(vars(m)[name] for m in (cli, ff_zeta, lfunc, motivic_rank, number_field)
                    if name in vars(m))
    calls = []

    def injected(*args):
        right = original(*args)
        wrong = INJECTIONS[name](right, *args)
        if wrong is not right:  # the injection returns a value it leaves alone as is
            calls.append(args)
        return wrong

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
    if name == "parse_k_torsion":
        assert "suite" not in outcomes
    else:
        assert outcomes["suite"] == ("PASS" if name == "borel_dim" else "FAIL")


def test_a_count_outside_the_hasse_bound_fails_on_it_alone(monkeypatch, capsys):
    # g = 1 and p^2 > COUNT_BOUND: only N_1 is counted, so no recount meets
    # it, and N_1 + 1100 is outside q + 1 +- 2 sqrt(q) ~ q + 1 +- 512
    original = ff_zeta.count_points
    monkeypatch.setattr(ff_zeta, "count_points",
                        lambda curve, m=1: original(curve, m) + (1100 if m == 1 else 0))
    assert cli.run("ff curve --p 65521 --f x^3+x+1 --json".split()) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "FAIL"
    assert [c for c in report["caveats"] if c.startswith("failed: ")] == ["failed: Hasse bound"]
