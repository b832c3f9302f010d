import ast
import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from weilzeta import ff_zeta, number_field, reports, weil_tables
from weilzeta.acceptance import NUMBER_RING_SUITE, curve_panel, open_pairs
from weilzeta.cli import UsageError, build_parser, parse_k_torsion, parse_poly, run
from weilzeta.ff_zeta import CurveSpec, ProjectiveSpace
from weilzeta.number_field import MAX_ABS_DISC, InvariantsError, NumberFieldInvariants, quad_invariants
from weilzeta.reports import (
    FAIL,
    PASS,
    RANK_ONLY,
    UNSUPPORTED,
    emit_report,
    ff_report,
    open_report,
    parse_report,
    pn_of_report,
    poly_to_str,
)
from weilzeta.weil_tables import MAX_PN_OF_N


def cli(*argv):
    """(exit code, stdout, stderr) of the command line, run in process;
    a few tests below start `python -m weilzeta.cli` itself."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# report builders

def test_numberring_report_pass():
    report = pn_of_report(quad_invariants(-23))
    assert report.verdict == PASS and report.exit_code == 0
    assert report.rank_predicted == 0 and report.ord_computed == 0
    # -h R / w = -3/2
    assert report.special_value_predicted.mantissa == Fraction(-3, 2)


def test_numberring_report_unsupported():
    cubic = NumberFieldInvariants(1, 1, 1, 0.3, 2, disc=-23)
    report = pn_of_report(cubic)
    assert report.verdict == UNSUPPORTED and report.exit_code == 3
    assert report.special_value_computed is None


def test_pn_of_report_rank_only():
    report = pn_of_report(quad_invariants(-4), 2)
    assert report.verdict == RANK_ONLY and report.exit_code == 0
    assert report.rank_predicted == report.ord_computed == 2
    assert report.special_value_computed is None
    assert any("k-torsion unknown" in c for c in report.caveats)


def test_pn_of_report_n0_delegates():
    report = pn_of_report(quad_invariants(5), 0)
    assert report.verdict == PASS
    assert report.object == "Spec O_F, disc 5"


def test_pn_of_report_builds_its_table_once(monkeypatch):
    calls = []
    build = weil_tables.pn_of_table
    monkeypatch.setattr(weil_tables, "pn_of_table", lambda *a: calls.append(a) or build(*a))
    report = pn_of_report(quad_invariants(5), 0)
    assert report.verdict == PASS and len(calls) == 1


def test_pn_of_report_with_torsion_still_rank_only():
    report = pn_of_report(quad_invariants(5), 1, k_torsion={2: 24, 3: 2})
    assert report.verdict == RANK_ONLY
    assert any("analytic determinant unavailable" in c for c in report.caveats)


def test_ff_report_pass():
    report = ff_report(ProjectiveSpace(4, 2))
    assert report.verdict == PASS
    assert report.ord_computed == -1
    report = ff_report(CurveSpec(5, (0, -1, 0, 1)))
    assert report.verdict == PASS
    assert abs(report.special_value_computed.mantissa) == 2


# ---------------------------------------------------------------------------
# open-subscheme combinator

def test_open_report_empty_fibers_is_identity():
    base = ff_report(ProjectiveSpace(3, 1))
    assert open_report(base, []) == base


def test_open_report_affine_line():
    # P^1 minus a point is A^1: rank and order drop to 0, value is 1/(1-q)
    q = 5
    base = ff_report(ProjectiveSpace(q, 1))
    point = ff_report(ProjectiveSpace(q, 0))
    u = open_report(base, [point])
    assert u.verdict == PASS
    assert u.rank_predicted == 0 and u.ord_computed == 0
    value = u.special_value_computed
    expected = base.special_value_computed.numeric() / point.special_value_computed.numeric()
    assert abs(value.numeric() - expected) < 1e-12
    assert value.log_exponents == {}


def test_open_report_associative():
    base = ff_report(ProjectiveSpace(3, 2))
    f1 = ff_report(ProjectiveSpace(3, 1))
    f2 = ff_report(ProjectiveSpace(3, 0))
    both = open_report(base, [f1, f2])
    nested = open_report(open_report(base, [f1]), [f2])
    assert both.rank_predicted == nested.rank_predicted
    assert both.ord_computed == nested.ord_computed
    assert both.special_value_computed == nested.special_value_computed


def test_open_report_propagates_failures():
    base = ff_report(ProjectiveSpace(3, 1))
    bad = parse_report(emit_report(base, as_json=True))
    bad.verdict = FAIL
    assert open_report(base, [bad]).verdict == FAIL
    unsupported = parse_report(emit_report(base, as_json=True))
    unsupported.verdict = UNSUPPORTED
    assert open_report(base, [unsupported]).verdict == UNSUPPORTED


# ---------------------------------------------------------------------------
# input syntax

def test_parse_poly():
    assert parse_poly("x^3-2x+1") == (1, -2, 0, 1)
    assert parse_poly("x^3 + x") == (0, 1, 0, 1)
    assert parse_poly("2x^5-x^2+7") == (7, 0, -1, 0, 0, 2)
    assert parse_poly("-x^3") == (0, 0, 0, -1)
    assert parse_poly("3*x^2+1") == (1, 0, 3)
    assert parse_poly("x+x") == (0, 2)


def test_parse_poly_errors():
    for bad in ("", "x^", "y^3", "x**3", "3..5x", "+", "-", "x--1", "x^3+-", "x^101", "9" * 5000):
        with pytest.raises(UsageError):
            parse_poly(bad)
    assert len(parse_poly("x^100+1")) == 101


def test_parse_poly_arbitrary_text_is_tuple_or_usage_error():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    pieces = st.sampled_from(["x", "^", "+", "-", "*", " ", "0", "1", "7", "99", "100", "101", "9" * 30])
    texts = st.text(max_size=12) | st.lists(pieces, max_size=12).map("".join)

    @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @hypothesis.given(texts)
    def check(text):
        try:
            coeffs = parse_poly(text)
        except UsageError as exc:
            assert len(str(exc).splitlines()) == 1
            return
        assert type(coeffs) is tuple and coeffs
        assert len(coeffs) <= 101 and all(type(c) is int for c in coeffs)

    check()


def test_poly_roundtrip():
    for coeffs in ((1, -2, 0, 1), (0, 1, 0, 1), (7, 0, -1, 0, 0, 2), (0, 0, 0, -1)):
        assert parse_poly(poly_to_str(coeffs)) == coeffs
    for coeffs, text in (((), "0"), ((1,), "1"), ((-3, 1), "x-3"),
                         ((7, 0, -1, 0, 0, 2), "2x^5-x^2+7"), ((0, 0, 0, -1), "-x^3")):
        assert poly_to_str(coeffs) == text


def test_parse_k_torsion(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("# K-theory of Z[i]\nK2=24  # full order\nK3 = 2\n\n")
    assert parse_k_torsion(path) == {2: 24, 3: 2}
    # the order and the index are pn_of_table's to check
    path.write_text("K3=2\nK2=0\nK9=1\n")
    assert parse_k_torsion(path) == {3: 2, 2: 0, 9: 1}
    for text, message in (("K2: 24\n", ":1: expected key=value: 'K2: 24'"),
                          ("K2=-1\n", ":1: expected K<m>=<order>: 'K2=-1'"),
                          ("K2=24\n# again\nK2=24\n", ":3: key given twice: 'K2=24'"),
                          ("K2=24\nK02=24\n", ":2: key given twice: 'K02=24'"),
                          ("K2=" + "9" * 5000, ":1: cannot parse the value: 'K2=" + "9" * 37 + "...'")):
        path.write_text(text)
        with pytest.raises(InvariantsError) as info:
            parse_k_torsion(path)
        assert str(info.value) == f"{path}{message}"


def test_parse_k_torsion_arbitrary_file_is_dict_or_usage_error(tmp_path):
    # a refused file raises InvariantsError, which the command line prints as a usage error
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    numbers = st.sampled_from(["0", "2", "3", "24", "9" * 5000, "-1", "x", ""])
    lines = st.tuples(st.sampled_from(["K", "K", "k", "# K"]), numbers,
                      st.sampled_from(["=", " = ", ":"]), numbers).map("".join)
    texts = st.text(max_size=30) | st.lists(lines | st.text(max_size=8), max_size=6).map("\n".join)
    path = tmp_path / "k.txt"

    @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @hypothesis.given(texts)
    def check(text):
        path.write_text(text, encoding="utf-8")
        try:
            orders = parse_k_torsion(path)
        except InvariantsError as exc:
            assert len(str(exc).splitlines()) == 1
            return
        assert all(type(m) is int and type(o) is int and o >= 0 for m, o in orders.items())

    check()


# ---------------------------------------------------------------------------
# end-to-end CLI

def test_cli_numberring_pass():
    code, out, _ = cli("numberring", "--disc", "-4")
    assert code == 0
    assert "verdict:           PASS" in out


def test_cli_numberring_json():
    code, out, _ = cli("numberring", "--disc", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert payload["ord_computed"] == 1


def test_cli_usage_errors():
    code, _, err = cli("numberring", "--disc", "-5")
    assert code == 1 and "fundamental" in err
    assert "-20" in err  # suggests the fundamental discriminant of Q(sqrt -5)
    code, _, err = cli("numberring")
    assert code == 1 and "one of the arguments --disc --invariants is required" in err
    code, _, err = cli("ff", "curve", "--p", "5", "--f", "x^3")
    assert code == 1 and "squarefree" in err


def test_cli_disc_and_invariants_exclude_each_other(tmp_path):
    path = tmp_path / "inv.txt"
    path.write_text("r1=0\nr2=1\nh=3\nR=1\nw=2\ndisc=-23\n")
    for verb in (("numberring",), ("pn-of", "--n", "1")):
        code, out, err = cli(*verb, "--disc", "5", "--invariants", str(path))
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: ") and "--disc" in err and "--invariants" in err


def test_cli_invariants_file(tmp_path):
    path = tmp_path / "inv.txt"
    path.write_text("r1=0\nr2=1\nh=3\nR=1\nw=2\ndisc=-23\n")
    code, out, _ = cli("numberring", "--invariants", str(path))
    assert code == 0 and "PASS" in out


@pytest.mark.parametrize(
    "text,message",
    [
        ("r1=1\nr2=0\nh=1\nR=1\nw=2\ndisc=5\n", "degree 1 needs disc 1, got disc 5"),
        ("r1=2\nr2=0\nh=1\nR=1\nw=2\ndisc=-23\n", "(r1, r2) = (2, 0) does not match disc -23"),
        ("r1=0\nr2=1\nh=1\nR=1\nw=2\ndisc=5\n", "(r1, r2) = (0, 1) does not match disc 5"),
    ],
    ids=["degree-1-disc-5", "real-signature-disc-minus-23", "imaginary-signature-disc-5"],
)
def test_cli_invariants_contradicting_disc(tmp_path, text, message):
    path = tmp_path / "inv.txt"
    path.write_text(text)
    for verb in (("numberring",), ("pn-of", "--n", "1")):
        code, out, err = cli(*verb, "--invariants", str(path))
        assert code == 1 and out == "" and err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1


def test_cli_unsupported_exit_code(tmp_path):
    path = tmp_path / "cubic.txt"
    path.write_text("r1=1\nr2=1\nh=1\nR=0.3\nw=2\ndisc=-23\n")
    code, out, _ = cli("numberring", "--invariants", str(path))
    assert code == 3 and "UNSUPPORTED" in out


def test_cli_pn_of_rank_only():
    code, out, _ = cli("pn-of", "--disc", "-4", "--n", "2")
    assert code == 0 and "RANK_ONLY" in out


def test_cli_ff_verbs():
    code, out, _ = cli("ff", "pn", "--q", "9", "--n", "1")
    assert code == 0 and "PASS" in out
    code, out, _ = cli("ff", "curve", "--p", "7", "--f", "x^3+x+1", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


# genus 1-3 curves at large p, each up to the size bound of its genus
LARGE_P_CURVES = (
    (4099, "x^3-x"), (65521, "x^3+x+1"), (524287, "2x^3+5x+7"), (1048573, "x^3+x+1"),
    (251, "x^5+x+1"), (541, "x^5-2x+3"), (1021, "x^5+3x^2+1"),
    (13, "x^7+x+1"), (31, "x^7+x+1"), (97, "x^7+2x^3+5"), (101, "x^7+x+1"),
)


def _cli_digest(argvs):
    h = hashlib.sha256()
    for argv in argvs:
        h.update(repr((argv, *cli(*argv))).encode())
    return h.hexdigest()


def test_cli_ff_curve_output_is_byte_identical():
    # sha256 over (argv, exit code, stdout, stderr) of criterion 4's panel,
    # LARGE_P_CURVES in text and JSON, and a refused genus-3 curve, taken
    # from the Fraction recursion of zeta_curve that preceded the integer one
    argvs = [("ff", "curve", "--p", str(c.p), "--f", poly_to_str(c.f)) for c in curve_panel()]
    for p, f in LARGE_P_CURVES:
        argvs += [("ff", "curve", "--p", str(p), "--f", f),
                  ("ff", "curve", "--p", str(p), "--f", f, "--json")]
    argvs.append(("ff", "curve", "--p", "1031", "--f", "x^7+x+1"))
    assert _cli_digest(argvs) == "1c704c8adc4e5368890c9014cdfdd1eb96bc01ad8e949c8fca61777855a574b8"


# Q, the 13 fields of criterion 1 and two fields with |D| near 10^6
NUMBER_RING_DISCS = (1, *NUMBER_RING_SUITE, -999995, 1000001)


def test_cli_number_ring_output_is_byte_identical():
    # numberring and pn-of --n 0 in text and JSON, and criterion 3's ff pn
    # panel, taken before both number-ring verbs built their table with
    # the one shifted-twist builder, with pn-of --n 0's object renamed
    # from P^0 over O_F to Spec O_F, and Q and D < 0 compared at tolerance 0
    argvs = [(verb, "--disc", str(d), *n, *fmt)
             for d in NUMBER_RING_DISCS
             for verb, n in (("numberring", ()), ("pn-of", ("--n", "0")))
             for fmt in ((), ("--json",))]
    argvs += [("ff", "pn", "--q", str(q), "--n", str(n), *fmt)
              for q in (2, 3, 4, 5, 7, 8, 9) for n in range(4) for fmt in ((), ("--json",))]
    assert _cli_digest(argvs) == "8fd74b88fa7b591d613c3672df7af75b563338ab2186f62d2fad99486c5f5181"


def test_cli_pn_of_output_is_byte_identical():
    # pn-of --n 1..6 JSON: the shifted-twist table, whose rank Euler
    # characteristic is rank_predicted
    argvs = [("pn-of", "--disc", str(d), "--n", str(n), "--json")
             for d in NUMBER_RING_DISCS for n in range(1, 7)]
    assert _cli_digest(argvs) == "b54f1b05c5952f1a46663b2330e36b2fb9555bf07c8ad2baca1d6b3028856d91"


def test_cli_report_builder_output_is_byte_identical(tmp_path, monkeypatch):
    # open over criterion 6's pairs in text and JSON, pn-of --n 1..3 text
    # with and without a K-torsion file, and numberring on the FAIL
    # (h = 2, disc -23) and UNSUPPORTED (no disc) invariants files; taken
    # before decide lost its ok argument and the builders their null padding,
    # with the FAIL compared at tolerance 0
    monkeypatch.chdir(tmp_path)
    pairs = open_pairs()
    for i, (base, fiber, _) in enumerate(pairs):
        for role, report in (("base", base), ("fiber", fiber)):
            (tmp_path / f"{role}{i}.json").write_text(emit_report(report, as_json=True))
    (tmp_path / "k.txt").write_text("K2=24\nK3=2\n")
    (tmp_path / "fail.txt").write_text("r1=0\nr2=1\nh=2\nR=1\nw=2\ndisc=-23\n")
    (tmp_path / "nodisc.txt").write_text("r1=0\nr2=1\nh=3\nR=1\nw=2\n")
    argvs = [("open", f"base{i}.json", f"fiber{i}.json", *fmt)
             for i in range(len(pairs)) for fmt in ((), ("--json",))]
    argvs += [("pn-of", "--disc", str(d), "--n", str(n), *k)
              for d in NUMBER_RING_DISCS for n in (1, 2, 3) for k in ((), ("--k-torsion", "k.txt"))]
    argvs += [("numberring", "--invariants", name, *fmt)
              for name in ("fail.txt", "nodisc.txt") for fmt in ((), ("--json",))]
    assert _cli_digest(argvs) == "673ef18463ddfb80f685c2789d24256e47deb2de48ecbf943a32ea085aa57cf2"


def test_cli_ff_curve_count_that_makes_p1_zero_is_fail(monkeypatch):
    # N_1 = 0 gives P(1) = 0, so the predicted |c| = P(1)/(q-1) is 0, which
    # no special value may be: none is predicted, and the wrong count ends
    # in FAIL (exit 2), not in an error line (exit 1)
    count = ff_zeta.count_points
    monkeypatch.setattr(ff_zeta, "count_points", lambda variety, m: 0 if m == 1 else count(variety, m))
    code, out, err = cli("ff", "curve", "--p", "65521", "--f", "x^3+x+1", "--json")
    report = json.loads(out)
    assert (code, err, report["verdict"]) == (2, "", "FAIL")
    assert report["special_value_predicted"] is None


@pytest.mark.parametrize("p", [31, 101])
def test_cli_ff_curve_counting_defect_is_fail(monkeypatch, p):
    # a wrong N_3 that keeps the Hasse bound makes zeta_curve's last step
    # inexact: the verdict is FAIL (exit 2), not a usage error (exit 1)
    count = ff_zeta.count_points
    monkeypatch.setattr(ff_zeta, "count_points",
                        lambda variety, m: count(variety, m) + 2 * (m == 3))
    code, out, err = cli("ff", "curve", "--p", str(p), "--f", "x^7+x+1")
    assert (code, err) == (2, "")
    assert "failed: counts reproduced from Z(t)" in out
    assert out.endswith("verdict:           FAIL\n")


def test_cli_open_pipeline(tmp_path):
    base = tmp_path / "base.json"
    fiber = tmp_path / "fiber.json"
    _, out, _ = cli("ff", "pn", "--q", "5", "--n", "1", "--json")
    base.write_text(out)
    _, out, _ = cli("ff", "pn", "--q", "5", "--n", "0", "--json")
    fiber.write_text(out)
    code, out, _ = cli("open", str(base), str(fiber), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert payload["rank_predicted"] == 0 and payload["ord_computed"] == 0


def test_cli_open_rank_only_base_stays_rank_only(tmp_path):
    # no value is compared for P^1 over Z[i], so removing a fiber cannot
    # make the open complement PASS
    base = tmp_path / "base.json"
    fiber = tmp_path / "fiber.json"
    base.write_text(cli("pn-of", "--disc", "-4", "--n", "1", "--json")[1])
    fiber.write_text(cli("ff", "pn", "--q", "5", "--n", "1", "--json")[1])
    code, out, err = cli("open", str(base), str(fiber))
    assert code == 0 and err == ""
    assert "verdict:           RANK_ONLY" in out.splitlines()


def test_cli_open_fail_exit_code(tmp_path):
    base = tmp_path / "base.json"
    bad = tmp_path / "bad.json"
    _, out, _ = cli("ff", "pn", "--q", "3", "--n", "1", "--json")
    base.write_text(out)
    doctored = json.loads(out)
    doctored["verdict"] = "FAIL"
    bad.write_text(json.dumps(doctored))
    code, out, _ = cli("open", str(base), str(bad))
    assert code == 2 and "FAIL" in out


def test_cli_open_divides_once(tmp_path):
    # base / Y1 = (ln 3)^10000 overflows a float; U's own value does not
    report = json.loads(emit_report(ff_report(ProjectiveSpace(3, 0)), as_json=True))
    paths = [tmp_path / f"{name}.json" for name in "abc"]
    for path, e in zip(paths, (5000, -5000, 5000)):
        path.write_text(json.dumps(_with_value(report, log_exponents={"3": e})))
    code, out, err = cli("open", *map(str, paths), "--json")
    assert code == 0 and err == ""
    value = json.loads(out)["special_value_computed"]
    assert value["log_exponents"] == {"3": 5000}
    assert math.isclose(abs(value["numeric"]), math.log(3) ** 5000, rel_tol=1e-12)


def test_numberring_checks_fundamental_in_quad_invariants_only(monkeypatch):
    # the command line leaves the refusal (and its hint) to quad_invariants
    calls = []

    def counted(D, original=number_field.is_fundamental):
        calls.append(D)
        return original(D)

    for name, module in list(sys.modules.items()):
        if name.startswith("weilzeta") and hasattr(module, "is_fundamental"):
            monkeypatch.setattr(module, "is_fundamental", counted)
    assert cli("numberring", "--disc", "-23", "--json")[0] == 0
    assert calls == [-23] * 4


def test_run_in_process():
    assert run(["numberring", "--disc", "-3"]) == 0
    assert run(["numberring", "--disc", "7"]) == 1


def _with_value(report, **fields):
    return {**report, "special_value_computed": {**report["special_value_computed"], **fields}}


@pytest.mark.parametrize(
    "doctor,message",
    [
        (lambda report: [1, 2], "not a JSON object"),
        (lambda report: {"object": "x"}, "lacks key(s): invariants"),
        (lambda report: {**report, "verdict": "MAYBE"}, "unknown verdict 'MAYBE'"),
        (lambda report: {**report, "rank_predicted": "1"}, "rank_predicted must be an integer"),
        (lambda report: {**report, "rank_predicted": True}, "rank_predicted must be an integer"),
        (lambda report: {**report, "weil_table": {"entries": 3}}, "weil_table entries must be"),
        (lambda report: {**report, "invariants": [1, 2]}, "invariants must be a JSON object"),
        (lambda report: {**report, "caveats": "abc"}, "caveats must be a list of strings"),
        (lambda report: _with_value(report, real_factor="x"), "real_factor must be"),
        (lambda report: _with_value(report, log_exponents={"3": "-1"}), "log_exponents must map"),
        (lambda report: _with_value(report, log_exponents={"-3": -1}), "log_exponents must map"),
        (lambda report: _with_value(report, mantissa="0"), "mantissa must be a nonzero"),
        # alone, such a file would be re-emitted as a PASS whose two sides disagree
        (lambda report: {**report, "rank_predicted": report["ord_computed"] + 4},
         "a PASS report needs rank_predicted equal to ord_computed"),
        (lambda report: {**report, "verdict": "RANK_ONLY", "rank_predicted": None},
         "a RANK_ONLY report needs rank_predicted equal to ord_computed"),
        # a pair: each report is fine alone, the quotient has (ln 3)^10000
        (lambda report: (_with_value(report, log_exponents={"3": 5000}),
                         _with_value(report, log_exponents={"3": -5000})),
         "special value is not a nonzero finite float"),
        # and here (ln 3)^-10000, which rounds to 0.0
        (lambda report: (_with_value(report, log_exponents={"3": -5000}),
                         _with_value(report, log_exponents={"3": 5000})),
         "special value is not a nonzero finite float"),
    ],
    ids=["not-object", "missing-key", "unknown-verdict", "string-rank", "bool-rank",
         "number-entries", "list-invariants", "string-caveats", "string-real-factor",
         "string-exponent", "negative-log-base", "zero-mantissa", "pass-rank-not-ord",
         "rank-only-without-rank", "combined-overflow", "combined-underflow"],
)
def test_cli_open_malformed_report(tmp_path, capsys, doctor, message):
    report = json.loads(emit_report(ff_report(ProjectiveSpace(3, 0)), as_json=True))
    good, path = tmp_path / "good.json", tmp_path / "report.json"
    doctored = doctor(report)
    if isinstance(doctored, tuple):  # a base and a fiber: only their combination is malformed
        report, doctored = doctored
        argvs = [["open", str(good), str(path)]]
    else:  # alone, the base is emitted as it is; as a fiber, it is combined
        argvs = [["open", str(path)], ["open", str(good), str(path)]]
    good.write_text(json.dumps(report))
    path.write_text(json.dumps(doctored))
    for argv in argvs:
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and message in err
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (["pn-of", "--disc", "5"], "weilzeta pn-of: the following arguments are required: --n"),
        (["ff", "pn", "--q", "x", "--n", "1"], "weilzeta ff pn: argument --q: invalid int value: 'x'"),
        ([], "weilzeta: the following arguments are required: command"),
        (["frobenius"], "weilzeta: argument command: invalid choice: 'frobenius'"),
        (["open"], "weilzeta open: the following arguments are required: base\n"),
    ],
    ids=["missing-flag", "bad-int", "no-verb", "unknown-verb", "open-no-file"],
)
def test_cli_argparse_errors_are_usage_errors(capsys, argv, message):
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}")
    assert len(err.strip().splitlines()) == 1


def test_cli_parser_reuse_keeps_no_state(tmp_path):
    # build_parser is cached, so one parser serves every call in a process;
    # no flag, default or error may carry over from one call to the next
    inv = tmp_path / "inv.txt"
    inv.write_text("r1=0\nr2=1\nh=3\nR=1\nw=2\ndisc=-23\n")
    argvs = [
        ["numberring", "--disc", "5", "--json"],
        ["numberring", "--invariants", str(inv)],
        ["pn-of", "--disc", "5", "--n", "1"],
        ["pn-of", "--disc", "5", "--n", "0"],
        ["pn-of", "--disc", "5"],
        ["ff", "pn", "--q", "3", "--n", "1"],
        ["numberring", "--disc", "5"],
    ]
    reused = [cli(*argv) for argv in argvs]
    assert build_parser() is build_parser()
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(cli(*argv))
    assert reused == fresh
    assert reused[0][1].startswith("{") and reused[1][1].startswith("object:")
    assert "object:            Spec O_F, disc -23\n" in reused[1][1]
    for i in (3, 6):
        assert "disc 5\n" in reused[i][1]  # --disc, not the file of call 1
    assert reused[4][0] == 1 and "required: --n" in reused[4][2]
    assert reused[5][0] == 0 and reused[5][2] == ""


def test_cli_help_exits_zero():
    # subprocess: --help exits through SystemExit(0)
    proc = subprocess.run([sys.executable, "-m", "weilzeta.cli", "ff", "curve", "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: weilzeta ff curve")


def test_cli_numberring_fail_states_why(tmp_path, monkeypatch):
    # h = 2 for disc -23 predicts -1, the L-values give -3/2
    path = tmp_path / "inv.txt"
    path.write_text("r1=0\nr2=1\nh=2\nR=1\nw=2\ndisc=-23\n")
    assert run(["numberring", "--invariants", str(path)]) == 2
    report = pn_of_report(NumberFieldInvariants(0, 1, 2, 1.0, 2, disc=-23))
    assert report.verdict == FAIL
    assert report.caveats == ["failed: |computed - predicted| = 0.5 > tol * max(1, |predicted|) = 0.0"]
    # an analytic order that differs from the rank is named first; invariants
    # that contradict their own disc are refused before either side is built
    monkeypatch.setattr(reports, "dedekind_leading_at_0", lambda inv: (1, -1.5))
    report = pn_of_report(NumberFieldInvariants(0, 1, 3, 1.0, 2, disc=-23))
    assert report.verdict == FAIL
    assert report.caveats[0] == "failed: ord computed 1 != rank predicted 0"


@pytest.mark.parametrize("verb", [["numberring"], ["pn-of", "--n", "0"]], ids=["numberring", "pn-of"])
def test_cli_tol_cannot_turn_fail_into_pass(tmp_path, verb):
    # h = 2 for disc -23 is wrong (h = 3): no flag may turn its FAIL into PASS
    path = tmp_path / "inv.txt"
    path.write_text("r1=0\nr2=1\nh=2\nR=1\nw=2\ndisc=-23\n")
    argv = [*verb, "--invariants", str(path)]
    code, out, err = cli(*argv)
    assert code == 2 and err == "" and out.endswith("verdict:           FAIL\n")
    for tol in ("1", "inf"):
        code, out, err = cli(*argv, "--tol", tol)
        assert (code, out) == (1, "") and err.startswith("error: weilzeta: unrecognized arguments: --tol")
        assert len(err.splitlines()) == 1


def test_cli_suite_has_no_tol(capsys):
    # every value check runs at DEFAULT_TOL: no verb takes --tol
    for verb in (["numberring", "--disc", "5"], ["pn-of", "--disc", "5", "--n", "0"],
                 ["ff", "pn", "--q", "3", "--n", "1"], ["ff", "curve", "--p", "7", "--f", "x^3+x+1"],
                 ["open", "base.json"], ["suite"]):
        assert run([*verb, "--tol", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: weilzeta: unrecognized arguments: --tol 1\n"


@pytest.mark.parametrize(
    "argv",
    [["numberring", "--disc", "16777217"], ["pn-of", "--disc", "-16777219", "--n", "1"],
     ["numberring", "--disc", str(10**30)]],
    ids=["numberring", "pn-of", "huge-non-fundamental"],
)
def test_cli_disc_above_bound_is_refused(argv):
    start = time.perf_counter()
    code, out, err = cli(*argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == "" and err.startswith("error: ")
    assert f"exceeds the supported bound MAX_ABS_DISC = {MAX_ABS_DISC}\n" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("n", [MAX_PN_OF_N + 1, 10**30], ids=["bound-plus-1", "huge-n"])
def test_cli_pn_of_n_above_bound_is_refused(n):
    # refused before pn_of_table builds its 2n + 3 entries
    start = time.perf_counter()
    code, out, err = cli("pn-of", "--disc", "5", "--n", str(n))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", f"error: n must be in 0..{MAX_PN_OF_N}, got {n}\n")


def test_cli_pn_of_n6_is_rank_only():
    code, out, err = cli("pn-of", "--disc", "5", "--n", "6")
    assert code == 0 and err == "" and out.endswith("verdict:           RANK_ONLY\n")


def test_cli_ff_curve_huge_exponent_is_refused():
    # the exponent is refused before the coefficient tuple is densified
    start = time.perf_counter()
    code, out, err = cli("ff", "curve", "--p", "7", "--f", "x^1000000000000+x+1")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", "error: polynomial exponent 1000000000000 exceeds 100\n")
    # a leading coefficient divisible by p still drops the degree
    code, out, err = cli("ff", "curve", "--p", "7", "--f", "7x^9+x^3+x+1")
    assert code == 0 and err == "" and "curve y^2 = x^3+x+1 over F_7" in out


@pytest.mark.parametrize("q,n", [(3, 134), (1048573, 70), (3, 3000), (2, 10**30)],
                         ids=["q3-n134", "q1048573-n70", "q3-n3000", "huge-n"])
def test_cli_ff_pn_unprintable_value_is_refused(q, n):
    # refused before any work: the exact mantissa would have more digits
    # than str() of an int prints (4300 by default)
    start = time.perf_counter()
    code, out, err = cli("ff", "pn", "--q", str(q), "--n", str(n))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == "" and err.startswith(f"error: the exact special value of P^{n} ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("q,n", [(3, 134), (2, 10**30)], ids=["q3-n134", "huge-n"])
def test_projective_space_refuses_what_the_cli_refuses(q, n):
    # the record holds the bound, so library callers meet it too
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        ProjectiveSpace(q, n)
    assert time.perf_counter() - start < 1.0
    assert cli("ff", "pn", "--q", str(q), "--n", str(n)) == (1, "", f"error: {exc.value}\n")


def test_cli_ff_factors_q_once(monkeypatch):
    # ProjectiveSpace factors q; the table, the zeta side and the values
    # read p and k off the record, and a curve's k is 1
    calls, prime_power = [], ff_zeta.prime_power

    def counting(q):
        calls.append(q)
        return prime_power(q)

    monkeypatch.setattr(ff_zeta, "prime_power", counting)
    code, out, err = cli("ff", "pn", "--q", "999999999989", "--n", "2")
    assert (code, err, calls) == (0, "", [999999999989])
    calls.clear()
    code, out, err = cli("ff", "curve", "--p", "7", "--f", "x^3+x+1")
    assert (code, err, calls) == (0, "", [])


def test_cli_ff_pn_bound_ignores_the_environment():
    # the bound is a constant: lifting str()'s digit limit does not lift it
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, err = cli("ff", "pn", "--q", "3", "--n", "134")
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 1 and out == "" and err.startswith("error: the exact special value of P^134 ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("q,n_max", [(2, 45), (3, 36), (1048573, 9)],
                         ids=["q2-n45", "q3-n36", "q1048573-n9"])
def test_cli_ff_pn_printable_value_passes(q, n_max):
    # n_max is the largest n whose special value is a nonzero float; at
    # n_max + 1 it rounds to 0.0, which is refused as an overflow is
    code, out, err = cli("ff", "pn", "--q", str(q), "--n", str(n_max), "--json")
    report = json.loads(out)
    assert code == 0 and err == "" and report["verdict"] == "PASS"
    assert all(report[side]["numeric"] != 0 for side in ("special_value_predicted", "special_value_computed"))
    code, out, err = cli("ff", "pn", "--q", str(q), "--n", str(n_max + 1))
    assert code == 1 and out == "" and err.startswith("error: ")
    assert len(err.splitlines()) == 1


def test_cli_report_that_cannot_be_printed_is_an_error(tmp_path):
    # each mantissa has about 4,000 digits above and below and a value near
    # 1, and each report prints; the quotient's numerator has about 8,000,
    # which str() refuses inside the same error handling as the rest of a verb
    report = json.loads(cli("ff", "pn", "--q", "3", "--n", "0", "--json")[1])
    base, fiber = tmp_path / "base.json", tmp_path / "fiber.json"
    for path, mantissa in ((base, Fraction(3**8381, 2**13284)), (fiber, Fraction(5**5722, 7**4732))):
        path.write_text(json.dumps(_with_value(report, mantissa=str(mantissa))))
        code, out, err = cli("open", str(path))
        assert code == 0 and err == ""
    code, out, err = cli("open", str(base), str(fiber))
    assert code == 1 and out == "" and err.startswith("error: Exceeds the limit (4300 digits)")
    assert len(err.splitlines()) == 1


def test_cli_bad_k_torsion_and_invariants_files(tmp_path):
    path = tmp_path / "k.txt"
    for text, message in (("K2=0\n", "k-torsion orders must be >= 1, got K2=0"),
                          ("K2=4\nK3=2\nK2=4\n", f"{path}:3: key given twice: 'K2=4'")):
        path.write_text(text)
        code, out, err = cli("pn-of", "--disc", "5", "--n", "1", "--k-torsion", str(path))
        assert code == 1 and out == "" and err == f"error: {message}\n"
    # n = 0 has no K-torsion index in range: a file n = 1 refuses is
    # refused at n = 0 too, and an empty file still gives PASS
    path.write_text("K9=5\n")
    for n in (0, 1):
        code, out, err = cli("pn-of", "--disc", "5", "--n", str(n), "--k-torsion", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: k-torsion indices out of range for n={n}: [9]\n"
    path.write_text("K2=24\n")
    code, out, err = cli("pn-of", "--disc", "5", "--n", "0", "--k-torsion", str(path))
    assert (code, out) == (1, "") and err == "error: k-torsion indices out of range for n=0: [2]\n"
    path.write_text("")
    code, out, err = cli("pn-of", "--disc", "5", "--n", "0", "--k-torsion", str(path))
    assert code == 0 and err == "" and "verdict:           PASS" in out
    path = tmp_path / "inv.txt"
    path.write_text("r1=0\nr2=1\nh=3\nR=1\nw=2\nh=1\ndisc=-23\n")
    for verb in (("numberring",), ("pn-of", "--n", "1")):
        code, out, err = cli(*verb, "--invariants", str(path))
        assert (code, out, err) == (1, "", f"error: {path}:6: key given twice: 'h=1'\n")


@pytest.mark.parametrize("verb, key, rest", [
    (("numberring", "--invariants"), "h", "r1=0\nr2=1\nh=3\nR=1\nw=2\n"),
    (("pn-of", "--disc", "5", "--n", "1", "--k-torsion"), "K2", "K3=2\n"),
], ids=["invariants", "k-torsion"])
@pytest.mark.parametrize("bad, line", [
    ("{key}=3\n{key}=3\n", 2),
    ("{key}=3\n# a comment\n{key} 3\n", 3),
    ("{key}=" + "9" * 5000 + "\n", 1),
], ids=["repeated-key", "no-equals", "5000-digits"])
def test_cli_key_value_file_error_is_one_short_line(tmp_path, verb, key, rest, bad, line):
    # both files go through one reader: same rules, same error form
    path = tmp_path / "file.txt"
    path.write_text(bad.format(key=key) + rest)
    code, out, err = cli(*verb, str(path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and len(err) < 200
    assert err.startswith(f"error: {path}:{line}: ")


@pytest.mark.parametrize("verb", [
    ("numberring", "--invariants"),
    ("pn-of", "--disc", "5", "--n", "1", "--k-torsion"),
], ids=["invariants", "k-torsion"])
def test_cli_key_value_file_not_utf8_names_file_and_line(tmp_path, verb):
    path = tmp_path / "file.txt"
    path.write_bytes(b"# header\n\xff\xfe=1\n")
    code, out, err = cli(*verb, str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}:2: not UTF-8 text: {chr(0xFFFD) * 2 + '=1'!r}\n"


def test_cli_invariants_record_error_names_the_file(tmp_path):
    # a value that parses but that NumberFieldInvariants refuses
    path = tmp_path / "inv.txt"
    path.write_text("r1=0\nr2=1\nh=1\nR=1\nw=0\n")
    for verb in (("numberring",), ("pn-of", "--n", "1")):
        code, out, err = cli(*verb, "--invariants", str(path))
        assert (code, out, err) == (1, "", f"error: {path}: root-of-unity count must be >= 1\n")


def test_cli_invariants_disc_above_bound_is_unsupported(tmp_path):
    path = tmp_path / "inv.txt"
    path.write_text("r1=2\nr2=0\nh=1\nR=1\nw=2\ndisc=16777217\n")
    code, out, err = cli("numberring", "--invariants", str(path))
    assert code == 3 and err == "" and "verdict:           UNSUPPORTED" in out
    assert f"exceeds the supported bound MAX_ABS_DISC = {MAX_ABS_DISC}" in out


def test_cli_disc_zero_is_not_fundamental():
    for verb in (("numberring",), ("pn-of", "--n", "1")):
        code, out, err = cli(*verb, "--disc", "0")
        assert (code, out, err) == (1, "", "error: 0 is not a fundamental discriminant\n")


def test_cli_invariants_without_disc_is_unsupported(tmp_path):
    # disc defaults to 0, where the analytic side is not computed
    path = tmp_path / "inv.txt"
    path.write_text("r1=0\nr2=1\nh=3\nR=1\nw=2\n")
    code, out, err = cli("numberring", "--invariants", str(path))
    assert code == 3 and err == "" and "verdict:           UNSUPPORTED" in out
    assert "analytic side unavailable for degree 2, disc 0" in out


def test_cli_pn_of_huge_regulator():
    # the fundamental unit of Q(sqrt 317281) is too large for a float
    proc = subprocess.run(
        [sys.executable, "-m", "weilzeta.cli", "pn-of", "--disc", "317281", "--n", "4"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert "verdict:           RANK_ONLY" in proc.stdout


def test_acceptance_does_not_import_cli():
    code = "import sys, weilzeta.acceptance; print('weilzeta.cli' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_zeta_modules_import_no_comparison_layer():
    # the analytic modules compute one side only: the Weil-etale tables,
    # the group algebra, the rank side, the reports and the CLI stay unloaded
    code = "import sys, importlib; importlib.import_module(sys.argv[1]); print(*sys.modules)"
    forbidden = {f"weilzeta.{m}" for m in ("weil_tables", "fgab", "motivic_rank", "reports", "cli")}
    for module in ("weilzeta.ff_zeta", "weilzeta.lfunc"):
        proc = subprocess.run([sys.executable, "-c", code, module],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert module in loaded and not loaded & forbidden, loaded & forbidden


# [step, exit code (None for an import), numpy loaded after it], one per step
NUMPY_PROBE = """
import contextlib, io, json, sys
steps = []
import weilzeta
steps.append(["import weilzeta", None, "numpy" in sys.modules])
from weilzeta import cli
steps.append(["import weilzeta.cli", None, "numpy" in sys.modules])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    steps.append([" ".join(argv), code, "numpy" in sys.modules])
print(json.dumps(steps))
"""


def test_numpy_is_imported_only_to_count_or_sum(tmp_path):
    # the exact sides (P^n over F_q, Q, open's quotients, an invariants file
    # above n = 0) need no numpy; point counts, class numbers and L-sums do.
    # Each probe is a fresh process, since this one has numpy already
    def probe(*requests):
        proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, json.dumps(requests)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    base, fiber, inv = tmp_path / "base.json", tmp_path / "fiber.json", tmp_path / "inv.txt"
    base.write_text(cli("pn-of", "--disc", "1", "--n", "0", "--json")[1])
    fiber.write_text(cli("ff", "pn", "--q", "3", "--n", "0", "--json")[1])
    inv.write_text("r1=0\nr2=1\nh=1\nR=1\nw=4\ndisc=-4\n")
    exact = ["ff pn --q 9 --n 2 --json", "numberring --disc 1", "pn-of --disc 1 --n 3"]
    steps = probe(*map(str.split, exact), ["open", str(base), str(fiber)],
                  ["pn-of", "--invariants", str(inv), "--n", "1"])
    assert steps == [["import weilzeta", None, False], ["import weilzeta.cli", None, False],
                     *([request, 0, False] for request in exact), [f"open {base} {fiber}", 0, False],
                     [f"pn-of --invariants {inv} --n 1", 0, False]]
    for request in ("ff curve --p 13 --f x^3+x+1", "numberring --disc -4"):
        assert probe(request.split())[-1] == [request, 0, True]


def test_import_of_cli_loads_every_traced_function():
    # bench/tracing.py wraps only the bindings it finds in sys.modules when
    # the tracer starts, after `import weilzeta.cli`: a module loaded later,
    # or a function that is no module attribute, leaves its metrics absent
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "tracing.py").read_text(encoding="utf-8"))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED")
    code = """
import json, sys, types, weilzeta.cli
missing = []
for short, names in json.loads(sys.argv[1]).items():
    module = sys.modules.get(f"weilzeta.{short}")
    if module is None:
        missing.append(short)
        continue
    missing += [f"{short}.{name}" for name in names or ()
                if not isinstance(getattr(module, name, None), types.FunctionType)]
print(json.dumps(missing))
"""
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(traced)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert traced and json.loads(proc.stdout) == []


def test_cli_fuzz_verbs_and_flags(tmp_path, capsys):
    # every argv over the verb and flag grammar ends in a verdict or in one
    # error line; sizes stay small (|disc|, q, p <= 10^3, n <= 20), and
    # `suite` is left out because it always runs the whole battery
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    paths = {name: tmp_path / name for name in ("report.json", "inv.txt", "k.txt", "junk.txt")}
    paths["report.json"].write_text(emit_report(ff_report(ProjectiveSpace(3, 0)), as_json=True))
    paths["inv.txt"].write_text("r1=0\nr2=1\nh=3\nR=1\nw=2\ndisc=-23\n")
    paths["k.txt"].write_text("K2=24\nK3=2\n")
    paths["junk.txt"].write_text("r1=x\nK2: 1\n{\n")
    files = st.sampled_from([*map(str, paths.values()), str(tmp_path / "missing")])
    small = st.integers(-1000, 1000)
    often = lambda choices: st.sampled_from(choices) | st.sampled_from(choices) | small
    values = {
        "--disc": often([1, -3, -4, -23, 5, 12, 13]),
        "--q": often([2, 4, 9, 25, 27, 997]),
        "--p": often([3, 5, 7, 11, 101, 997]),
        "--n": st.integers(-3, 20),
        "--f": st.sampled_from(["x^3+x+1", "x^5+3x+1", "x^7+x^2+5", "x^3", "x^4+1", "y"])
        | st.text(max_size=6),
        "--tol": st.sampled_from(["1e-8", "0", "-1", "nan", "inf", "x"]),
        "--invariants": files, "--k-torsion": files,
    }
    values = {flag: v.map(str) for flag, v in values.items()}
    grammar = {  # verb: (its required flags, its optional flags)
        ("numberring",): (("--disc",), ("--invariants",)),
        ("pn-of",): (("--disc", "--n"), ("--invariants", "--k-torsion")),
        ("ff", "pn"): (("--q", "--n"), ()),
        ("ff", "curve"): (("--p", "--f"), ()),
        ("open",): ((), ()),
        ("ff",): ((), ()), ("frob",): ((), ()), (): ((), ()),
    }
    any_flag = st.sampled_from(sorted(values)).flatmap(
        lambda flag: st.tuples(st.just(flag), values[flag]))
    # one time in four: a flag of any verb, or report files after any verb
    rarely = lambda strategy: st.integers(0, 3).flatmap(lambda k: strategy if k == 0 else st.just([]))

    def argvs_for(verb):
        required, optional = grammar[verb]
        flags = st.fixed_dictionaries({f: values[f] for f in required},
                                      optional={f: values[f] for f in optional})
        positional = st.lists(files, min_size=1, max_size=2)
        return st.builds(
            lambda flags, extra, positional, as_json: [
                *verb, *(a for pair in [*flags.items(), *extra] for a in pair), *positional, *as_json],
            flags, rarely(st.lists(any_flag, min_size=1, max_size=1)),
            positional if verb == ("open",) else rarely(positional),
            st.sampled_from([[], ["--json"]]))

    argvs = st.sampled_from(sorted(grammar)).flatmap(argvs_for)

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(argvs)
    def check(argv):
        code = run(argv)
        _, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        assert len(err.splitlines()) <= 1, (argv, err)
        if "--tol" in argv:  # no verb takes it, so it is a usage error
            assert code == 1 and len(err.splitlines()) == 1, (argv, err)

    check()
