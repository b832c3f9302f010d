import json
import subprocess
import sys
from fractions import Fraction

import pytest

from weilzeta.cli import UsageError, parse_k_torsion, parse_poly, run
from weilzeta.ff_zeta import CurveSpec, ProjectiveSpace
from weilzeta.number_field import NumberFieldInvariants, quad_invariants
from weilzeta.reports import (
    FAIL,
    PASS,
    RANK_ONLY,
    UNSUPPORTED,
    emit_report,
    ff_report,
    numberring_report,
    open_report,
    parse_report,
    pn_of_report,
    poly_to_str,
)


def cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "weilzeta.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------------
# report builders

def test_numberring_report_pass():
    report = numberring_report(quad_invariants(-23))
    assert report.verdict == PASS and report.exit_code == 0
    assert report.rank_predicted == 0 and report.ord_computed == 0
    # -h R / w = -3/2
    assert report.special_value_predicted.mantissa == Fraction(-3, 2)


def test_numberring_report_unsupported():
    cubic = NumberFieldInvariants(1, 1, 1, 0.3, 2, disc=-23)
    report = numberring_report(cubic)
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
    assert report.object.startswith("P^0")


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
    for bad in ("", "x^", "y^3", "x**3", "3..5x"):
        with pytest.raises(UsageError):
            parse_poly(bad)


def test_poly_roundtrip():
    for coeffs in ((1, -2, 0, 1), (0, 1, 0, 1), (7, 0, -1, 0, 0, 2), (0, 0, 0, -1)):
        assert parse_poly(poly_to_str(coeffs)) == coeffs


def test_parse_k_torsion(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("# K-theory of Z[i]\nK2=24  # full order\nK3 = 2\n\n")
    assert parse_k_torsion(path) == {2: 24, 3: 2}
    path.write_text("K2: 24\n")
    with pytest.raises(UsageError, match="K<m>=<order>"):
        parse_k_torsion(path)


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
    assert code == 1 and "--disc or --invariants" in err
    code, _, err = cli("ff", "curve", "--p", "5", "--f", "x^3")
    assert code == 1 and "squarefree" in err


def test_cli_invariants_file(tmp_path):
    path = tmp_path / "inv.txt"
    path.write_text("r1=0\nr2=1\nh=3\nR=1\nw=2\ndisc=-23\n")
    code, out, _ = cli("numberring", "--invariants", str(path))
    assert code == 0 and "PASS" in out


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


def test_run_in_process():
    assert run(["numberring", "--disc", "-3"]) == 0
    assert run(["numberring", "--disc", "7"]) == 1


@pytest.mark.parametrize(
    "doctor,message",
    [
        (lambda report: [1, 2], "not a JSON object"),
        (lambda report: {"object": "x"}, "lacks key(s): invariants"),
        (lambda report: {**report, "verdict": "MAYBE"}, "unknown verdict 'MAYBE'"),
    ],
    ids=["not-object", "missing-key", "unknown-verdict"],
)
def test_cli_open_malformed_report(tmp_path, capsys, doctor, message):
    report = json.loads(emit_report(ff_report(ProjectiveSpace(3, 0)), as_json=True))
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doctor(report)))
    assert run(["open", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_cli_rejects_bad_tol(capsys, tol):
    for argv in (["numberring", "--disc", "-4"], ["pn-of", "--disc", "5", "--n", "1"], ["suite"]):
        assert run([*argv, "--tol", tol]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --tol must be >= 0, got {float(tol)}\n"


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
