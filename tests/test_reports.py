import json
import math
from fractions import Fraction

import pytest

from weilzeta.reports import (
    EXIT_CODES,
    FAIL,
    PASS,
    RANK_ONLY,
    UNSUPPORTED,
    SymbolicValue,
    VerificationReport,
    emit_report,
    ff_report,
    ff_value,
    numberring_report,
    parse_report,
    pn_of_report,
)
from weilzeta.ff_zeta import CurveSpec, ProjectiveSpace
from weilzeta.lfunc import dedekind_leading_at_0
from weilzeta.number_field import quad_invariants


def test_symbolic_numeric():
    v = SymbolicValue(Fraction(-1, 3), {2: -1}, 1.0)
    assert abs(v.numeric() - (-1 / (3 * math.log(2)))) < 1e-15
    assert SymbolicValue(Fraction(2), {}, 0.5).numeric() == 1.0


def test_symbolic_division_cancels_logs():
    a = SymbolicValue(Fraction(1, 2), {2: -1, 3: 2}, 4.0)
    b = SymbolicValue(Fraction(1, 4), {3: 2}, 2.0)
    quot = a / b
    assert quot == SymbolicValue(Fraction(2), {2: -1}, 2.0)
    assert abs(quot.numeric() - a.numeric() / b.numeric()) < 1e-12


def test_symbolic_equality_ignores_zero_exponents():
    assert SymbolicValue(Fraction(1), {2: 0}) == SymbolicValue(Fraction(1), {})


def test_ff_value_folds_prime_power_base():
    # ln(9)^e = (2 ln 3)^e folds 2^e into the mantissa
    v = ff_value(Fraction(1, 8), -1, 9)
    assert v == SymbolicValue(Fraction(1, 16), {3: -1})
    assert abs(v.numeric() - Fraction(1, 8) / math.log(9)) < 1e-15
    # a prime base keeps the mantissa; exponent 0 leaves no log factor
    assert ff_value(Fraction(-2, 3), 2, 5) == SymbolicValue(Fraction(-2, 3), {5: 2})
    assert ff_value(Fraction(3), 0, 8) == SymbolicValue(Fraction(3), {})


def test_numberring_value_is_a_real_factor():
    # the analytic zeta*(0) is a float, carried as 1 * real_factor
    inv = quad_invariants(5)
    v = numberring_report(inv).special_value_computed
    assert v == SymbolicValue(Fraction(1), {}, dedekind_leading_at_0(inv)[1])


def test_symbolic_json_roundtrip():
    v = SymbolicValue(Fraction(-22, 7), {2: 3, 5: -1}, 1.5)
    assert SymbolicValue.from_json(json.loads(json.dumps(v.to_json()))) == v


def test_exit_codes():
    assert EXIT_CODES == {PASS: 0, RANK_ONLY: 0, FAIL: 2, UNSUPPORTED: 3}


@pytest.mark.parametrize(
    "report",
    [
        numberring_report(quad_invariants(-23)),
        numberring_report(quad_invariants(5)),
        pn_of_report(quad_invariants(-4), 2),
        ff_report(ProjectiveSpace(4, 2)),
        ff_report(CurveSpec(5, (0, -1, 0, 1))),
    ],
    ids=["nr-imag", "nr-real", "pn-of", "ff-pn", "ff-curve"],
)
def test_json_roundtrip(report):
    assert parse_report(emit_report(report, as_json=True)) == report


def test_human_output_mentions_verdict_and_table():
    report = numberring_report(quad_invariants(-23))
    text = emit_report(report)
    assert "verdict:" in text and PASS in text
    assert "H^2: rank 0, torsion order 3" in text
    assert "H^3: rank 0, torsion order 2" in text


def test_json_output_is_stable():
    report = numberring_report(quad_invariants(-4))
    assert emit_report(report, as_json=True) == emit_report(report, as_json=True)
    payload = json.loads(emit_report(report, as_json=True))
    assert payload["verdict"] == PASS
    assert list(payload) == [
        "object", "invariants", "weil_table", "rank_predicted", "ord_computed",
        "special_value_predicted", "special_value_computed", "verdict",
        "tolerances", "caveats",
    ]


_KEYS = (
    "object", "invariants", "weil_table", "rank_predicted", "ord_computed",
    "special_value_predicted", "special_value_computed", "verdict",
    "tolerances", "caveats",
)


def test_parse_report_arbitrary_json_is_report_or_value_error():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    values = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=8), inner, max_size=3),
        max_leaves=4,
    )
    # most arbitrary JSON misses a key; the second strategy has them all,
    # with a valid verdict and value-shaped special values at times, so
    # that the special values get parsed too
    value_shaped = st.fixed_dictionaries(
        {"mantissa": scalars, "log_exponents": values, "real_factor": scalars})
    fields = {k: scalars for k in _KEYS}
    fields["verdict"] = st.sampled_from(sorted(EXIT_CODES)) | scalars
    for key in ("special_value_predicted", "special_value_computed"):
        fields[key] = values | value_shaped
    reports = values | st.fixed_dictionaries(fields)

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(reports)
    def check(obj):
        try:
            report = parse_report(json.dumps(obj))
        except ValueError:
            return
        assert isinstance(report, VerificationReport)
        assert report.verdict in EXIT_CODES

    check()
