import dataclasses
import itertools
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
    decide,
    emit_report,
    ff_report,
    ff_value,
    open_report,
    parse_report,
    pn_of_report,
)
from weilzeta import ff_zeta, reports
from weilzeta.acceptance import NUMBER_RING_SUITE
from weilzeta.ff_zeta import CurveSpec, ProjectiveSpace
from weilzeta.lfunc import dedekind_leading_at_0
from weilzeta.number_field import RATIONALS, quad_invariants


def test_symbolic_numeric():
    v = SymbolicValue(Fraction(-1, 3), {2: -1}, 1.0)
    assert abs(v.numeric() - (-1 / (3 * math.log(2)))) < 1e-15
    assert SymbolicValue(Fraction(2), {}, 0.5).numeric() == 1.0


def test_symbolic_division_cancels_logs():
    a = SymbolicValue(Fraction(1, 2), {2: -1, 3: 2}, 4.0)
    b = SymbolicValue(Fraction(1, 4), {3: 2}, 2.0)
    quot = a.divided_by([b])
    assert quot == SymbolicValue(Fraction(2), {2: -1}, 2.0)
    assert abs(quot.numeric() - a.numeric() / b.numeric()) < 1e-12


def test_symbolic_equality_ignores_zero_exponents():
    assert SymbolicValue(Fraction(1), {2: 0}) == SymbolicValue(Fraction(1), {})
    # (ln p)^0 = 1 is dropped on construction: one normal form
    assert SymbolicValue(Fraction(1), {2: 0}).log_exponents == {}
    assert SymbolicValue(Fraction(1), {2: 1, 3: 2}).divided_by(
        [SymbolicValue(Fraction(1), {2: 1})]).log_exponents == {3: 2}


def test_symbolic_value_is_finite_by_construction():
    # (ln 3)^10000, a 10^400 mantissa and an infinite factor overflow a
    # float; a 10^-400 mantissa and (ln 3)^-10000 round to 0.0
    for args in ((Fraction(1), {3: 10000}), (Fraction(10**400),), (Fraction(1), {}, math.inf),
                 (Fraction(1, 10**400),), (Fraction(1), {3: -10000})):
        with pytest.raises(ValueError, match="^special value is not a nonzero finite float$"):
            SymbolicValue(*args)


def test_ff_value_folds_prime_power_base():
    # ln(9)^e = (2 ln 3)^e folds 2^e into the mantissa
    v = ff_value(Fraction(1, 8), -1, ProjectiveSpace(9, 0))
    assert v == SymbolicValue(Fraction(1, 16), {3: -1})
    assert abs(v.numeric() - Fraction(1, 8) / math.log(9)) < 1e-15
    # a prime base keeps the mantissa; exponent 0 leaves no log factor
    assert ff_value(Fraction(-2, 3), 2, ProjectiveSpace(5, 0)) == SymbolicValue(Fraction(-2, 3), {5: 2})
    assert ff_value(Fraction(3), 0, ProjectiveSpace(8, 0)) == SymbolicValue(Fraction(3), {})


def test_numberring_value_is_a_real_factor():
    # the analytic zeta*(0) is a float, carried as 1 * real_factor
    inv = quad_invariants(5)
    v = pn_of_report(inv).special_value_computed
    assert v == SymbolicValue(Fraction(1), {}, dedekind_leading_at_0(inv)[1])


def test_ff_report_projective_spaces():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(0, 4):
            report = ff_report(ProjectiveSpace(q, n))
            assert report.verdict == PASS, report.caveats
            assert report.caveats == ["sign compared up to +-1"]
            assert report.rank_predicted == report.ord_computed == -1


def test_ff_report_fail_names_the_comparisons(monkeypatch):
    # a zeta side that disagrees with both predictions fails both
    # comparison checks, under the names the caveats have always used
    monkeypatch.setattr(ff_zeta, "special_value_s0", lambda zeta: (0, Fraction(7)))
    report = ff_report(ProjectiveSpace(3, 1))
    assert report.verdict == FAIL
    assert report.caveats == [
        "failed: vanishing order equals rank Euler characteristic",
        "failed: |mantissa| equals torsion Euler characteristic",
        "sign compared up to +-1",
    ]
    report = ff_report(CurveSpec(5, (0, -1, 0, 1)))
    assert report.verdict == FAIL
    assert report.caveats == [
        "failed: vanishing order is -1",
        "failed: |mantissa| (q-1) = P(1)",
        "sign compared up to +-1",
    ]


def test_symbolic_json_roundtrip():
    v = SymbolicValue(Fraction(-22, 7), {2: 3, 5: -1}, 1.5)
    assert SymbolicValue.from_json(json.loads(json.dumps(v.to_json()))) == v


def test_exit_codes():
    assert EXIT_CODES == {PASS: 0, RANK_ONLY: 0, FAIL: 2, UNSUPPORTED: 3}


@pytest.mark.parametrize(
    "report",
    [
        pn_of_report(quad_invariants(-23)),
        pn_of_report(quad_invariants(5)),
        pn_of_report(quad_invariants(-4), 2),
        ff_report(ProjectiveSpace(4, 2)),
        ff_report(CurveSpec(5, (0, -1, 0, 1))),
    ],
    ids=["nr-imag", "nr-real", "pn-of", "ff-pn", "ff-curve"],
)
def test_json_roundtrip(report):
    assert parse_report(emit_report(report, as_json=True)) == report


def test_every_table_report_reads_its_prediction_off_its_table():
    # pn-of for Q and the criterion-1 fields, n <= 6 (n = 0 is numberring)
    # with and without K-torsion, criterion 3's ff pn panel: every report kind with
    # a weil_table.  The JSON table alone gives rank_predicted (sum of
    # (-1)^i i rank_i) and, for number rings, |mantissa| (prod of
    # torsion_order_i^((-1)^i)).
    fields = [RATIONALS] + [quad_invariants(d) for d in NUMBER_RING_SUITE]
    panel = [pn_of_report(inv, n) for inv in fields for n in range(7)]
    panel += [pn_of_report(inv, n, {2: 24, 3: 2}) for inv in fields for n in range(1, 7)]
    panel += [ff_report(ProjectiveSpace(q, n)) for q in (2, 3, 4, 5, 7, 8, 9) for n in range(4)]
    for report in panel:
        payload = json.loads(emit_report(report, as_json=True))
        entries = {int(i): g for i, g in payload["weil_table"]["entries"].items()}
        assert payload["rank_predicted"] == sum((-1) ** i * i * g["rank"] for i, g in entries.items())
        if report.object.startswith("Spec O_F"):
            torsion = math.prod(Fraction(int(g["torsion_order"])) ** (-1) ** i
                                for i, g in entries.items())
            assert abs(report.special_value_predicted.mantissa) == torsion


def test_human_output_mentions_verdict_and_table():
    report = pn_of_report(quad_invariants(-23))
    text = emit_report(report)
    assert "verdict:" in text and PASS in text
    assert "H^2: rank 0, torsion order 3" in text
    assert "H^3: rank 0, torsion order 2" in text


def test_json_output_is_stable():
    report = pn_of_report(quad_invariants(-4))
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
    # most arbitrary JSON misses a key, so three draws in four are reports
    # of the right shape (zero values included) with arbitrary JSON or a
    # near miss (a log base that is not prime, an overflowing real factor)
    # in one field of the report half the time, and in one field of each
    # special value and weil_table entry a quarter of the time
    near = st.sampled_from([
        "0", "1/0", "1e400", "x", 0, 0.0, 1.5, -1, True, 10**400, math.inf, math.nan,
        {"-3": -1}, {"1": 1}, {"4": 2}, {"3": "-1"}, {"3": True}, {"3": 10**6}, {"entries": 3},
    ])
    junk = values | near

    def one_off(fields, clean=1):
        keys = tuple(fields)
        return st.builds(lambda obj, key, bad: {**obj, key: bad} if key else obj,
                         st.fixed_dictionaries(fields),
                         st.sampled_from((None,) * (clean * len(keys)) + keys), junk)

    ints = st.integers(-3000, 3000)
    value = one_off({
        "mantissa": st.sampled_from(["0", "-1/2"]) | st.fractions().map(str),
        "log_exponents": st.dictionaries(st.sampled_from(["2", "3", "5", "47"]), ints, max_size=2),
        "real_factor": st.floats(allow_nan=False, allow_infinity=False),
    }, clean=3)
    group = one_off({"rank": ints, "torsion_order": st.text(max_size=4),
                     "torsion_known": st.booleans()}, clean=3)
    mapping = st.dictionaries(st.text(max_size=4), scalars, max_size=3)
    shaped = one_off({
        "object": st.text(max_size=8),
        "invariants": mapping,
        "weil_table": st.none() | st.fixed_dictionaries(
            {"entries": st.dictionaries(st.text(max_size=2), group, max_size=2)}),
        "rank_predicted": st.none() | ints,
        "ord_computed": st.none() | ints,
        "special_value_predicted": st.none() | value,
        "special_value_computed": st.none() | value,
        "verdict": st.sampled_from(sorted(EXIT_CODES)),
        "tolerances": mapping,
        "caveats": st.lists(st.text(max_size=8), max_size=3),
    })
    reports = st.integers(0, 3).flatmap(lambda k: shaped if k else values)

    @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @hypothesis.given(reports)
    def check(obj):
        try:
            report = parse_report(json.dumps(obj))
        except ValueError:
            return
        assert isinstance(report, VerificationReport)
        assert report.verdict in EXIT_CODES
        # every report that parses can be shown and opened
        for shown in (report, open_report(report, [report])):
            emit_report(shown)
            emit_report(shown, as_json=True)

    check()


# ---------------------------------------------------------------------------
# the verdict rule

# weakest first: a verdict is never stronger than any verdict it rests on
_STRENGTH = (UNSUPPORTED, FAIL, RANK_ONLY, PASS)


@pytest.mark.parametrize("ok", [PASS, RANK_ONLY, UNSUPPORTED])
def test_decide_table(ok):
    # a builder's own verdict (RANK_ONLY for pn-of) is one more input
    verdicts = (PASS, RANK_ONLY, FAIL, UNSUPPORTED)
    for k in range(4):
        for inputs in itertools.product(verdicts, repeat=k):
            for checks in ((), (("a", True),), (("a", True), ("b", False)),
                           (("a", False), ("b", False))):
                failed = [f"failed: {name}" for name, passed in checks if not passed]
                want = min((*inputs, ok, *[FAIL] * bool(failed)), key=_STRENGTH.index)
                verdict, caveats = decide(checks, (*inputs, ok))
                assert verdict == want, (inputs, checks, ok)
                assert caveats == (failed if want == FAIL else [])


def _with_verdict(report, verdict):
    copy = parse_report(emit_report(report, as_json=True))
    copy.verdict = verdict
    return copy


def test_open_report_rank_only_input_gives_rank_only():
    base = pn_of_report(quad_invariants(-4), 1)
    fiber = ff_report(ProjectiveSpace(5, 1))
    u = open_report(base, [fiber])
    assert u.verdict == RANK_ONLY and u.exit_code == 0
    assert u.rank_predicted == u.ord_computed == base.rank_predicted + 1
    # a rank-only fiber demotes a PASS base the same way
    point = ff_report(ProjectiveSpace(5, 0))
    u = open_report(fiber, [_with_verdict(point, RANK_ONLY)])
    assert u.verdict == RANK_ONLY and u.exit_code == 0
    # FAIL and UNSUPPORTED inputs still win over RANK_ONLY
    for weaker in (FAIL, UNSUPPORTED):
        for b, f in ((base, _with_verdict(fiber, weaker)), (_with_verdict(base, weaker), fiber)):
            assert open_report(b, [f]).verdict == weaker


def test_open_report_divides_once():
    # base / Y1 = (ln 3)^10000 is not a finite float, U = base / (Y1 Y2) is
    point = ff_report(ProjectiveSpace(3, 0))
    base, y1, y2 = (dataclasses.replace(point, special_value_computed=SymbolicValue(
        Fraction(1), {3: e})) for e in (5000, -5000, 5000))
    value = open_report(base, [y1, y2]).special_value_computed
    assert value.log_exponents == {3: 5000}
    assert math.isclose(value.numeric(), 1.668e204, rel_tol=1e-3)


def test_divided_by_divides_in_order():
    a, b, c = (SymbolicValue(Fraction(m), {2: e}, r)
               for m, e, r in ((3, 1, 0.1), (7, -2, 0.3), (11, 4, 0.7)))
    assert a.divided_by([b, c]) == a.divided_by([b]).divided_by([c])
    assert a.divided_by([b, c]).real_factor == 0.1 / 0.3 / 0.7
    assert a.divided_by([]) == a


def test_open_report_own_fail_is_named():
    # parse_report refuses both PASS bases, so only one built in process has them
    base = ff_report(ProjectiveSpace(5, 1))
    for rank in (None, base.ord_computed + 1):  # no rank to check; a rank that is not the order
        base.rank_predicted = rank
        u = open_report(base, [ff_report(ProjectiveSpace(5, 0))])
        assert u.verdict == FAIL and u.caveats[0] == "failed: ord additivity"


def test_pn_of_report_own_fail_is_named(monkeypatch):
    monkeypatch.setattr(reports, "pn_of_order", lambda inv, n: -7)
    report = pn_of_report(quad_invariants(-4), 1)
    assert report.verdict == FAIL
    assert report.caveats[-1] == "failed: vanishing order equals rank Euler characteristic"
