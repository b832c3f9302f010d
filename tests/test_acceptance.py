"""Acceptance gate: every criterion of the verification battery must
pass at its stated tolerance.  One printed line per criterion."""

import pytest

from weilzeta import reports
from weilzeta.acceptance import CRITERIA, check_pn_rank_identity


@pytest.mark.parametrize("name,check", CRITERIA, ids=[name for name, _ in CRITERIA])
def test_criterion(name, check):
    ok, detail = check()
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {name} -- {detail}")
    assert ok, f"criterion {name}: {detail}"


def test_criterion_5_reads_the_analytic_order_at_n0(monkeypatch):
    # at n = 0 the pn-of report compares the table's rank with the order
    # of zeta_F at s = 0 from L(0): an analytic side one too high must fail
    leading = reports.dedekind_leading_at_0

    def off_by_one(inv):
        ord_, value = leading(inv)
        return ord_ + 1, value

    monkeypatch.setattr(reports, "dedekind_leading_at_0", off_by_one)
    ok, detail = check_pn_rank_identity()
    assert not ok and "failures: none" not in detail
