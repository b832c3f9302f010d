"""Acceptance gate: every criterion of the verification battery must
pass at its stated tolerance.  One printed line per criterion."""

import pytest

from weilzeta.acceptance import CRITERIA


@pytest.mark.parametrize("name,check", CRITERIA, ids=[name for name, _ in CRITERIA])
def test_criterion(name, check):
    ok, detail = check()
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {name} -- {detail}")
    assert ok, f"criterion {name}: {detail}"
