"""Acceptance battery: one check per criterion, one PASS/FAIL line each.

Shared by the ``weilzeta suite`` CLI verb and the pytest acceptance
module.  Every check returns (ok, detail); run_suite prints the lines and
reports overall success.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import islice, product

from . import ff_zeta, weil_tables
from .lfunc import dedekind_leading_at_0
from .number_field import RATIONALS, quad_invariants
from .reports import (
    FAIL,
    PASS,
    RANK_ONLY,
    ff_report,
    ff_value,
    open_report,
    pn_of_report,
)

NUMBER_RING_SUITE = (-3, -4, -7, -8, -11, -15, -23, -47, 5, 8, 12, 13, 40)


def check_number_rings():
    """Criterion 1: for the quadratic suite, the report's verdict is PASS
    (ord = rank, zeta* = -hR/w exactly for D < 0 and within DEFAULT_TOL
    relative for D > 0), its rank is r1 + r2 - 1, and each field takes < 1 s."""
    bad = []
    for d in NUMBER_RING_SUITE:
        start = time.perf_counter()
        inv = quad_invariants(d)
        report = pn_of_report(inv)
        rank_ok = report.rank_predicted == inv.unit_rank
        fast = time.perf_counter() - start < 1.0
        if not (report.verdict == PASS and rank_ok and fast):
            bad.append((d, report.verdict, rank_ok, fast))
    return not bad, f"13 fields, failures: {bad or 'none'}"


def check_rationals():
    """Criterion 2: Q itself, exact: ord 0 and zeta(0) = -1/2 = -hR/w."""
    ord_, value = dedekind_leading_at_0(RATIONALS)
    ok = ord_ == 0 and value == -0.5 == -RATIONALS.h * 1.0 / RATIONALS.w
    return ok, f"ord={ord_}, value={value}"


def check_pn_over_fq():
    """Criterion 3: P^n over F_q, q in {2,3,4,5,7,8,9}, n <= 3, exact."""
    start = time.perf_counter()
    bad = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(4):
            space = ff_zeta.ProjectiveSpace(q, n)
            report = ff_report(space)
            rho_ok = report.ord_computed == report.rank_predicted == -1
            expected = Fraction(1)
            for j in range(1, n + 1):
                expected /= q**j - 1
            # |c| (ln q)^-1 with c = 1 / prod (q^j - 1), as the report folds it
            want, computed = ff_value(expected, -1, space), report.special_value_computed
            c_ok = (report.verdict == PASS and abs(computed.mantissa) == want.mantissa
                    and computed.log_exponents == want.log_exponents)
            if not (rho_ok and c_ok):
                bad.append((q, n))
    elapsed = time.perf_counter() - start
    return not bad and elapsed < 1.0, f"28 cases in {elapsed:.3f}s, failures: {bad or 'none'}"


def curve_panel():
    """Deterministic panel: for each p, the first 5 squarefree cubics and
    quintics y^2 = x^deg + a x + b, (b, a) in lexicographic order."""
    def curves(p, deg):
        for b, a in product(range(p), repeat=2):
            try:
                yield ff_zeta.CurveSpec(p, (b, a) + (0,) * (deg - 2) + (1,))
            except ValueError:  # not squarefree mod p
                continue
    return [c for p in (3, 5, 7, 11, 13) for deg in (3, 5) for c in islice(curves(p, deg), 5)]


def check_curves():
    """Criterion 4: Hasse bound, exact count reproduction up to
    p^m <= 2^16, and |zeta*|(q-1) = P(1); < 30 s."""
    start = time.perf_counter()
    panel = curve_panel()
    per_prime = {}
    bad = []
    for c in panel:
        per_prime[c.p] = per_prime.get(c.p, 0) + 1
        report = ff_report(c)
        if report.verdict != PASS:
            bad.append((c.p, c.f, [x for x in report.caveats if x.startswith("failed: ")]))
    elapsed = time.perf_counter() - start
    # the count reproduction of the criterion reaches p^m <= 2^16
    enough = ff_zeta.COUNT_BOUND >= 2**16 and all(
        per_prime.get(p, 0) >= 10 for p in (3, 5, 7, 11, 13))
    return (
        not bad and enough and elapsed < 30.0,
        f"{len(panel)} curves over 5 primes in {elapsed:.1f}s, failures: {bad or 'none'}",
    )


def check_pn_rank_identity():
    """Criterion 5: the pn-of report's rank, the rank Euler characteristic
    of the P^n table, equals its vanishing order (from L(0) at n = 0,
    Soule's sum above) with no failed check, for the suite, n <= 6."""
    start = time.perf_counter()
    bad = []
    for d in (1, *NUMBER_RING_SUITE):
        inv = quad_invariants(d)
        for n in range(7):
            report = pn_of_report(inv, n)
            if report.verdict == FAIL or report.rank_predicted != report.ord_computed:
                bad.append((d, n, report.verdict, report.rank_predicted, report.ord_computed))
    elapsed = time.perf_counter() - start
    return not bad and elapsed < 1.0, f"98 cases in {elapsed:.3f}s, failures: {bad or 'none'}"


def open_pairs():
    """(base report, fiber report, expected verdict) triples for the
    multiplicativity check: a rank-only base makes U rank-only."""
    qi = quad_invariants(-4)
    return [
        (pn_of_report(RATIONALS), ff_report(ff_zeta.ProjectiveSpace(2, 0)), PASS),
        (pn_of_report(RATIONALS), ff_report(ff_zeta.ProjectiveSpace(3, 0)), PASS),
        (pn_of_report(quad_invariants(5)), ff_report(ff_zeta.ProjectiveSpace(11, 0)), PASS),
        (pn_of_report(qi, 1), ff_report(ff_zeta.ProjectiveSpace(5, 1)), RANK_ONLY),
        (pn_of_report(RATIONALS, 2), ff_report(ff_zeta.ProjectiveSpace(7, 2)), RANK_ONLY),
    ]


def check_open_multiplicativity():
    """Criterion 6: ord additivity and each pair's expected verdict."""
    bad = []
    for base, fiber, verdict in open_pairs():
        combined = open_report(base, [fiber])
        expected = base.ord_computed - fiber.ord_computed
        if not (
            combined.ord_computed == expected
            and combined.rank_predicted == expected
            and combined.verdict == verdict
        ):
            bad.append((base.object, fiber.object, combined.verdict))
    return not bad, f"5 pairs, failures: {bad or 'none'}"


def check_rank_only_flag():
    """Criterion 7: P^n over O_F with n >= 1 and no K-torsion input must
    report RANK_ONLY with the unknown-torsion caveat."""
    report = pn_of_report(quad_invariants(-4), 2)
    ok = (
        report.verdict == RANK_ONLY
        and weil_tables.UNKNOWN_TORSION_CAVEAT in report.caveats
        and weil_tables.MOD2_CAVEAT in report.caveats
    )
    return ok, f"verdict={report.verdict}, caveats={report.caveats}"


CRITERIA = (
    ("1 number rings: ord and -hR/w", check_number_rings),
    ("2 rationals: exact -1/2", check_rationals),
    ("3 P^n over F_q: exact rho and mantissa", check_pn_over_fq),
    ("4 curves over F_p: exact zeta checks", check_curves),
    ("5 P^n rank identity over number rings", check_pn_rank_identity),
    ("6 open-subscheme ord additivity", check_open_multiplicativity),
    ("7 RANK_ONLY flag for unknown K-torsion", check_rank_only_flag),
)


def run_suite() -> bool:
    all_ok = True
    for name, check in CRITERIA:
        ok, detail = check()
        all_ok = all_ok and ok
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {name} -- {detail}")
    print("acceptance suite:", "PASS" if all_ok else "FAIL")
    return all_ok
