from fractions import Fraction

import pytest

from weilzeta.ff_zeta import ProjectiveSpace
from weilzeta.fgab import FgAb, GradedTable, Z, rank_weighted_euler, torsion_euler
from weilzeta.number_field import RATIONALS, is_fundamental, quad_invariants
from weilzeta.reports import pn_of_report
from weilzeta.weil_tables import MOD2_CAVEAT, UNKNOWN_TORSION_CAVEAT, pn_fq_table, pn_of_table

FUNDAMENTAL = [d for d in range(-60, 60) if d not in (0, 1) and is_fundamental(d)]
FIELDS = [RATIONALS] + [quad_invariants(d) for d in FUNDAMENTAL]


def plain_table(inv):
    """H^i_W(Spec O_F bar, Z): Z, 0, an extension of Hom(O_F^x, Z) by
    Cl(F)^D, and mu_F^D."""
    return GradedTable({0: Z, 2: FgAb(inv.unit_rank, inv.h), 3: FgAb(0, inv.w)}, dim=1)


def test_pn_of_table_n0_gaussian():
    # Z[i], compact support: H^1 = Z^0, H^2 = Cl = 0, H^3 = Z/4, no H^0
    table = pn_of_table(quad_invariants(-4), 0)
    assert table.degrees() == [3]
    assert (table[3].rank, table[3].torsion_order) == (0, 4)


def test_pn_of_table_n0_h_23():
    # Q(sqrt -23): class number 3 shows up in H^2
    table = pn_of_table(quad_invariants(-23), 0)
    assert (table[2].rank, table[2].torsion_order) == (0, 3)
    assert (table[3].rank, table[3].torsion_order) == (0, 2)


def test_pn_of_table_n0_real_quadratic():
    # Q(sqrt 5): H^2 has rank 1 (one unit), H^3 = Z/2
    table = pn_of_table(quad_invariants(5), 0)
    assert (table[2].rank, table[2].torsion_order) == (1, 1)
    assert (table[3].rank, table[3].torsion_order) == (0, 2)


def test_compact_table_agrees_above_degree_one():
    for inv in FIELDS:
        plain = plain_table(inv)
        compact = pn_of_table(inv, 0)
        for i in (2, 3):
            assert plain[i] == compact[i]
        assert compact[0].is_trivial
        assert (compact[1].rank, compact[1].torsion_order) == (inv.unit_rank, 1)


def test_compact_euler_characteristics():
    # rank-weighted euler = r1+r2-1 (the predicted vanishing order),
    # torsion euler = h/w
    for inv in FIELDS:
        table = pn_of_table(inv, 0)
        assert rank_weighted_euler(table) == inv.unit_rank
        assert torsion_euler(table) == Fraction(inv.h, inv.w)


def test_pn_of_table_n0_matches_numberring():
    # P^0 is Spec O_F: the compact-support table, H^1 = Z^(r1+r2-1) in
    # place of the plain H^0 = Z, the plain table above degree 1, exact
    for inv in FIELDS:
        table = pn_of_table(inv, 0)
        plain = plain_table(inv)
        expected = GradedTable({1: FgAb(inv.unit_rank), 2: plain[2], 3: plain[3]}, dim=1)
        assert table.entries == expected.entries
        assert (table.dim, table.caveats) == (1, ())


def test_pn_of_table_unknown_torsion_flagged():
    inv = quad_invariants(-4)
    table = pn_of_table(inv, 1)
    assert table.has_unknown_torsion()
    assert table.caveats == (MOD2_CAVEAT, UNKNOWN_TORSION_CAVEAT)
    # degree 3 extends mu_4^D (twist 0) by Z^(r2) (twist 1)
    assert table[3] == FgAb(1, 4)
    # degree 4 holds K_2-torsion (unknown) extended by rank r2 = borel rank at r=2
    assert table[4].rank == 1
    assert not table[4].torsion_known


def test_pn_of_table_with_supplied_torsion():
    inv = quad_invariants(5)
    # Z[phi]: pretend orders for K_2 and K_3 torsion
    table = pn_of_table(inv, 1, k_torsion={2: 24, 3: 2})
    assert not table.has_unknown_torsion()
    assert table.caveats == (MOD2_CAVEAT,)
    assert table[4].torsion_order == 24
    assert table[5].torsion_order == 2
    # degree 4 rank = r2 = 0, degree 2 rank = r1+r2-1 = 1
    assert table[4].rank == 0
    assert table[2].rank == 1


def test_pn_of_table_rejects_bad_indices():
    inv = quad_invariants(-4)
    with pytest.raises(ValueError):
        pn_of_table(inv, 1, k_torsion={7: 2})
    with pytest.raises(ValueError):
        pn_of_table(inv, -1)


def test_pn_of_k_torsion_order_below_one_is_refused():
    # an order of 0 is no group order, not an unknown one; library callers
    # get the same refusal as the command line
    for order in (0, -1):
        with pytest.raises(ValueError, match=rf"^k-torsion orders must be >= 1, got K2={order}$"):
            pn_of_report(quad_invariants(5), 1, {2: order})
    with pytest.raises(ValueError, match=r"got K3=0$"):
        pn_of_table(quad_invariants(-4), 1, k_torsion={2: 24, 3: 0})


def test_pn_fq_table_shape():
    table = pn_fq_table(ProjectiveSpace(4, 2))
    assert table[0].rank == 1 and table[1].rank == 1
    assert (table[3].rank, table[3].torsion_order) == (0, 3)
    assert (table[5].rank, table[5].torsion_order) == (0, 15)
    assert table.dim == 2


def test_pn_fq_euler_invariants():
    # ord(zeta at 0) = -1 and zeta* = -1/prod(q^j - 1), both from the table
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        for n in range(0, 5):
            table = pn_fq_table(ProjectiveSpace(q, n))
            assert rank_weighted_euler(table) == -1
            expected = Fraction(1)
            for j in range(1, n + 1):
                expected /= q**j - 1
            assert torsion_euler(table) == 1 / expected**-1 == expected


def test_pn_fq_table_rejects():
    with pytest.raises(ValueError):
        pn_fq_table(ProjectiveSpace(1, 2))
    with pytest.raises(ValueError):
        pn_fq_table(ProjectiveSpace(4, -1))
