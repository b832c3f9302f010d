import pytest

from weilzeta.fgab import rank_weighted_euler
from weilzeta.motivic_rank import borel_dim, pn_of_order
from weilzeta.number_field import RATIONALS, is_fundamental, quad_invariants
from weilzeta.weil_tables import pn_of_table

FUNDAMENTAL = [d for d in range(-60, 60) if d not in (0, 1) and is_fundamental(d)]


def test_borel_dim_rationals():
    # Z: rank K_1 = 0, rank K_{4k+1} = 1, rank K_{4k-1} = 0
    assert [borel_dim(RATIONALS, r) for r in range(1, 7)] == [0, 0, 1, 0, 1, 0]


def test_borel_dim_gaussian():
    # Z[i]: rank K_{2r-1} = 1 for every r >= 2, unit rank 0 at r=1
    inv = quad_invariants(-4)
    assert [borel_dim(inv, r) for r in range(1, 6)] == [0, 1, 1, 1, 1]


def test_borel_dim_real_quadratic():
    # Z[phi]: unit rank 1, then 0 (even r), 2 (odd r >= 3)
    inv = quad_invariants(5)
    assert [borel_dim(inv, r) for r in range(1, 6)] == [1, 0, 2, 0, 2]


def test_borel_dim_rejects():
    with pytest.raises(ValueError):
        borel_dim(RATIONALS, 0)


def test_soule_rank_number_ring_is_unit_rank():
    # the Soule rank is the rank Euler characteristic of the P^n table
    for d in FUNDAMENTAL:
        inv = quad_invariants(d)
        assert rank_weighted_euler(pn_of_table(inv, 0)) == inv.unit_rank


def test_soule_rank_equals_pn_of_order():
    # the central rank identity: cohomological rank = analytic order; the
    # table's rank is the Soule sum, one Borel rank per twist
    for d in [1] + FUNDAMENTAL:
        inv = RATIONALS if d == 1 else quad_invariants(d)
        for n in range(0, 7):
            soule = sum(borel_dim(inv, r) for r in range(1, n + 2))
            assert rank_weighted_euler(pn_of_table(inv, n)) == soule == pn_of_order(inv, n)


def test_pn_of_order_degree_sum():
    # each shifted factor contributes independently: P^2 over Z[i]
    inv = quad_invariants(-4)
    assert pn_of_order(inv, 2) == 0 + 1 + 1
    # P^3 over Z: orders at 0, -1, -2, -3 are 0, 0, 1, 0
    assert pn_of_order(RATIONALS, 3) == 1


def test_soule_rank_and_pn_of_order_reject_negative_n():
    with pytest.raises(ValueError):
        pn_of_table(RATIONALS, -1)
    with pytest.raises(ValueError):
        pn_of_order(RATIONALS, -1)
