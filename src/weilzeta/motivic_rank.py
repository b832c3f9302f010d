"""Borel dimensions and Soule's rank for number rings and projective
spaces over them.

dim H^1(O_F, Q(r)) = rank K_{2r-1}(O_F), which is r1+r2-1 for r=1, r2 for
even r, and r1+r2 for odd r >= 3 (Borel); ``weil_tables.pn_of_table``
places these ranks in its shifted twists.  Soule's sum of them is the
vanishing order of zeta(P^n_{O_F}) at s=0; it is not independent of the
table, whose ranks are the same Borel dimensions.
"""

from __future__ import annotations

from .number_field import NumberFieldInvariants


def borel_dim(inv: NumberFieldInvariants, r: int) -> int:
    """rank K_{2r-1}(O_F) = dim H^1(O_F, Q(r)), r >= 1 (Borel)."""
    if r < 1:
        raise ValueError("borel_dim needs r >= 1")
    if r == 1:
        return inv.r1 + inv.r2 - 1  # unit rank
    return inv.r2 if r % 2 == 0 else inv.r1 + inv.r2


def pn_of_order(inv: NumberFieldInvariants, n: int) -> int:
    """Soule's sum: the vanishing order of zeta(P^n_{O_F}) at s=0 as the
    sum over its shifted Dedekind factors zeta_F(s-j), j = 0..n, of
    borel_dim(inv, j+1), the order of zeta_F at s = -j."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(borel_dim(inv, r) for r in range(1, n + 2))
