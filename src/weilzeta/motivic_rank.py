"""Borel dimensions and zeta vanishing orders for number rings and
projective spaces over them.

dim H^1(O_F, Q(r)) = rank K_{2r-1}(O_F), which is r1+r2-1 for r=1, r2 for
even r, and r1+r2 for odd r >= 3 (Borel); ``weil_tables.pn_of_table``
places these ranks in its shifted twists, and the rank prediction is that
table's rank Euler characteristic.  The analytic side here is the order of
zeta_F at s = -j from the functional equation, summed over the shifted
Dedekind factors of zeta(P^n_{O_F}).
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


def zeta_order_at(inv: NumberFieldInvariants, j: int) -> int:
    """Vanishing order of zeta_F at s = -j (j >= 0), from the functional
    equation; equals borel_dim(inv, j+1)."""
    if j < 0:
        raise ValueError("zeta_order_at needs j >= 0")
    if j == 0:
        return inv.r1 + inv.r2 - 1
    return inv.r2 if j % 2 == 1 else inv.r1 + inv.r2


def pn_of_order(inv: NumberFieldInvariants, n: int) -> int:
    """Vanishing order of zeta(P^n_{O_F}) at s=0 via the factorization
    into shifted Dedekind zeta functions: sum of zeta_order_at(inv, j)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(zeta_order_at(inv, j) for j in range(n + 1))
