"""Weil-etale cohomology tables for the proven verification cases.

Number rings: H^0 = Z, H^1 = 0, H^2 an extension of Hom(units, Z) by the
dual of the class group, H^3 the dual of the roots of unity.  The
compact-support variant differs only in low degrees, through the long
exact sequence against the archimedean fiber Z^(r1+r2) with the diagonal
map in degree 0.

Projective spaces over a number ring extend the same pattern with
K-theory of the base (2-torsion neglected throughout); K-group torsion is
not computed here and stays explicitly "unknown" unless supplied.

Projective spaces over F_q get the table whose Euler characteristics
reproduce the exact zeta special value (the zeta side is the oracle).
"""

from __future__ import annotations

from .ff_zeta import ProjectiveSpace
from .fgab import FgAb, GradedTable, Z, extend
from .motivic_rank import borel_dim
from .number_field import NumberFieldInvariants

MOD2_CAVEAT = "mod 2-torsion"
UNKNOWN_TORSION_CAVEAT = "k-torsion unknown"
# A P^n table has 2n + 3 entries, one report line each: n = 10^4 prints
# about 1 MB in a fraction of a second, n = 10^6 took 16 s and 1.2 GiB.
# The checked cases need n <= 6.
MAX_PN_OF_N = 10**4


def numberring_compact_table(inv: NumberFieldInvariants) -> GradedTable:
    """Compact-support table from the long exact sequence against
    R Gamma(X_infty) = Z^(r1+r2) in degree 0: the diagonal Z -> Z^(r1+r2)
    is injective with a free quotient of rank r1+r2-1."""
    h2 = extend(FgAb(0, inv.h), FgAb(inv.unit_rank, 1))
    return GradedTable(
        {1: FgAb(inv.unit_rank, 1), 2: h2, 3: FgAb(0, inv.w)}, dim=1
    )


def pn_of_table(
    inv: NumberFieldInvariants, n: int, k_torsion: dict | None = None
) -> GradedTable:
    """H^i_W table of P^n over O_F, 2-torsion neglected.

    Degree 2j+2 is an extension of Hom(K_{2j+1}(O_F), Z) by the dual of
    the K_{2j}-torsion; degree 2j+3 is the dual of the K_{2j+1}-torsion.
    ``k_torsion`` maps K-group index m to its (torsion) order: m = 2j for
    |K_{2j}| and m = 2j+1 for |K_{2j+1,tors}|, for 1 <= j <= n.  The j=0
    orders are the class number and root-of-unity count from ``inv``.
    Missing orders are flagged unknown rather than silently 1.
    """
    if not 0 <= n <= MAX_PN_OF_N:
        raise ValueError(f"n must be in 0..{MAX_PN_OF_N}, got {n}")
    k_torsion = dict(k_torsion or {})
    bad = [m for m in k_torsion if not 2 <= m <= 2 * n + 1]
    if bad:
        raise ValueError(f"k-torsion indices out of range for n={n}: {bad}")
    k_torsion[0] = inv.h
    k_torsion[1] = inv.w

    entries = {0: Z}
    for j in range(n + 1):
        even = k_torsion.get(2 * j)
        odd = k_torsion.get(2 * j + 1)
        sub = FgAb(0, even) if even else FgAb(0, 1, False)
        entries[2 * j + 2] = extend(sub, FgAb(borel_dim(inv, j + 1), 1))
        entries[2 * j + 3] = FgAb(0, odd) if odd else FgAb(0, 1, False)
    table = GradedTable(entries, dim=n + 1, caveats=(MOD2_CAVEAT,))
    if table.has_unknown_torsion():
        table.caveats = (MOD2_CAVEAT, UNKNOWN_TORSION_CAVEAT)
    return table


def pn_fq_table(space: ProjectiveSpace) -> GradedTable:
    """H^i_W table of P^n over F_q (compact support = plain in char p):
    Z in degrees 0 and 1, torsion of order q^j - 1 in degree 2j+1 for
    1 <= j <= n.  Verified against the exact zeta side."""
    entries = {0: Z, 1: Z}
    for j in range(1, space.n + 1):
        entries[2 * j + 1] = FgAb(0, space.q**j - 1)
    return GradedTable(entries, dim=space.n)
