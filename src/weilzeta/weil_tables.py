"""Weil-etale cohomology tables for the proven verification cases.

Number rings and projective spaces over them share one builder,
``pn_of_table``: the compact-support table of P^n over O_F is a sum of
shifted copies of the number-ring pattern, one per twist j = 0..n, and
P^0 is Spec O_F itself.  K-group torsion beyond the class group and the
roots of unity is not computed here and stays explicitly "unknown"
unless supplied; for n >= 1 the table is stated mod 2-torsion.

Projective spaces over F_q get the table whose Euler characteristics
reproduce the exact zeta special value (the zeta side is the oracle).
"""

from __future__ import annotations

from .ff_zeta import ProjectiveSpace
from .fgab import FgAb, GradedTable, Z
from .motivic_rank import borel_dim
from .number_field import NumberFieldInvariants

MOD2_CAVEAT = "mod 2-torsion"
UNKNOWN_TORSION_CAVEAT = "k-torsion unknown"
# A P^n table has 2n + 3 entries, one report line each: n = 10^4 prints
# about 1 MB in a fraction of a second, n = 10^6 took 16 s and 1.2 GiB.
# The checked cases need n <= 6.
MAX_PN_OF_N = 10**4


def pn_of_table(
    inv: NumberFieldInvariants, n: int, k_torsion: dict | None = None
) -> GradedTable:
    """H^i_{W,c} table of P^n over O_F: a sum of shifted copies of the
    number-ring pattern, one per twist j = 0..n.  Twist j puts Z^(b_j),
    b_j = borel_dim(inv, j+1), in degree 2j+1, an extension of Z^(b_j) by
    the dual of the K_{2j}-torsion in degree 2j+2, and the dual of the
    K_{2j+1}-torsion in degree 2j+3, where it meets the Z^(b_{j+1}) of
    twist j+1 (ranks add, orders multiply).  Each twist adds
    -(2j+1) b_j + (2j+2) b_j = b_j to the rank Euler characteristic.  The
    placement follows the projective bundle formula; P^0 is Spec O_F,
    whose table comes from the long exact sequence against
    R Gamma(X_infty) = Z^(r1+r2).

    ``k_torsion`` maps K-group index m to its (torsion) order >= 1: m = 2j
    for |K_{2j}| and m = 2j+1 for |K_{2j+1,tors}|, for 1 <= j <= n.  The j=0
    orders are the class number and root-of-unity count from ``inv``.
    Missing orders are flagged unknown rather than silently 1.  For
    n >= 1 the table is stated mod 2-torsion.
    """
    if not 0 <= n <= MAX_PN_OF_N:
        raise ValueError(f"n must be in 0..{MAX_PN_OF_N}, got {n}")
    bad = [m for m in k_torsion or {} if not 2 <= m <= 2 * n + 1]
    if bad:
        raise ValueError(f"k-torsion indices out of range for n={n}: {bad}")
    orders = {0: inv.h, 1: inv.w, **(k_torsion or {})}
    low = [f"K{m}={t}" for m, t in orders.items() if t < 1]  # h, w >= 1 already
    if low:
        raise ValueError(f"k-torsion orders must be >= 1, got {', '.join(low)}")

    top = 2 * n + 3
    entries = {1: FgAb(borel_dim(inv, 1))}
    for i in range(2, top + 1):
        t = orders.get(i - 2)  # K_m-torsion in degree m + 2
        entries[i] = FgAb(borel_dim(inv, (i + 1) // 2) if i < top else 0, t or 1, bool(t))
    table = GradedTable(entries, dim=n + 1, caveats=(MOD2_CAVEAT,) if n else ())
    if table.has_unknown_torsion():
        table.caveats += (UNKNOWN_TORSION_CAVEAT,)
    return table


def pn_fq_table(space: ProjectiveSpace) -> GradedTable:
    """H^i_W table of P^n over F_q (compact support = plain in char p):
    Z in degrees 0 and 1, torsion of order q^j - 1 in degree 2j+1 for
    1 <= j <= n.  Verified against the exact zeta side."""
    entries = {0: Z, 1: Z}
    for j in range(1, space.n + 1):
        entries[2 * j + 1] = FgAb(0, space.q**j - 1)
    return GradedTable(entries, dim=space.n)
