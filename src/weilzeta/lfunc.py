"""Analytic side at s=0 for quadratic fields.

The Dedekind zeta function of a quadratic field factors as
zeta(s) * L(s, chi_D) with chi_D the Kronecker character.  At s=0 both
factors are elementary sums over one period of the character, which is
built once as a table: L(0) is a finite rational sum, and for even
characters (D > 0, where L(0) = 0) the derivative L'(0) collapses by
Lerch's formula to a finite sum of log-gamma values.  No analytic
continuation machinery is needed.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ff_zeta import factorize, legendre
from .number_field import MAX_ABS_DISC, NumberFieldInvariants, is_fundamental, InvariantsError

# characters of the prime discriminants -4, 8 and -8 on one period
_TWO_ADIC = {-4: (0, 1, 0, -1), 8: (0, 1, 0, -1, 0, -1, 0, 1), -8: (0, 1, 0, 1, 0, -1, 0, -1)}


class AnalyticSideUnavailable(ValueError):
    """The analytic side is only computed for Q and quadratic fields."""


def character_table(D: int):
    """chi_D(a) for 0 <= a < |D| as an int8 numpy array, D fundamental with |D| > 1.

    D is the product of prime discriminants -4, +-8 and
    p* = (-1)^((p-1)/2) p, one for each prime p | D, and chi_D is the
    product of their characters; the character of p* is the Legendre
    symbol mod p."""
    import numpy as np
    if not is_fundamental(D) or abs(D) <= 1:
        raise InvariantsError(f"D={D} is not a fundamental discriminant with |D| > 1")
    m, two_adic = abs(D), D
    chi = np.ones(m, dtype=np.int8)
    for p in factorize(m):
        if p == 2:
            continue
        two_adic //= p if p % 4 == 1 else -p
        chi *= np.tile(legendre(p), m // p)
    if two_adic != 1:
        period = _TWO_ADIC[two_adic]
        chi *= np.tile(np.array(period, dtype=np.int8), m // len(period))
    return chi


def l_at_0(D: int) -> Fraction:
    """L(0, chi_D) as an exact rational: sum chi(a) * (1/2 - a/|D|) over
    one period, which is -sum chi(a) * a / |D| since chi sums to 0.
    Vanishes exactly for even characters (D > 0)."""
    import numpy as np
    chi = character_table(D)  # the int64 sum is exact: |sum| < |D|^2 <= 2^48
    return Fraction(-int(np.arange(abs(D), dtype=np.int64) @ chi), abs(D))


def l_prime_at_0(D: int) -> float:
    """L'(0, chi_D) for D > 0 fundamental, via Lerch:
    L'(0) = sum chi(a) * ln Gamma(a/D)."""
    if D <= 1:
        raise InvariantsError(f"D={D} is not a fundamental discriminant > 1")
    chi = character_table(D).tolist()
    return math.fsum(c * math.lgamma(a / D) for a, c in enumerate(chi) if c)


def dedekind_leading_at_0(inv: NumberFieldInvariants) -> tuple:
    """(ord, value): vanishing order and leading coefficient of zeta_F at
    s=0 for F of degree <= 2, from zeta_F = zeta * L(chi_D) and
    zeta(0) = -1/2.

    The order is decided by an exact rationality test on L(0): order 0
    when L(0) != 0, otherwise order 1 with the numeric L'(0).  Discs
    above MAX_ABS_DISC are refused before any sum is built.
    """
    if (inv.r1, inv.r2) == (1, 0):
        return 0, -0.5  # zeta(0) for Q itself
    if abs(inv.disc) > MAX_ABS_DISC:
        raise AnalyticSideUnavailable(f"|disc| = {abs(inv.disc)} exceeds the supported bound "
                                      f"MAX_ABS_DISC = {MAX_ABS_DISC}")
    if inv.r1 + 2 * inv.r2 != 2 or not is_fundamental(inv.disc) or abs(inv.disc) <= 1:
        raise AnalyticSideUnavailable(
            f"analytic side unavailable for degree {inv.r1 + 2 * inv.r2}, disc {inv.disc}"
        )
    l0 = l_at_0(inv.disc)
    if l0 != 0:
        return 0, float(-l0 / 2)
    return 1, -l_prime_at_0(inv.disc) / 2
