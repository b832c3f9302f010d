"""Analytic side at s=0 for quadratic fields.

The Dedekind zeta function of a quadratic field factors as
zeta(s) * L(s, chi_D) with chi_D the Kronecker character.  At s=0 both
factors are elementary: L(0) is a finite rational sum over one period of
the character, and for even characters (D > 0, where L(0) = 0) the
derivative L'(0) collapses by Lerch's formula to a finite sum of log-gamma
values.  No analytic continuation machinery is needed.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .number_field import NumberFieldInvariants, is_fundamental, InvariantsError


class AnalyticSideUnavailable(ValueError):
    """The analytic side is only computed for Q and quadratic fields."""


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), with the standard conventions at n = -1, 0, 2."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def l_at_0(D: int) -> Fraction:
    """L(0, chi_D) as an exact rational: sum chi(a) * (1/2 - a/|D|) over
    one period.  Vanishes exactly for even characters (D > 0)."""
    if not is_fundamental(D) or abs(D) <= 1:
        raise InvariantsError(f"D={D} is not a fundamental discriminant with |D| > 1")
    m = abs(D)
    return sum(
        (kronecker(D, a) * (Fraction(1, 2) - Fraction(a, m)) for a in range(1, m)),
        Fraction(0),
    )


def l_prime_at_0(D: int) -> float:
    """L'(0, chi_D) for D > 0 fundamental, via Lerch:
    L'(0) = sum chi(a) * ln Gamma(a/D)."""
    if D <= 1 or not is_fundamental(D):
        raise InvariantsError(f"D={D} is not a fundamental discriminant > 1")
    return math.fsum(
        kronecker(D, a) * math.lgamma(a / D) for a in range(1, D) if kronecker(D, a)
    )


def dedekind_leading_at_0(inv: NumberFieldInvariants) -> tuple:
    """(ord, value): vanishing order and leading coefficient of zeta_F at
    s=0 for F of degree <= 2, from zeta_F = zeta * L(chi_D) and
    zeta(0) = -1/2.

    The order is decided by an exact rationality test on L(0): order 0
    when L(0) != 0, otherwise order 1 with the numeric L'(0).
    """
    if (inv.r1, inv.r2) == (1, 0):
        return 0, -0.5  # zeta(0) for Q itself
    if inv.r1 + 2 * inv.r2 != 2 or not is_fundamental(inv.disc) or abs(inv.disc) <= 1:
        raise AnalyticSideUnavailable(
            f"analytic side unavailable for degree {inv.r1 + 2 * inv.r2}, disc {inv.disc}"
        )
    l0 = l_at_0(inv.disc)
    if l0 != 0:
        return 0, float(-l0 / 2)
    return 1, -l_prime_at_0(inv.disc) / 2
