import math
from fractions import Fraction

import numpy as np
import pytest

from weilzeta.lfunc import (
    AnalyticSideUnavailable,
    character_table,
    dedekind_leading_at_0,
    l_at_0,
    l_prime_at_0,
)
from weilzeta.number_field import (
    InvariantsError,
    NumberFieldInvariants,
    RATIONALS,
    is_fundamental,
    quad_invariants,
)


def jacobi_oracle(a, n):
    """Textbook Jacobi symbol for odd n > 0, by quadratic reciprocity."""
    assert n > 0 and n % 2 == 1
    a %= n
    result = 1
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


def kronecker_oracle(a, n):
    """Kronecker symbol (a/n): the Jacobi symbol on the odd part of n,
    (a/2) = 0, 1, -1 for a even, a = +-1 and a = +-3 (mod 8), and
    (a/-1) = sign of a."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = -1 if n < 0 and a < 0 else 1
    n = abs(n)
    while n % 2 == 0:
        n //= 2
        result *= 0 if a % 2 == 0 else 1 if a % 8 in (1, 7) else -1
    return result * jacobi_oracle(a, n)


def test_kronecker_base_cases():
    assert character_table(-3).tolist() == [0, 1, -1]
    assert character_table(-4).tolist() == [0, 1, 0, -1]
    assert character_table(5).tolist() == [0, 1, -1, -1, 1]
    assert character_table(8).tolist() == [0, 1, 0, -1, 0, -1, 0, 1]
    assert character_table(-8).tolist() == [0, 1, 0, 1, 0, -1, 0, -1]
    assert character_table(12).tolist() == [0, 1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1]


def test_kronecker_matches_jacobi():
    # (D/n) for odd n > 0 is the Jacobi symbol
    for D in range(-200, 200):
        if abs(D) > 1 and is_fundamental(D):
            table = character_table(D)
            for n in range(1, 200, 2):
                assert table[n % abs(D)] == jacobi_oracle(D, n), (D, n)


def test_kronecker_multiplicative_in_top():
    # (D1 D2 / n) = (D1 / n)(D2 / n); for coprime fundamental D1, D2 the
    # product D1 D2 is fundamental again
    discs = [D for D in range(-60, 61) if abs(D) > 1 and is_fundamental(D)]
    for D1 in discs:
        for D2 in discs:
            if math.gcd(D1, D2) == 1:
                t1, t2, t12 = character_table(D1), character_table(D2), character_table(D1 * D2)
                for n in range(1, 60):
                    assert t12[n % abs(D1 * D2)] == t1[n % abs(D1)] * t2[n % abs(D2)], (D1, D2, n)


def test_kronecker_periodicity_fundamental():
    # chi_D(a) = (D/a) is periodic mod |D| for fundamental D, vanishes off
    # the units, and chi_D(-1) is the sign of D
    for D in (-3, -4, -7, -8, 5, 8, 12, 13):
        table = character_table(D)
        assert table[-1] == (1 if D > 0 else -1)
        for a in range(1, 1001):
            assert kronecker_oracle(D, a) == kronecker_oracle(D, a + abs(D)) == table[a % abs(D)]
            assert (table[a % abs(D)] == 0) == (math.gcd(a, abs(D)) > 1)


def test_character_table_matches_kronecker():
    # chi_D(a) = (D/a), for every a in one period and every fundamental D;
    # (D/a) is completely multiplicative in a, so the oracle runs at the
    # primes a and the products fill in the rest
    spf = list(range(5000))  # smallest prime factor
    for f in range(2, 71):
        for k in range(f * f, 5000, f):
            spf[k] = min(spf[k], f)
    for D in range(-4999, 5000):
        if abs(D) > 1 and is_fundamental(D):
            table = character_table(D)
            assert table.dtype == np.int8 and len(table) == abs(D)
            expected = [kronecker_oracle(D, 0), 1]
            for a in range(2, abs(D)):
                p = spf[a]
                expected.append(kronecker_oracle(D, p) if p == a else expected[p] * expected[a // p])
            assert table.tolist() == expected, D


def test_l_at_0_class_number_formula():
    # for imaginary quadratic fields L(0, chi_D) = 2h/w exactly: a second
    # oracle for the form enumeration that shares no code with it
    for D in range(-20_000, 0):
        if not is_fundamental(D):
            continue
        inv = quad_invariants(D)
        assert l_at_0(D) == Fraction(2 * inv.h, inv.w)


def test_l_at_0_vanishes_for_real_fields():
    for D in range(2, 60):
        if is_fundamental(D):
            assert l_at_0(D) == 0


def test_l_prime_at_0_class_number_formula():
    # for real quadratic fields L'(0, chi_D) = h * R
    for D in range(2, 3_001):
        if not is_fundamental(D):
            continue
        inv = quad_invariants(D)
        assert abs(l_prime_at_0(D) - inv.h * inv.R) <= 1e-8


def test_dedekind_leading_rationals():
    assert dedekind_leading_at_0(RATIONALS) == (0, -0.5)


def test_dedekind_leading_gaussian():
    # Q(i): h=1, w=4, zeta*(0) = -hR/w = -1/4
    ord_, value = dedekind_leading_at_0(quad_invariants(-4))
    assert ord_ == 0
    assert abs(value - (-0.25)) < 1e-15


def test_dedekind_leading_real_quadratic():
    # Q(sqrt 5): ord 1, zeta*(0) = -hR/w = -ln((1+sqrt5)/2)/2
    ord_, value = dedekind_leading_at_0(quad_invariants(5))
    assert ord_ == 1
    expected = -math.log((1 + math.sqrt(5)) / 2) / 2
    assert abs(value - expected) < 1e-12


def test_dedekind_matches_minus_h_r_over_w():
    for D in range(-50, 50):
        if D in (0, 1) or not is_fundamental(D):
            continue
        inv = quad_invariants(D)
        ord_, value = dedekind_leading_at_0(inv)
        assert ord_ == inv.unit_rank
        assert abs(value - (-inv.h * inv.R / inv.w)) < 1e-8


def test_dedekind_unavailable_for_higher_degree():
    cubic = NumberFieldInvariants(1, 1, 1, 0.5, 2, disc=-23)
    with pytest.raises(AnalyticSideUnavailable):
        dedekind_leading_at_0(cubic)


def test_l_at_0_rejects_non_fundamental():
    with pytest.raises(InvariantsError):
        l_at_0(-12)
    with pytest.raises(InvariantsError):
        l_prime_at_0(-3)
    for D in (1, -12, 9):
        with pytest.raises(InvariantsError):
            character_table(D)

