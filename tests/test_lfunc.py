import math
from fractions import Fraction
from math import gcd

import pytest

from weilzeta.lfunc import (
    AnalyticSideUnavailable,
    dedekind_leading_at_0,
    kronecker,
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


def test_kronecker_base_cases():
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(2, 0) == 0
    assert kronecker(5, -1) == 1
    assert kronecker(-5, -1) == -1
    assert kronecker(3, 2) == -1
    assert kronecker(7, 2) == 1
    assert kronecker(4, 2) == 0


def test_kronecker_matches_jacobi():
    for n in range(1, 200, 2):
        for a in range(-30, 30):
            assert kronecker(a, n) == jacobi_oracle(a, n)


def test_kronecker_multiplicative_in_top():
    for n in range(1, 60):
        for a in range(1, 30):
            for b in range(1, 30):
                assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_kronecker_periodicity_fundamental():
    # chi_D(a) = (D/a) is periodic mod |D| for fundamental D
    for D in (-3, -4, -7, -8, 5, 8, 12, 13):
        for a in range(1, 1001):
            assert kronecker(D, a) == kronecker(D, a + abs(D))
            if gcd(a, abs(D)) > 1:
                assert kronecker(D, a) == 0


def test_l_at_0_class_number_formula():
    # for imaginary quadratic fields L(0, chi_D) = 2h/w exactly
    for D in range(-50, 0):
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
    for D in range(2, 50):
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

