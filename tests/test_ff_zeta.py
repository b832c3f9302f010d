import dataclasses
import hashlib
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import gcd

import numpy as np
import pytest

from weilzeta import ff_zeta
from weilzeta.acceptance import curve_panel
from weilzeta.ff_zeta import (
    COUNT_BOUND,
    CurveSpec,
    ProjectiveSpace,
    ZetaRational,
    count_points,
    curve_class_number,
    expected_counts,
    hasse_bound_holds,
    is_prime,
    legendre,
    make_field,
    prime_power,
    special_value_s0,
    verify_ff,
    zeta_curve,
    zeta_pn,
    _is_irreducible,
    _log_tables,
    _poly_mulmod,
    _poly_rem,
    _poly_trim,
)
from weilzeta.reports import SymbolicValue


# ---------------------------------------------------------------------------
# independent oracles

def poly_divides(d, f, p):
    """Does monic d divide f over F_p? Plain long division."""
    r = [c % p for c in f]
    while len(r) >= len(d) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(d):
            break
        c = r[-1]
        shift = len(r) - len(d)
        for i, di in enumerate(d):
            r[shift + i] = (r[shift + i] - c * di) % p
    return not any(r)


def irreducible_oracle(f, p):
    """Monic f is irreducible iff no monic divisor of degree 1..deg-1."""
    k = len(f) - 1
    for deg in range(1, k):
        for tail in product(range(p), repeat=deg):
            d = list(tail) + [1]
            if poly_divides(d, f, p):
                return False
    return True


def affine_count_oracle(f, p):
    """Count {(x, y) in F_p^2 : y^2 = f(x)} by direct enumeration."""
    total = 0
    for x in range(p):
        fx = sum(c * x**i for i, c in enumerate(f)) % p
        total += sum(1 for y in range(p) if (y * y - fx) % p == 0)
    return total


def exp_table(log):
    """The inverse of a log table over all of F_q (log 0 = 2(q-1)), laid
    out as g^i at i and at i + q-1 for 0 <= i < q-1, then q-1 zeros, so
    exp[log a + i] = a g^i for every a, 0 included.  A slot no log points
    at stays 0."""
    q = len(log)
    n = q - 1
    exp = np.zeros(3 * n, dtype=np.int64)
    exp[log[1:]] = np.arange(1, q)
    exp[n : 2 * n] = exp[:n]
    return exp


def full_log(field):
    """The q-entry log of F_q that make_field builds and then cuts down
    to the p logs of F_p."""
    log, _ = _log_tables(field.p, field.k, list(field.modulus))
    return log


def prime_sieve(n):
    """Is-prime flags for 0..n by the sieve of Eratosthenes."""
    flags = [True] * (n + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(flags[i * i :: i])
    return flags


def ext_mul(a, b, mod, p):
    """Product of two coefficient tuples modulo the monic mod over F_p,
    by schoolbook multiplication and reduction from the top degree."""
    k = len(mod) - 1
    out = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    for d in range(2 * k - 2, k - 1, -1):
        c = out[d]
        for i in range(k):
            out[d - k + i] -= c * mod[i]
    return tuple(c % p for c in out[:k])


def ext_affine_count_oracle(f, p, mod):
    """Count {(x, y) in F_{p^k}^2 : y^2 = f(x)} by direct enumeration,
    with F_{p^k} = F_p[t]/(mod)."""
    k = len(mod) - 1
    field = list(product(range(p), repeat=k))
    squares = Counter(ext_mul(y, y, mod, p) for y in field)
    total = 0
    for x in field:
        fx = (0,) * k
        for c in reversed(f):
            fx = ext_mul(fx, x, mod, p)
            fx = ((fx[0] + c) % p,) + fx[1:]
        total += squares[fx]
    return total


def irreducible_monics(p, d):
    """The monic irreducibles u of degree d <= 3 over F_p, as the d
    columns u_0..u_(d-1) of their lower coefficients: every monic of
    degree d but the products (t - r) v, v monic of degree d - 1, which
    for d <= 3 are all the reducible ones."""
    reducible = np.zeros(p**d, dtype=bool)
    if d > 1:
        r = np.arange(p, dtype=np.int64)[:, None]
        codes = np.arange(p ** (d - 1), dtype=np.int64)
        v = [codes // p**j % p for j in range(d - 1)] + [np.ones_like(codes)]
        # (t - r) v has coefficient v_(j-1) - r v_j at t^j
        product_code = sum((low - r * v[j]) % p * p**j
                           for j, low in enumerate([0] + v[:-1]))
        reducible[product_code.ravel()] = True
    codes = np.flatnonzero(~reducible)
    # Gauss: (1/d) sum_{e | d} mu(e) p^(d/e) monic irreducibles
    assert len(codes) == {1: p, 2: (p * p - p) // 2, 3: (p**3 - p) // 3}[d]
    return [codes // p**j % p for j in range(d)]


def closed_point_count_oracle(f, p, m):
    """N_m of y^2 = f(x) over F_p, deg f odd, by closed points of the
    x-line: x in F_{p^m} of degree d over F_p has a minimal polynomial u,
    and chi_{p^m}(f(x)) = chi_p(Res(u, f))^(m/d), so
    N_m = p^m + 1 + sum_{d | m} d sum_u chi_p(Res(u, f))^(m/d).  No
    modulus, generator, log or Frobenius orbit of F_{p^m} is used.
    Res(u, f), u monic, is the norm of f(a) in F_p[a]/(u): the
    determinant of multiplication by f(a) in the basis 1, a, .., a^(d-1)."""
    is_square = np.zeros(p, dtype=bool)
    is_square[np.arange(p, dtype=np.int64) ** 2 % p] = True
    total = p**m + 1
    for d in (d for d in (1, 2, 3) if m % d == 0):
        u = irreducible_monics(p, d)

        def times_a(e):  # a^d = -(u_0 + .. + u_(d-1) a^(d-1))
            return [(low - e[-1] * uj) % p for low, uj in zip([0] + e[:-1], u)]

        fa = [np.zeros_like(u[0]) for _ in range(d)]
        for c in reversed(f):
            fa = times_a(fa)
            fa[0] = (fa[0] + c) % p
        cols = [fa]
        for _ in range(d - 1):
            cols.append(times_a(cols[-1]))
        norm = 0
        for perm in permutations(range(d)):
            sign = (-1) ** sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
            term = 1
            for col, row in enumerate(perm):
                term = term * cols[col][row] % p
            norm = norm + sign * term
        norm %= p
        chi = np.where(norm == 0, 0, np.where(is_square[norm], 1, -1))
        total += d * int((chi ** (m // d)).sum())
    return total

def counts_series_oracle(zeta, terms):
    """N_1..N_terms of Z(t) from its Fraction power series: Z is the
    product of the numerator factors times the series inverse of each
    denominator factor, and Z' = Z * sum_m N_m t^(m-1) gives
    N_m = m z_m - sum_{0<i<m} N_i z_{m-i}."""
    z = [Fraction(1)] + [Fraction(0)] * terms
    for f in zeta.numerator_factors:
        z = [sum(f[i] * z[m - i] for i in range(min(m, len(f) - 1) + 1)) for m in range(terms + 1)]
    for f in zeta.denominator_factors:
        # w = z / f: f_0 = 1, so w_m = z_m - sum_{0<i<=m} f_i w_{m-i}
        w = []
        for m in range(terms + 1):
            w.append(z[m] - sum(f[i] * w[m - i] for i in range(1, min(m, len(f) - 1) + 1)))
        z = w
    counts = []
    for m in range(1, terms + 1):
        counts.append(m * z[m] - sum(counts[i - 1] * z[m - i] for i in range(1, m)))
    return counts


# ---------------------------------------------------------------------------
# fields

def test_is_prime_and_prime_power():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            prime_power(bad)


def test_make_field_minimal_modulus():
    assert make_field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert make_field(5, 1).modulus == (0, 1)


def test_make_field_modulus_is_lex_minimal_irreducible():
    for p, k in ((2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)):
        field = make_field(p, k)
        mod = list(field.modulus)
        assert mod[-1] == 1 and len(mod) == k + 1
        assert irreducible_oracle(mod, p)
        # nothing lexicographically smaller (constant term first) works
        idx = sum(c * p**j for j, c in enumerate(mod[:-1]))
        for smaller in range(idx):
            cand = [(smaller // p**j) % p for j in range(k)] + [1]
            assert not irreducible_oracle(cand, p)


def test_is_irreducible_matches_oracle():
    cases = [(2, k) for k in (1, 2, 3, 4, 5, 6)] + [(3, k) for k in (1, 2, 3, 4)]
    cases += [(p, k) for p in (5, 7) for k in (1, 2, 3)]
    for p, k in cases:
        for tail in product(range(p), repeat=k):
            f = list(tail) + [1]
            assert _is_irreducible(f, p) == irreducible_oracle(f, p), (p, f)
    # over F_2, degree 6 without a factor of degree <= 2: only the d = 3
    # step of Ben-Or's test sees the cubic factors
    cubic, other = [1, 1, 0, 1], [1, 0, 1, 1]  # x^3 + x + 1, x^3 + x^2 + 1
    assert _is_irreducible(cubic, 2) and _is_irreducible(other, 2)
    assert not _is_irreducible([1, 0, 1, 0, 0, 0, 1], 2)  # cubic^2
    assert not _is_irreducible([1] * 7, 2)  # cubic * other


def test_poly_rem_divides_out():
    rng = random.Random(30)
    for p in (2, 3, 5, 7, 101):
        for _ in range(200):
            b = [rng.randrange(p) for _ in range(rng.randint(0, 5))] + [rng.randrange(1, p)]
            a = [rng.randrange(p) for _ in range(rng.randint(0, 10))]
            monic = [c * pow(b[-1], p - 2, p) % p for c in b]
            for x in (a, [], [0, 0], a[:len(b) - 1]):  # zero, and deg x < deg b
                r = _poly_rem(x, b, p)
                assert len(r) < len(b) and r == _poly_trim(list(r))
                diff = [(u - v) % p for u, v in zip(x + [0] * len(b), r + [0] * len(x))]
                assert poly_divides(monic, diff, p), (p, x, b, r)


def test_make_field_caching_and_bounds(monkeypatch):
    # a field is kept from its second request on: the first leaves a marker
    monkeypatch.setattr(ff_zeta, "_FIELD_CACHE", {})
    once = make_field(3, 2)
    assert ff_zeta._FIELD_CACHE == {(3, 2): None}
    kept = make_field(3, 2)
    assert kept is not once and make_field(3, 2) is kept
    assert ff_zeta._FIELD_CACHE == {(3, 2): kept}
    # the same count whether the field was marked, kept or served
    curve = CurveSpec(11, (1, 1, 0, 0, 0, 1))
    counts = [count_points(curve, 3) for _ in range(3)]
    assert counts == [closed_point_count_oracle(curve.f, 11, 3)] * 3
    assert ff_zeta._FIELD_CACHE[(11, 3)] is not None
    # a genus-2 curve with p^2 > COUNT_BOUND counts N_1 and N_2, and N_2
    # reads the norm to F_p: no field is built
    ff_zeta._FIELD_CACHE.clear()
    primes = [p for p in range(257, 1022) if is_prime(p)][:10]
    for p in primes:
        verify_ff(CurveSpec(p, (1, 1, 0, 0, 0, 1)))
    assert ff_zeta._FIELD_CACHE == {}
    with pytest.raises(ValueError, match=f"^p\\^k = {2**21} exceeds {ff_zeta.SIZE_BOUND}$"):
        make_field(2, 21)
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(3, 0)


def test_field_is_one_frozen_record():
    field = make_field(5, 2)
    assert [f.name for f in dataclasses.fields(field)] == [
        "p", "k", "modulus", "log", "zech", "reps", "sizes"]
    assert field.q == 25 and field.modulus == (2, 0, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        field.log = None
    for table in (field.log, field.zech, field.reps, field.sizes):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1


def test_legendre_is_euler_criterion():
    for p in (3, 5, 7, 11, 13, 101, 1009):
        want = [0] + [1 if pow(a, (p - 1) // 2, p) == 1 else -1 for a in range(1, p)]
        table = legendre(p)
        assert table.dtype == "int8" and table.tolist() == want


def table_digest(*tables, head=b""):
    """sha256 over each table's dtype and bytes, after ``head``."""
    h = hashlib.sha256(head)
    for table in tables:
        h.update(table.dtype.str.encode() + table.tobytes())
    return h.hexdigest()


# sha256 of (modulus, log, zech, reps, sizes) of make_field(p, k), taken
# from the whole-array builder that preceded the blocked one
FIELD_DIGESTS = {
    (2, 4): "b40cc2804b060c94c1e66df766af17bb8f8d46a13aa244b105e7094df08d25b2",
    (3, 5): "85f275f66d477b7e34dbb8650db2eea439312f834e3932d2cbd62e47fffc69ae",
    (65537, 1): "bb0c86ff84b9bba3a66434a017f11e685c26d279f6ffff5dcebd37c582a8cc5d",
    (1021, 2): "df392b3516b70faa85a19457f485f23979bdde0fcde39857c3b829b770fd53d4",
    (101, 3): "a5638b2c147b0fc588d68f86c21d826b8d189a5b5b0502e9b444073bcdeb966b",
    (31, 4): "9b13864d0ffcbad898ef8acbfc80ab26fdda83c1c33f8a1104c6f2c51d2f413a",
}


@pytest.mark.parametrize("p, k", sorted(FIELD_DIGESTS))
def test_field_tables_are_bit_identical(p, k):
    field = make_field(p, k)
    digest = table_digest(field.log, field.zech, field.reps, field.sizes,
                          head=repr(field.modulus).encode())
    assert digest == FIELD_DIGESTS[(p, k)]


def test_legendre_table_is_bit_identical():
    assert table_digest(legendre(1048573)) == (
        "c6a651d1300bcd877941c48d317e783412305d9474ef478b25c25c43a07645f9")


def test_legendre_table_is_kept_from_its_second_request(monkeypatch):
    monkeypatch.setattr(ff_zeta, "_LEGENDRE_CACHE", {})
    first = legendre(1009)
    assert ff_zeta._LEGENDRE_CACHE == {1009: None}
    second = legendre(1009)  # built again, and kept
    assert second is not first and ff_zeta._LEGENDRE_CACHE[1009] is second
    assert legendre(1009) is second
    assert first.tolist() == second.tolist()
    for table in (first, second):
        with pytest.raises(ValueError, match="read-only"):
            table[1] = -1


def test_marked_and_kept_legendre_tables_give_the_same_values(monkeypatch):
    # count_points and character_table each read the table built and
    # marked, built and kept, then kept; 1009 is prime and 1 mod 4, so it
    # is a fundamental discriminant whose character is the Legendre symbol
    from weilzeta.lfunc import character_table
    curve = CurveSpec(1009, (3, 1, 0, 1))
    for read, want in ((lambda: count_points(curve, 1), affine_count_oracle(curve.f, 1009) + 1),
                       (lambda: character_table(1009).tolist(), legendre(1009).tolist())):
        monkeypatch.setattr(ff_zeta, "_LEGENDRE_CACHE", {})
        assert [read() for _ in range(3)] == [want] * 3
        assert ff_zeta._LEGENDRE_CACHE[1009] is not None


def traced_peak(fn):
    """The peak of memory traced by tracemalloc while fn() runs, MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("p, k", [(1021, 2), (101, 3), (31, 4)])
def test_cold_field_build_keeps_transients_to_blocks(monkeypatch, p, k):
    # the whole-array builder peaked at 35.8, 46.7 and 52.6 MiB here
    monkeypatch.setattr(ff_zeta, "_FIELD_CACHE", {})
    assert traced_peak(lambda: make_field(p, k)) < 20


def test_prime_field_count_keeps_transients_to_blocks():
    # the whole-array count peaked at 25.0 MiB
    assert traced_peak(lambda: count_points(CurveSpec(1048573, (1, 1, 0, 1)), 1)) < 4


@pytest.mark.parametrize("p, m, f", [(1021, 2, (1, 1, 0, 0, 0, 1)),
                                     (101, 3, (1, 1, 0, 0, 0, 0, 0, 1))])
def test_extension_count_keeps_transients_to_blocks(monkeypatch, p, m, f):
    # the whole-array count over a cached field peaked at 7.96 and 5.24 MiB;
    # m = 2 reads no field, so the bound holds its blocks of rows
    monkeypatch.setattr(ff_zeta, "_FIELD_CACHE", {})
    if m > 2:
        make_field(p, m)
        make_field(p, m)  # kept from here on
    assert traced_peak(lambda: count_points(CurveSpec(p, f), m)) < 1


def test_is_prime_against_sieve():
    flags = prime_sieve(10**5)
    assert [n for n in range(10**5 + 1) if is_prime(n)] == [
        n for n, prime in enumerate(flags) if prime
    ]


def test_is_prime_pseudoprimes():
    # Carmichael numbers, and the smallest strong pseudoprime to 2, 3, 5, 7
    for n in (561, 41041, 3215031751):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(10**18 + 3)
    assert not is_prime((2**31 - 1) * (2**61 - 1))


def test_prime_power_exact_roots():
    assert prime_power(2**61 - 1) == (2**61 - 1, 1)
    assert prime_power(3**40) == (3, 40)
    assert prime_power(1000003**2) == (1000003, 2)
    assert prime_power(10**18 + 3) == (10**18 + 3, 1)
    for bad in (12, 1, 1000003**2 * 2, (10**9 + 7) * (10**9 + 9)):
        with pytest.raises(ValueError, match="is not a prime power"):
            prime_power(bad)


def test_prime_power_refuses_huge_q_in_bounded_time():
    # one Miller-Rabin base costs seconds at 10^4 bits: q >= 2^1024 is
    # refused before any Miller-Rabin round, and the search below
    # the bound is unchanged
    for huge in (2**1024, 10**4000 + 1, 2**13000):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="is not supported"):
            prime_power(huge)
        assert time.perf_counter() - start < 1.0
    assert prime_power(2**1023) == (2, 1023)
    with pytest.raises(ValueError, match="is not a prime power"):
        prime_power(2**1024 - 1)


def test_every_prime_input_refuses_huge_numbers_in_bounded_time():
    # is_prime refuses n >= 2^1024 before any Miller-Rabin base, so a
    # curve's p, a field's p and a report's log base all end at once
    for huge in (2**12999 + 1, 10**4000 + 1):  # 13,000 and 13,288 bits
        value = {"mantissa": "1", "log_exponents": {str(huge): 1}, "real_factor": 1.0}
        for refuse in (lambda: CurveSpec(huge, (1, 1, 0, 1)),
                       lambda: make_field(huge, 1),
                       lambda: SymbolicValue.from_json(value)):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="is not supported"):
                refuse()
            assert time.perf_counter() - start < 1.0


def test_field_multiplication_against_modular_arithmetic():
    # exp[log a + log b] = a b over the full log, against polynomial
    # products mod the modulus
    for p, k in ((3, 2), (5, 2), (3, 3)):
        field = make_field(p, k)
        log = full_log(field)
        exp = exp_table(log)

        def decode(code):
            return [(code // p**j) % p for j in range(k)]

        for a in range(field.q):
            for b in range(1, field.q):
                expected = _poly_mulmod(decode(a), decode(b), field.modulus, p)
                got = decode(int(exp[log[a] + log[b]]))
                assert got[: len(expected)] == expected and not any(got[len(expected):])


def test_zech_table_against_modular_arithmetic():
    # g^zech[j] = 1 + g^j in polynomial arithmetic mod the modulus for
    # every 0 <= j < n, with the sentinel once, exactly where 1 + g^j = 0
    # (j = log(-1)), and 0 in the last slot n
    for p, k in ((3, 2), (5, 2), (3, 3), (7, 2), (2, 4), (3, 1), (7, 1)):
        field = make_field(p, k)
        n = field.q - 1
        zech, log = field.zech, full_log(field)
        g = [(int(exp_table(log)[1]) // p**j) % p for j in range(k)]
        powers = [[1]]
        for _ in range(n - 1):
            powers.append(_poly_mulmod(powers[-1], g, field.modulus, p))
        assert len(zech) == n + 1 and zech[n] == 0
        for j in range(n):
            one_plus = (powers[j] + [0] * k)[:k]
            one_plus[0] = (one_plus[0] + 1) % p
            if not any(one_plus):
                assert zech[j] == ff_zeta._ZERO_LOG and j == (0 if p == 2 else n // 2)
            else:
                assert 0 <= zech[j] < n and _poly_trim(one_plus) == powers[zech[j]]
        assert np.flatnonzero(zech == ff_zeta._ZERO_LOG).tolist() == [log[p - 1]]
        with pytest.raises(ValueError, match="read-only"):
            zech[0] = 0
    # count_points takes less than n < SIZE_BOUND off the sentinel per
    # Horner step, at most 7 steps for deg f <= 7, and adds less than 2n
    bound = ff_zeta.SIZE_BOUND
    assert ff_zeta._ZERO_LOG - 7 * bound > 2**29 > bound
    assert ff_zeta._ZERO_LOG + 2 * bound < 2**32


def test_log_exp_tables_and_root_counts():
    # the full log is a bijection F_q^* -> [0, q-2] with inverse exp, g
    # has order q - 1, the field keeps its first p entries (the logs of
    # F_p) and a zech table of length q, and the root counts 1 (v = 0),
    # 2 (log v even), 0 (log v odd) sum to q
    for p, k in ((3, 1), (3, 2), (5, 1), (7, 2), (3, 5)):
        field = make_field(p, k)
        q = field.q
        log, zech = full_log(field), field.zech
        exp = exp_table(log)
        assert log.dtype == field.log.dtype == zech.dtype == "int32"
        assert len(log) == q and len(field.log) == p and len(zech) == q
        assert (field.log == log[:p]).all()
        assert sorted(exp[: q - 1].tolist()) == list(range(1, q))
        assert (exp[log[1:]] == list(range(1, q))).all()
        assert (log[exp[: q - 1]] == list(range(q - 1))).all()
        assert exp[0] == 1 and log[0] == 2 * (q - 1) and zech[q - 1] == 0
        roots = [1] + [2 if log[v] % 2 == 0 else 0 for v in range(1, q)]
        assert sum(roots) == q


def test_frobenius_orbits_partition():
    # the orbits of i -> p i mod (q-1) partition 0..q-2; each is listed
    # once, by its smallest member, with its exact size
    for p, k in ((3, 2), (5, 2), (3, 3), (3, 4), (3, 6), (7, 3)):
        field = make_field(p, k)
        n = field.q - 1
        reps, sizes = field.reps, field.sizes
        assert reps.dtype == "int32" and sizes.dtype == "int8" and len(reps) == len(sizes)
        assert (np.diff(reps) > 0).all()
        for i, size in zip(reps.tolist(), sizes.tolist()):
            orbit = {i * p**j % n for j in range(k)}
            assert i == min(orbit) and size == len(orbit) and k % size == 0
        assert int(sizes.sum()) == n


def test_primitive_element_is_smallest():
    for p, k in ((3, 2), (5, 2), (7, 1), (11, 1), (3, 3), (2, 1), (2, 4)):
        field = make_field(p, k)
        log = full_log(field)
        g = int(exp_table(log)[1])
        assert (field.log == log[:p]).all()
        # g^j has order q - 1 iff gcd(j, q - 1) = 1: no smaller element does
        assert all(gcd(int(log[a]), field.q - 1) > 1 for a in range(1, g))
        assert gcd(int(log[g]), field.q - 1) == 1


# ---------------------------------------------------------------------------
# point counts

def test_count_points_projective_space():
    # #P^n(F_{q^m}) = sum_{i<=n} q^(m i), read off Z(t)
    assert expected_counts(zeta_pn(ProjectiveSpace(4, 1)), 1) == [5]
    assert expected_counts(zeta_pn(ProjectiveSpace(2, 2)), 1) == [7]
    assert expected_counts(zeta_pn(ProjectiveSpace(3, 0)), 5)[4] == 1
    assert expected_counts(zeta_pn(ProjectiveSpace(2, 2)), 2)[1] == 1 + 4 + 16
    with pytest.raises(TypeError):
        count_points(ProjectiveSpace(2, 2))


def test_count_points_curve_against_oracle():
    curves = [
        CurveSpec(3, (0, 1, 0, 1)),       # y^2 = x^3 + x
        CurveSpec(5, (0, -1, 0, 1)),      # y^2 = x^3 - x
        CurveSpec(7, (1, 1, 0, 1)),       # y^2 = x^3 + x + 1
        CurveSpec(5, (1, 1, 0, 0, 0, 1)), # y^2 = x^5 + x + 1
        CurveSpec(11, (2, 3, 0, 1)),
    ]
    for c in curves:
        assert count_points(c, 1) == affine_count_oracle(c.f, c.p) + 1


def test_count_points_extension_against_oracle():
    # brute force over F_{p^m} with the oracle's own arithmetic, modulo
    # the field's minimal modulus; at m = 4 and 6 the proper subfields
    # F_{p^2} and F_{p^3} give Frobenius orbits shorter than m.  The
    # tails with f(0) = 0 end Horner on a zero coefficient, and in x^3 + x
    # and x^5 + x the linear coefficient is the last nonzero one, so its
    # step shifts by log 1
    tails = ((1, 1, 0), (1, 2, 0), (2, 0, 1), (3, 1, 1), (1, 0, 0, 0, 1),
             (0, 1, 0), (0, 1, 1), (0, 2, 0, 0, 1), (0, 1, 0, 0, 0))
    for p, m in ((3, 2), (5, 2), (3, 3), (7, 2), (11, 2), (3, 4), (5, 4), (3, 6)):
        mod = make_field(p, m).modulus
        checked = 0
        for lead in range(1, p):
            for tail in tails:
                try:
                    c = CurveSpec(p, tail + (lead,))
                except ValueError:
                    continue
                assert count_points(c, m) == ext_affine_count_oracle(c.f, p, mod) + 1
                checked += 1
        assert checked >= 5


def test_count_points_zero_accumulator_against_oracle():
    # f = x^7 + a x^6 + 1: Horner's accumulator x + a is 0 at x = -a, and
    # five zero coefficients follow, so the sentinel log of 0 runs through
    # five reductions before the constant 1 clips it onto zech[n] = 0
    for p, m in ((3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (3, 6)):
        mod = make_field(p, m).modulus
        checked = 0
        for a in range(1, p):
            try:
                c = CurveSpec(p, (1, 0, 0, 0, 0, 0, a, 1))
            except ValueError:  # not squarefree mod p
                continue
            assert count_points(c, m) == ext_affine_count_oracle(c.f, p, mod) + 1
            checked += 1
        assert checked >= 1


def test_closed_point_oracle_against_enumeration():
    # the oracle itself, against brute force over F_{p^m}
    for p, m in ((3, 2), (5, 2), (3, 3), (7, 2), (5, 3)):
        mod = make_field(p, m).modulus
        for f in ((1, 1, 0, 1), (1, 2, 0, 0, 0, 1), (2, 0, 1, 0, 0, 0, 0, 1)):
            try:
                c = CurveSpec(p, f)
            except ValueError:
                continue
            assert closed_point_count_oracle(c.f, p, m) == ext_affine_count_oracle(c.f, p, mod) + 1


@pytest.mark.parametrize("p, m", [(1021, 2), (101, 3), (661, 2), (79, 3)])
def test_count_points_full_size_against_closed_points(p, m):
    # full-size fields, far past the enumeration oracles (q <= 729);
    # 661^2 and 79^3 are the largest warm sizes of the ff_curves benchmark
    for f in ((1, 1, 0, 1), (3, 0, 2, 0, 0, 1), (5, 1, 0, 0, 0, 0, 7, 1), (0, 4, 0, 3, 0, 1)):
        c = CurveSpec(p, f)
        assert count_points(c, m) == closed_point_count_oracle(c.f, p, m)


def test_quadratic_count_builds_no_field(monkeypatch):
    # N_2 through the norm to F_p, on every prime 3 <= p < 60 and genus
    # 1-3, against closed points: monic and not, f(0) = 0, and f with
    # roots in F_p, where the row b = 0 has chi = 0
    def refuse(p, k):
        raise AssertionError(f"F_{p}^{k} built")

    monkeypatch.setattr(ff_zeta, "make_field", refuse)
    rng = random.Random(34)
    for p in filter(is_prime, range(3, 60)):
        shapes = Counter()
        for deg in (3, 5, 7):
            for lead in (1, rng.randrange(2, p) if p > 3 else 2):
                for low in ((0,), (0, 1), (rng.randrange(1, p),), ()):
                    f = list(low) + [rng.randrange(p) for _ in range(deg - len(low))] + [lead]
                    try:
                        c = CurveSpec(p, tuple(f))
                    except ValueError:  # not squarefree mod p
                        continue
                    assert count_points(c, 2) == closed_point_count_oracle(c.f, p, 2), (p, f)
                    roots = sum(sum(a * x**i for i, a in enumerate(c.f)) % p == 0 for x in range(p))
                    shapes.update({"non-monic": lead != 1, "f(0) = 0": c.f[0] % p == 0,
                                   "root in F_p": roots > 0, f"genus {c.genus}": True})
        assert all(shapes[s] for s in ("non-monic", "f(0) = 0", "root in F_p",
                                       "genus 1", "genus 2", "genus 3")), (p, shapes)


def test_count_points_extension_consistency():
    # N_m computed by the field machinery must match the zeta prediction
    c = CurveSpec(3, (0, 1, 0, 1))
    zeta = zeta_curve(c, [count_points(c, 1)])
    assert expected_counts(zeta, 6) == [count_points(c, m) for m in range(1, 7)]


def test_prime_field_count_matches_log_tables():
    # residues over F_p against Horner on the log tables of F_p, as over
    # F_{p^m}: x = g^i, and y^2 = v has 2 roots if log v is even
    for p in (1009, 65537, 1048573):
        field = make_field(p, 1)
        log, exp = field.log, exp_table(field.log)  # for k = 1, log covers F_q
        i = np.arange(p - 1)
        for f in ((1, 1, 0, 1), (3, 0, 2, 0, 0, 1), (0, 5, 0, 1, 0, 0, 0, 2)):
            acc = np.full(p - 1, f[-1])
            for c in reversed(f[:-1]):
                acc = (exp[log[acc] + i] + c) % p
            fx = np.append(acc, f[0])
            affine = 2 * np.count_nonzero(log[fx] % 2 == 0) - np.count_nonzero(fx == 0)
            assert count_points(CurveSpec(p, f), 1) == affine + 1


def test_count_points_size_bound():
    with pytest.raises(ValueError, match=f"^q\\^m = {3**13} exceeds {ff_zeta.SIZE_BOUND}$"):
        count_points(CurveSpec(3, (0, 1, 0, 1)), m=13)
    with pytest.raises(ValueError, match=f"^q\\^m = 1048583 exceeds {ff_zeta.SIZE_BOUND}$"):
        count_points(CurveSpec(1048583, (1, 1, 0, 1)), 1)  # the first prime above 2^20
    with pytest.raises(ValueError):
        count_points(CurveSpec(3, (0, 1, 0, 1)), m=0)


# ---------------------------------------------------------------------------
# curve specs

def test_curve_spec_properties():
    c = CurveSpec(5, (0, -1, 0, 1))
    assert c.genus == 1
    c = CurveSpec(5, (1, 1, 0, 0, 0, 1))
    assert c.genus == 2


def test_curve_spec_rejects_singular():
    with pytest.raises(ValueError, match=re.escape("f = (0, 0, 0, 1) is not squarefree mod 5")):
        CurveSpec(5, (0, 0, 0, 1))  # y^2 = x^3, cusp
    with pytest.raises(ValueError, match=re.escape("f = (2, -3, 0, 1) is not squarefree mod 7")):
        CurveSpec(7, (2, -3, 0, 1))  # (x-1)^2 (x+2)


def test_curve_spec_rejects_bad_degree_and_char():
    with pytest.raises(ValueError):
        CurveSpec(2, (1, 1, 0, 1))
    with pytest.raises(ValueError):
        CurveSpec(5, (1, 1, 0, 0, 1))  # degree 4
    # leading coefficient divisible by p drops the degree
    with pytest.raises(ValueError):
        CurveSpec(5, (1, 1, 0, 0, 0, 5))


# ---------------------------------------------------------------------------
# zeta functions

def test_projective_space_holds_p_and_k():
    space = ProjectiveSpace(9, 2)
    assert (space.p, space.k) == (3, 2)
    assert repr(space) == "ProjectiveSpace(q=9, n=2)" and space == ProjectiveSpace(9, 2)
    assert CurveSpec(5, (0, -1, 0, 1)).k == 1


def test_zeta_pn_structure():
    zeta = zeta_pn(ProjectiveSpace(3, 2))
    assert zeta.numerator_factors == ()
    assert zeta.denominator_factors == ((1, -1), (1, -3), (1, -9))
    assert expected_counts(zeta, 3) == [13, 91, 757]


def zeta_from_counts(c):
    return zeta_curve(c, [count_points(c, m) for m in range(1, c.genus + 1)])


def test_zeta_curve_known_elliptic():
    # y^2 = x^3 + x over F_3: N_1 = 4, P(t) = 1 + 3t^2 (a_1 = 0)
    c = CurveSpec(3, (0, 1, 0, 1))
    assert count_points(c, 1) == 4
    assert zeta_curve(c, [4]).numerator_factors == ((1, 0, 3),)
    # y^2 = x^3 - x over F_5: N_1 = 8, P(t) = 1 + 2t + 5t^2
    c = CurveSpec(5, (0, -1, 0, 1))
    assert count_points(c, 1) == 8
    zeta = zeta_curve(c, [8])
    assert zeta.numerator_factors == ((1, 2, 5),)
    assert curve_class_number(zeta) == 8


def test_zeta_curve_reads_only_the_first_genus_counts():
    c = CurveSpec(5, (0, -1, 0, 1))
    assert zeta_curve(c, [8, 0, 1]) == zeta_curve(c, [8])
    # genus 2, q = 7: a_2 = ((N_1 - 8)^2 + N_2 - 50) / 2 is not an integer,
    # so the Z(t) rebuilt from these counts does not reproduce them
    assert expected_counts(zeta_curve(CurveSpec(7, (1, 2, 0, 0, 0, 1)), [8, 51]), 2) != [8, 51]


def fraction_recursion_is_integral(curve, counts):
    """Whether m a_m = sum_{i<=m} c_i a_{m-i}, c_i = N_i - 1 - q^i, run in
    Fractions on N_1..N_g gives integers a_1..a_g."""
    q, a = curve.p, [Fraction(1)]
    for m in range(1, curve.genus + 1):
        a.append(sum((counts[i - 1] - 1 - q**i) * a[m - i] for i in range(1, m + 1)) / m)
    return all(x.denominator == 1 for x in a)


def test_zeta_curve_reproduces_exactly_the_counts_of_an_integral_recursion():
    # every N_m, m <= g, moved by -2..2: Z(t) gives the counts back exactly
    # when the recursion in Fractions is integral, and a wrong N_m otherwise
    outcomes = Counter()
    for p in (3, 5, 7, 11, 13):
        for deg in (3, 5, 7):
            curves = []
            for b, a in product(range(p), repeat=2):
                try:
                    curves.append(CurveSpec(p, (b, a) + (0,) * (deg - 2) + (1,)))
                except ValueError:  # not squarefree mod p
                    continue
                if len(curves) == 3:
                    break
            for c in curves:
                g = c.genus
                exact = [count_points(c, m) for m in range(1, g + 1)]
                for deltas in product(range(-2, 3), repeat=g):
                    counts = [n + d for n, d in zip(exact, deltas)]
                    integral = fraction_recursion_is_integral(c, counts)
                    reproduced = expected_counts(zeta_curve(c, counts), g) == counts
                    assert reproduced == integral, (c, counts)
                    outcomes[g, integral] += 1
    # genus 1 is always integral; genus 2 and 3 meet both outcomes
    assert set(outcomes) == {(1, True), (2, True), (2, False), (3, True), (3, False)}


def functional_equation_holds(zeta, q, genus):
    """P(t) = q^g t^(2g) P(1/(qt)) as an exact polynomial identity."""
    (p_coeffs,) = zeta.numerator_factors
    g = genus
    return len(p_coeffs) == 2 * g + 1 and all(
        p_coeffs[2 * g - i] * q**i == q**g * p_coeffs[i] for i in range(2 * g + 1))


def test_zeta_curve_functional_equation_and_hasse():
    for c in (
        CurveSpec(3, (0, 1, 0, 1)),
        CurveSpec(5, (0, -1, 0, 1)),
        CurveSpec(3, (1, 0, 1, 0, 0, 1)),
        CurveSpec(7, (1, 2, 0, 0, 0, 1)),
        CurveSpec(5, (1, 0, 1, 0, 0, 0, 0, 1)),  # genus 3
        *curve_panel(),  # criterion 4
    ):
        zeta = zeta_from_counts(c)
        assert functional_equation_holds(zeta, c.p, c.genus), c
        assert hasse_bound_holds(c, count_points(c, 1))
        assert curve_class_number(zeta) >= 1
        # genus 1: a_1 = N_1 - 1 - q, so P(1) = N_1
        assert c.genus != 1 or curve_class_number(zeta) == count_points(c, 1)


def test_expected_counts_against_series_oracle():
    zetas = [zeta_pn(ProjectiveSpace(q, n)) for q in (2, 3, 4, 9, 1048573) for n in range(4)]
    zetas += [zeta_from_counts(c) for c in (
        CurveSpec(3, (0, 1, 0, 1)), CurveSpec(7, (1, 2, 0, 0, 0, 1)),
        CurveSpec(5, (1, 0, 1, 0, 0, 0, 0, 1)), CurveSpec(101, (5, 0, 1, 0, 0, 0, 0, 1)))]
    rng = random.Random(20261018)
    for _ in range(200):  # arbitrary integer factors with constant term 1
        def factor():
            return (1, *(rng.randint(-9, 9) for _ in range(rng.randint(0, 4))))
        zetas.append(ZetaRational(tuple(factor() for _ in range(rng.randint(0, 3))),
                                  tuple(factor() for _ in range(rng.randint(0, 3)))))
    for zeta in zetas:
        want = counts_series_oracle(zeta, 12)
        got = expected_counts(zeta, 12)
        assert all(type(n) is int for n in got) and got == want, zeta
    assert expected_counts(zeta_pn(ProjectiveSpace(3, 2)), 0) == []


def test_zeta_factors_validated():
    with pytest.raises(ValueError):
        ZetaRational(((0, 1),), ())


# ---------------------------------------------------------------------------
# special values at s=0

def test_special_value_point():
    # zeta*(0) = 1 * (ln 5)^-1
    assert special_value_s0(zeta_pn(ProjectiveSpace(5, 0))) == (-1, 1)


def test_special_value_p2():
    # P^2 over F_q: simple pole, |c| = 1 / ((q-1)(q^2-1))
    for q in (2, 3, 4, 5):
        ord_, c = special_value_s0(zeta_pn(ProjectiveSpace(q, 2)))
        assert ord_ == -1
        assert abs(c) == Fraction(1, (q - 1) * (q**2 - 1))


def test_special_value_elliptic():
    # |c| (q - 1) = P(1)
    c = CurveSpec(5, (0, -1, 0, 1))
    ord_, lead = special_value_s0(zeta_from_counts(c))
    assert ord_ == -1
    assert abs(lead) * 4 == 8


def test_verify_ff_curves():
    for c in (
        CurveSpec(3, (0, 1, 0, 1)),
        CurveSpec(5, (0, -1, 0, 1)),
        CurveSpec(7, (1, 1, 0, 1)),
        CurveSpec(3, (1, 0, 1, 0, 0, 1)),
        CurveSpec(11, (1, 2, 0, 0, 0, 1)),
    ):
        zeta, checks = verify_ff(c)
        assert [name for name, _ in checks] == ["Hasse bound", "counts reproduced from Z(t)"]
        assert all(ok for _, ok in checks), checks
        assert special_value_s0(zeta)[0] == -1


def test_verify_ff_deterministic():
    assert verify_ff(CurveSpec(5, (0, -1, 0, 1))) == verify_ff(CurveSpec(5, (0, -1, 0, 1)))


def test_verify_ff_counts_each_m_once(monkeypatch):
    calls = []

    def counting(variety, m=1):
        calls.append(m)
        return count_points(variety, m)

    monkeypatch.setattr(ff_zeta, "count_points", counting)
    verify_ff(CurveSpec(3, (0, 1, 0, 1)))  # 3^10 <= 2^16 < 3^11
    assert COUNT_BOUND == 2**16 and calls == list(range(1, 11))
    calls.clear()
    verify_ff(CurveSpec(47, (1, 0, 0, 0, 0, 0, 0, 1)))  # genus 3, 47^2 <= 2^16 < 47^3
    assert calls == [1, 2, 3]


def test_verify_ff_compares_every_count(monkeypatch):
    # N_1..N_g build Z(t); a wrong N_g would make a different Z(t) that
    # the check of the later counts refuses, and a wrong last count is
    # refused directly
    c = CurveSpec(3, (0, 1, 0, 1))
    for wrong in (1, 10):
        monkeypatch.setattr(ff_zeta, "count_points",
                            lambda variety, m, wrong=wrong: count_points(variety, m) + (m == wrong))
        checks = dict(verify_ff(c)[1])
        assert not checks["counts reproduced from Z(t)"]


def test_verify_ff_refuses_genus_3_before_counting(monkeypatch):
    # 103^3 > 2^20 >= 1021^2: left to count_points, the refusal of m = 3
    # would come after N_1 and N_2 were counted
    calls = []

    def counting(variety, m=1):
        calls.append(m)
        return count_points(variety, m)

    monkeypatch.setattr(ff_zeta, "count_points", counting)
    monkeypatch.setattr(ff_zeta, "_FIELD_CACHE", {})
    message = f"^q\\^m = {1021**3} exceeds {ff_zeta.SIZE_BOUND}$"
    with pytest.raises(ValueError, match=message):
        verify_ff(CurveSpec(1021, (1, 1, 0, 0, 0, 0, 0, 1)))
    for p in filter(is_prime, range(103, 1022)):  # x^7 + 1 is squarefree mod p != 7
        with pytest.raises(ValueError, match=f"^q\\^m = {p**3} exceeds"):
            verify_ff(CurveSpec(p, (1, 0, 0, 0, 0, 0, 0, 1)))
    assert calls == [] and ff_zeta._FIELD_CACHE == {}


# ---------------------------------------------------------------------------
# command line on huge primes: answered at once, not by trial division

def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "weilzeta.cli", *argv],
        capture_output=True, text=True, timeout=60,
    )


def test_cli_huge_prime_curve_hits_size_bound():
    proc = run_cli("ff", "curve", "--p", "1000000000000000003", "--f", "x^3+x+1")
    assert proc.returncode == 1
    assert proc.stderr.strip().startswith("error: q^m = ")
    assert proc.stderr.strip().endswith("exceeds 1048576")


def test_cli_huge_prime_pn_passes():
    proc = run_cli("ff", "pn", "--q", "1000000000000000003", "--n", "1")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
