import math
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, isqrt

import subprocess
import sys
import time
import tracemalloc

import pytest

from weilzeta import number_field
from weilzeta.lfunc import character_table, l_prime_at_0
from weilzeta.number_field import (
    MAX_ABS_DISC,
    InvariantsError,
    NumberFieldInvariants,
    RATIONALS,
    class_number_imaginary,
    class_number_real,
    fundamental_discriminant,
    fundamental_unit_real,
    is_fundamental,
    load_invariants,
    quad_invariants,
    squarefree_part,
)


def fundamental_range(lo, hi):
    return [d for d in range(lo, hi) if d not in (0, 1) and is_fundamental(d)]


def reduce_form(a, b, c):
    """Independent reduction oracle for definite forms (a > 0)."""
    while True:
        if not (-a < b <= a):
            b_shift = b % (2 * a)
            if b_shift > a:
                b_shift -= 2 * a
            c = (b_shift * b_shift - (b * b - 4 * a * c)) // (4 * a)
            b = b_shift
        if c < a:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        if -a < b <= a and a <= c and not (a == c and b < 0):
            return a, b, c


def brute_force_h_imaginary(D):
    """Reduce every primitive form with small coefficients, count the
    distinct reduced forms."""
    bound = isqrt(-D) + 2
    reduced = set()
    for a in range(1, 3 * bound):
        for b in range(-2 * bound, 2 * bound + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c <= 0 or gcd(gcd(a, abs(b)), c) != 1:
                continue
            reduced.add(reduce_form(a, b, c))
    return len(reduced)


def test_fundamental_discriminant_examples():
    assert fundamental_discriminant(-1) == -4
    assert fundamental_discriminant(5) == 5
    assert fundamental_discriminant(12) == 12
    assert fundamental_discriminant(7) == 28
    assert fundamental_discriminant(50) == 8


def test_fundamental_discriminant_rejects():
    for bad in (0, 1, 4, 9, 16):
        with pytest.raises(InvariantsError):
            fundamental_discriminant(bad)


def test_is_fundamental_matches_textbook_rule():
    # D = 1 mod 4 squarefree, or D = 4m with m = 2, 3 mod 4 squarefree
    # (D = 1 is Q); the tests that pick their D with is_fundamental rely on it
    bound = 20_000
    squarefree = [True] * (bound + 1)
    for k in range(2, isqrt(bound) + 1):
        squarefree[k * k::k * k] = [False] * len(squarefree[k * k::k * k])

    def textbook(D):
        if D % 4 == 1:
            return squarefree[abs(D)]
        m = D // 4
        return D % 4 == 0 and m % 4 in (2, 3) and squarefree[abs(m)]

    discs = range(-bound, bound + 1)
    assert [D for D in discs if is_fundamental(D)] == [D for D in discs if textbook(D)]
    assert sum(map(is_fundamental, discs)) == 12_161


def test_is_fundamental_refuses_a_huge_disc_at_once(monkeypatch):
    # trial division of 2 * 10000019 * 10000079 took about a second, and
    # near 10^30 it never ended; every library entry point goes through here
    for D in (2 * 10000019 * 10000079, 5 * 10000019 * 10000079, -(10**30 + 3),
              MAX_ABS_DISC + 1, -MAX_ABS_DISC - 3):
        message = (rf"^\|disc\| = {abs(D)} exceeds the supported bound "
                   rf"MAX_ABS_DISC = {MAX_ABS_DISC}$")
        signed = (class_number_real, fundamental_unit_real) if D > 0 else (class_number_imaginary,)
        for call in (is_fundamental, quad_invariants, character_table, *signed):
            start = time.perf_counter()
            with pytest.raises(InvariantsError, match=message):
                call(D)
            assert time.perf_counter() - start < 0.1
    # D = 2, 3 (mod 4) is refused without factoring
    monkeypatch.setattr(number_field, "factorize", None)
    for D in (MAX_ABS_DISC - 2, MAX_ABS_DISC - 1, -MAX_ABS_DISC + 2, -MAX_ABS_DISC + 3, 2, 3, -1):
        assert is_fundamental(D) is False


def test_is_fundamental_zero_is_false():
    assert is_fundamental(0) is False
    with pytest.raises(InvariantsError, match=r"^0 is not a fundamental discriminant$"):
        quad_invariants(0)


def test_squarefree_part():
    assert squarefree_part(12) == 3
    assert squarefree_part(-8) == -2
    assert squarefree_part(30) == 30


def test_class_number_imaginary_examples():
    assert class_number_imaginary(-4) == 1
    assert class_number_imaginary(-23) == 3
    assert class_number_imaginary(-3) == 1


def test_class_number_imaginary_known_values():
    known = {-7: 1, -8: 1, -11: 1, -15: 2, -20: 2, -47: 5, -84: 4, -163: 1}
    for d, h in known.items():
        assert class_number_imaginary(d) == h


def scalar_class_number_imaginary(D):
    """Reference: count reduced primitive forms one (a, b) at a time."""
    count = 0
    a = 1
    while 3 * a * a <= -D:  # reduced forms force a <= sqrt(|D|/3)
        lo = -a + 1
        for b in range(lo + (lo - D) % 2, a + 1, 2):  # b^2 = D (mod 4) forces b = D (mod 2)
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a:
                continue
            if b < 0 and (abs(b) == a or a == c):
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            count += 1
        a += 1
    return count


def scalar_reduced_forms(D):
    """Reference: the reduced indefinite forms, testing every 2|a| in the
    window sqrt(D) - b < 2|a| < sqrt(D) + b one at a time."""
    s = isqrt(D)
    forms = []
    for b in range(1, s + 1):
        if (b * b - D) % 4:
            continue
        ac = (b * b - D) // 4  # negative
        for a_abs in range(max(1, (s - b + 2) // 2), (s + b) // 2 + 1):
            if ac % a_abs:
                continue
            if D >= (2 * a_abs + b) ** 2:
                continue
            if 2 * a_abs - b > 0 and (2 * a_abs - b) ** 2 >= D:
                continue
            for a in (a_abs, -a_abs):
                c = ac // a
                if gcd(gcd(abs(a), b), abs(c)) == 1:
                    forms.append((a, b, c))
    return forms


def scalar_class_number_real(D):
    """Reference: follow rho from each form, one step at a time."""
    s = isqrt(D)

    def rho(form):
        _, b, c = form
        two_c = 2 * abs(c)
        r = (-b) % two_c  # the r = -b (mod 2|c|) in (sqrt(D) - 2|c|, sqrt(D)]
        r += ((s - r) // two_c) * two_c
        return (c, r, (r * r - D) // (4 * c))

    cycle_of = {}
    for start in scalar_reduced_forms(D):
        f = start
        while f not in cycle_of:
            cycle_of[f] = start
            f = rho(f)
    cycles = len(set(cycle_of.values()))
    b = s if (D - s) % 2 == 0 else s - 1
    if cycle_of[(1, b, (b * b - D) // 4)] == cycle_of[(-1, b, (D - b * b) // 4)]:
        return cycles
    return cycles // 2


def test_class_numbers_match_scalar_loops():
    # every fundamental |D| <= 20,000; D where blocks of 2^12 elements
    # change shape: the walk needs a second block from D = -17,960 and from
    # D = 16,645 on (in the sweep too), and an earlier blocking did from
    # D = -24,308 on and held one row b per block past sqrt(|D|/3) = 2048;
    # and the largest |D| either side supports
    for D in fundamental_range(-20_000, 20_001):
        if D < 0:
            assert class_number_imaginary(D) == scalar_class_number_imaginary(D), D
        else:
            assert class_number_real(D) == scalar_class_number_real(D), D
    for D in (-17_960, *fundamental_range(-24_340, -24_280), -12_582_907, -12_582_915,
              -12_595_204, -16_777_204, -16_777_211):
        assert class_number_imaginary(D) == scalar_class_number_imaginary(D), D
    for D in (16_645, 16_777_212, 16_777_213):
        assert class_number_real(D) == scalar_class_number_real(D), D


@pytest.mark.parametrize("block", [1, 7, 64])
def test_class_numbers_do_not_depend_on_the_block_size(monkeypatch, block):
    # small blocks split every walk, down to one row wider than the block
    monkeypatch.setattr(number_field, "_BLOCK", block)
    for D in fundamental_range(-600, 601):
        if D < 0:
            assert class_number_imaginary(D) == scalar_class_number_imaginary(D), D
        else:
            assert class_number_real(D) == scalar_class_number_real(D), D


def traced_peak(fn):
    """The peak of memory traced by tracemalloc while fn() runs, MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_class_numbers_keep_transients_to_blocks():
    # about 0.23 MiB each: the blocks of 2^12 elements, and for D > 0 the
    # forms and their rho pointers
    assert traced_peak(lambda: class_number_imaginary(-16_777_211)) < 1
    assert traced_peak(lambda: class_number_real(16_777_213)) < 1


def test_class_number_real_refuses_d_at_most_one():
    # is_fundamental(1) is True (D = 1 stands for Q), which has no reduced forms
    for D in (1, 0, -4):
        with pytest.raises(InvariantsError, match=rf"^D={D} is not a fundamental discriminant > 1$"):
            class_number_real(D)


def test_class_number_real_refuses_a_missing_form(monkeypatch):
    # rho maps the reduced forms onto themselves: drop one, and the image
    # of the form before it in its cycle is not found
    full = number_field._reduced_triples
    monkeypatch.setattr(number_field, "_reduced_triples", lambda D: tuple(x[1:] for x in full(D)))
    with pytest.raises(InvariantsError, match=r"^a form is missing from the reduced forms, D=229$"):
        class_number_real(229)


def test_class_number_imaginary_vs_brute_force():
    for d in fundamental_range(-200, 0):
        assert class_number_imaginary(d) == brute_force_h_imaginary(d) >= 1


def test_class_number_imaginary_rejects():
    with pytest.raises(InvariantsError):
        class_number_imaginary(5)
    with pytest.raises(InvariantsError):
        class_number_imaginary(-12)  # -12 = 4*(-3), -3 = 1 mod 4: not fundamental


def test_fundamental_unit_examples():
    (x, y), reg = fundamental_unit_real(5)
    assert (x, y) == (1, 1)
    assert math.isclose(reg, math.log((1 + math.sqrt(5)) / 2), rel_tol=1e-13)
    (x, y), reg = fundamental_unit_real(8)
    assert (x, y) == (2, 1)
    assert math.isclose(reg, math.log(1 + math.sqrt(2)), rel_tol=1e-13)
    (x, y), _ = fundamental_unit_real(13)
    assert (x, y) == (3, 1)
    for d in (1, 0, -4, 48):  # Q, no field, imaginary, not fundamental
        with pytest.raises(InvariantsError):
            fundamental_unit_real(d)


def test_fundamental_unit_pell_and_minimality():
    for d in fundamental_range(2, 200):
        (x, y), reg = fundamental_unit_real(d)
        assert x * x - d * y * y in (4, -4)
        assert reg > 0
        # exhaustive: no unit with smaller y (and none with smaller x at the same y)
        for yy in range(1, y):
            for sign in (4, -4):
                val = d * yy * yy + sign
                assert val < 0 or isqrt(val) ** 2 != val
        if x * x - d * y * y == 4:
            assert d * y * y - 4 < 0 or isqrt(d * y * y - 4) ** 2 != d * y * y - 4


def test_fundamental_unit_is_minimal():
    # x^2 - D y^2 = +-4, and no smaller y >= 1 makes D y^2 +- 4 a square.
    # Every unit > 1 is a power of the fundamental one, so a solution with
    # a smaller y would make e = (x + y sqrt D)/2 a k-th power, for a prime
    # k with ((1 + sqrt 5)/2)^k <= e; the only y it could have is
    # (e^(1/k) -+ e^(-1/k)) / sqrt D, which is tested exactly
    primes = [k for k in range(2, 400) if all(k % f for f in range(2, k))]
    for d in fundamental_range(2, 2000):
        (x, y), reg = fundamental_unit_real(d)
        assert x > 0 and y > 0 and x * x - d * y * y in (4, -4)
        with localcontext() as ctx:
            ctx.prec = len(str(x)) + 30
            root_d = Decimal(d).sqrt()
            log_e = ((x + y * root_d) / 2).ln()
            for k in (k for k in primes if k * math.log((1 + math.sqrt(5)) / 2) <= reg + 1e-9):
                root = (log_e / k).exp()
                for sign in (1, -1):
                    v = int(((root - sign / root) / root_d).to_integral_value())
                    square = d * v * v + 4 * sign
                    assert not (1 <= v < y and isqrt(square) ** 2 == square), (d, k)


def test_class_number_real_known_values():
    known = {5: 1, 8: 1, 12: 1, 13: 1, 40: 2, 60: 2, 65: 2, 85: 2, 229: 3}
    for d, h in known.items():
        assert class_number_real(d) == h


def full_scan_reduced_forms(D):
    """Reference: every |a| dividing ac, filtered by the reduction bounds."""
    s = isqrt(D)
    forms = []
    for b in range(1, s + 1):
        if (b * b - D) % 4:
            continue
        ac = (b * b - D) // 4
        for a_abs in range(1, abs(ac) + 1):
            if ac % a_abs or D >= (2 * a_abs + b) ** 2:
                continue
            if 2 * a_abs - b > 0 and (2 * a_abs - b) ** 2 >= D:
                continue
            for a in (a_abs, -a_abs):
                c = ac // a
                if gcd(gcd(abs(a), b), abs(c)) == 1:
                    forms.append((a, b, c))
    return forms


def reduced_indefinite_forms(D):
    """The forms of the walk for D > 0 as a list of (a, b, c), ordered by
    b, then |a|, then a > 0 before a < 0."""
    b, d, e = (x.tolist() for x in number_field._reduced_triples(D))
    pairs = sorted(((a, b, c) for b, d, e in zip(b, d, e) for a, c in {(d, e), (e, d)}),
                   key=lambda p: (p[1], p[0]))
    return [form for a, b, c in pairs for form in ((a, b, -c), (-a, b, c))]


def test_reduced_forms_window_matches_full_scan():
    for d in fundamental_range(2, 5000):
        assert reduced_indefinite_forms(d) == full_scan_reduced_forms(d), d


def test_class_numbers_at_bench_sizes():
    for d, h in ((311160, 12), (333061, 1), (326933, 1)):
        assert class_number_real(d) == h
    for d, h in ((-316468, 120), (-316667, 160), (-324911, 584)):
        assert class_number_imaginary(d) == h


def test_cli_pn_of_ten_million():
    proc = subprocess.run(
        [sys.executable, "-m", "weilzeta.cli", "pn-of", "--disc", "10000013", "--n", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""


def test_unit_norm():
    # the norm of the fundamental unit decides whether class_number_real
    # halves the narrow class number; check it against L'(0) = hR
    for d, norm in ((5, -1), (12, 1), (40, -1)):
        (x, y), _ = fundamental_unit_real(d)
        assert (x * x - d * y * y) // 4 == norm
    for d in fundamental_range(2, 2000):
        inv = quad_invariants(d)
        assert round(l_prime_at_0(d) / inv.R) == inv.h


def test_quad_invariants_huge_regulator():
    # x + y sqrt(D) overflows a float here; the regulator is log x
    inv = quad_invariants(326561)
    assert math.isfinite(inv.R) and inv.R > 709.8
    (x, y), reg = fundamental_unit_real(326561)
    assert x * x - 326561 * y * y in (4, -4)
    assert reg == inv.R
    # log((x + y sqrt D) / 2) = log x + log((1 + (y/x) sqrt D) / 2)
    expected = math.log(x) + math.log((1 + float(Fraction(y, x)) * math.sqrt(326561)) / 2)
    assert math.isclose(reg, expected, rel_tol=1e-15)


def test_quad_invariants():
    inv = quad_invariants(-4)
    assert (inv.r1, inv.r2, inv.h, inv.R, inv.w) == (0, 1, 1, 1.0, 4)
    inv = quad_invariants(1)
    assert (inv.r1, inv.r2, inv.h, inv.R, inv.w) == (1, 0, 1, 1.0, 2)
    inv = quad_invariants(5)
    assert (inv.r1, inv.r2, inv.h, inv.w) == (2, 0, 1, 2)
    assert math.isclose(inv.R, math.log((1 + math.sqrt(5)) / 2), rel_tol=1e-13)
    assert quad_invariants(-3).w == 6


def test_quad_invariants_refusal_suggests_the_discriminant():
    with pytest.raises(InvariantsError,
                       match=r"^-5 is not a fundamental discriminant \(did you mean -20\?\)$"):
        quad_invariants(-5)
    # fundamental_discriminant refuses a square: no hint
    with pytest.raises(InvariantsError, match=r"^9 is not a fundamental discriminant$"):
        quad_invariants(9)


def test_quad_invariants_positive():
    for d in fundamental_range(-200, 200):
        inv = quad_invariants(d)
        value = inv.w * inv.h * inv.R
        assert value > 0 and math.isfinite(value)


def read(tmp_path, text):
    path = tmp_path / "inv.txt"
    path.write_text(text, encoding="utf-8")
    return load_invariants(path)


def test_parse_invariants_roundtrip(tmp_path):
    inv = read(tmp_path, "r1=0\nr2=1\nh=1\nR=1\nw=6\ndisc=-3")
    assert inv == quad_invariants(-3)


def test_parse_invariants_comments_and_blank_lines(tmp_path):
    inv = read(tmp_path, "# header\nr1=1\nr2=2\n\nh=3\nR=0.5  # regulator\nw=2\n")
    assert (inv.r1, inv.r2, inv.h, inv.R, inv.w) == (1, 2, 3, 0.5, 2)


def test_parse_invariants_errors(tmp_path):
    path = tmp_path / "inv.txt"
    for text, message in (
        ("r1=0\nr2=1\nR=1\nw=6", ": missing required key(s): h"),
        ("r1=0\nr2=1\nh=1\nR=1\nw=0", "root-of-unity"),
        ("r1=0\nr2=yes\nh=1\nR=1\nw=2", ":2: cannot parse the value: 'r2=yes'"),
        ("nonsense", ":1: expected key=value: 'nonsense'"),
        ("h=1\nr1=0\nh=1\nr2=1\nR=1\nw=2", ":3: key given twice: 'h=1'"),
        ("x=1", ":1: unknown key: 'x=1'"),
        ("h=" + "9" * 5000, ":1: cannot parse the value: '" + "h=" + "9" * 38 + "...'"),
    ):
        with pytest.raises(InvariantsError) as info:
            read(tmp_path, text)
        assert message in str(info.value)
        if message.startswith(":"):
            assert str(info.value) == f"{path}{message}"


def test_parse_invariants_arbitrary_text_is_invariants_or_error(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    keys = st.sampled_from(["r1", "r2", "h", "R", "w", "disc", "x", ""])
    values = st.sampled_from(["0", "1", "2", "-23", "5", "0.5", "1e400", "nan", "inf", "-1",
                              "x", "", "1_0", "9" * 5000]) | st.text(max_size=5)
    lines = st.tuples(keys, st.sampled_from(["=", " = ", ":", "=="]), values).map("".join)
    texts = st.text(max_size=30) | st.lists(lines | st.text(max_size=8), max_size=8).map("\n".join)

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(texts)
    def check(text):
        try:
            inv = read(tmp_path, text)
        except InvariantsError as exc:
            assert len(str(exc).splitlines()) == 1
            return
        assert isinstance(inv, NumberFieldInvariants)
        assert inv.h >= 1 and inv.w >= 1 and 0 < inv.R < math.inf

    check()


def test_load_invariants(tmp_path):
    assert read(tmp_path, "r1=0\nr2=1\nh=1\nR=1\nw=4\ndisc=-4\n") == quad_invariants(-4)


def test_invariants_type_checks():
    with pytest.raises(InvariantsError):
        NumberFieldInvariants(0, 0, 1, 1.0, 2)  # r1 + r2 < 1
    with pytest.raises(InvariantsError):
        NumberFieldInvariants(1, 0, 1, 0.0, 2)  # R must be positive
    assert NumberFieldInvariants(0, 1, 1, 1.0, 2).disc == 0  # no disc: nothing to contradict
    assert RATIONALS.unit_rank == 0
