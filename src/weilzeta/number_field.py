"""Arithmetic invariants (r1, r2, h, R, w, disc) of quadratic fields.

Quadratic fields are computed from first principles: class numbers by
enumerating reduced binary quadratic forms (imaginary case) or cycles of
reduced indefinite forms (real case), the fundamental unit by one
period of the continued-fraction expansion of the standard generator of
the maximal order.  Both enumerations visit only the (a, b) that the
reduction bounds allow, so either class number costs O(|D|) steps, and
|D| is bounded by MAX_ABS_DISC on both sides of the check.  Higher-degree
fields enter only through user-supplied invariant files; nothing here
does ideal arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd, isqrt

from .ff_zeta import factorize


class InvariantsError(ValueError):
    """Bad input to an invariants computation or a key=value file."""


# the largest |D| either side computes: the character table behind the
# L-sums peaks at about 19 bytes per unit of |D|
MAX_ABS_DISC = 2**24


@dataclass(frozen=True)
class NumberFieldInvariants:
    r1: int
    r2: int
    h: int
    R: float
    w: int
    disc: int = 0

    def __post_init__(self):
        if self.r1 < 0 or self.r2 < 0 or self.r1 + self.r2 < 1:
            raise InvariantsError("need r1, r2 >= 0 with r1 + r2 >= 1")
        if self.h < 1:
            raise InvariantsError("class number must be >= 1")
        if self.w < 1:
            raise InvariantsError("root-of-unity count must be >= 1")
        if not (self.R > 0 and math.isfinite(self.R)):
            raise InvariantsError("regulator must be a positive finite real")
        degree = self.r1 + 2 * self.r2
        if degree == 1 and self.disc not in (0, 1):
            raise InvariantsError(f"degree 1 needs disc 1, got disc {self.disc}")
        if degree == 2 and (self.disc > 1 and self.r1 != 2 or self.disc < 0 and self.r2 != 1):
            raise InvariantsError(
                f"signature (r1, r2) = ({self.r1}, {self.r2}) does not match disc {self.disc}"
            )

    @property
    def unit_rank(self):
        return self.r1 + self.r2 - 1


RATIONALS = NumberFieldInvariants(r1=1, r2=0, h=1, R=1.0, w=2, disc=1)


def squarefree_part(d: int) -> int:
    """Largest squarefree m with d = m * (square)."""
    if d == 0:
        raise InvariantsError("0 has no squarefree part")
    m = -1 if d < 0 else 1
    for p, e in factorize(abs(d)).items():
        if e % 2:
            m *= p
    return m


def fundamental_discriminant(d: int) -> int:
    """Discriminant of Q(sqrt(d)): the squarefree part m, or 4m, whichever
    is 0 or 1 mod 4."""
    if d in (0, 1):
        raise InvariantsError(f"d={d} does not define a quadratic field")
    if d > 1 and isqrt(d) ** 2 == d:
        raise InvariantsError(f"d={d} is a perfect square")
    m = squarefree_part(d)
    return m if m % 4 == 1 else 4 * m


def is_fundamental(D: int) -> bool:
    """D = 1 (Q) or the discriminant of Q(sqrt(D)); 0 and squares are not."""
    try:
        return D == 1 or fundamental_discriminant(D) == D
    except InvariantsError:
        return False


def class_number_imaginary(D: int) -> int:
    """Count reduced primitive forms (a,b,c) of discriminant D < 0."""
    if D >= 0:
        raise InvariantsError("imaginary class number needs D < 0")
    if not is_fundamental(D):
        raise InvariantsError(f"D={D} is not a fundamental discriminant")
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


def fundamental_unit_real(D: int):
    """Smallest unit (x + y*sqrt(D))/2 > 1 with x^2 - D y^2 = +-4.

    The continued fraction of the standard generator (P0 + sqrt(n))/Q0 of
    the maximal order (sqrt(D/4) or (1+sqrt(D))/2) runs through complete
    quotients (P + sqrt(n))/Q with Q > 0; its period ends at the first
    k >= 1 with Q_k = Q0, and the convergent h/g before that step gives
    the unit h + g*sqrt(n) or h - g*(1-sqrt(D))/2 (Cohen, ch. 5).
    Returns ((x, y), regulator).
    """
    if D <= 1 or not is_fundamental(D):
        raise InvariantsError(f"D={D} is not a fundamental discriminant > 1")
    n, p, q0 = (D // 4, 0, 1) if D % 4 == 0 else (D, 1, 2)
    s = isqrt(n)
    q, h, h_prev, g, g_prev = q0, 1, 0, 0, 1
    while True:
        a = (p + s) // q
        h, h_prev = a * h + h_prev, h
        g, g_prev = a * g + g_prev, g
        p = a * q - p
        q = (n - p * p) // q
        if q == q0:
            break
    x, y = (2 * h, g) if D % 4 == 0 else (2 * h - g, g)
    if x * x - D * y * y not in (4, -4):
        raise InvariantsError(f"unit search failed for D={D}")
    try:
        reg = math.log((x + y * math.sqrt(D)) / 2)
    except OverflowError:  # x + y sqrt(D) = 2x -+ 4/(x + y sqrt(D)): log x is exact
        reg = math.log(x)
    return (x, y), reg


def _reduced_indefinite_forms(D: int):
    """All reduced primitive indefinite forms of discriminant D > 0:
    0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b."""
    s = isqrt(D)
    forms = []
    for b in range(1, s + 1):
        if (b * b - D) % 4:
            continue
        ac = (b * b - D) // 4  # negative
        # only 2|a| in [s - b + 1, s + b] can pass the two checks below
        for a_abs in range(max(1, (s - b + 2) // 2), (s + b) // 2 + 1):
            if ac % a_abs:
                continue
            # sqrt(D) - b < 2|a|  <=>  D < (2|a| + b)^2  (sqrt irrational)
            if D >= (2 * a_abs + b) ** 2:
                continue
            # 2|a| < sqrt(D) + b  <=>  2|a| - b < sqrt(D)
            if 2 * a_abs - b > 0 and (2 * a_abs - b) ** 2 >= D:
                continue
            for a in (a_abs, -a_abs):
                c = ac // a
                if gcd(gcd(abs(a), b), abs(c)) == 1:
                    forms.append((a, b, c))
    return forms


def _rho(form, D: int, s: int):
    """Reduction/neighbor step on reduced indefinite forms."""
    _, b, c = form
    two_c = 2 * abs(c)
    # unique r = -b (mod 2|c|) in (sqrt(D) - 2|c|, sqrt(D)]
    r = (-b) % two_c
    r += ((s - r) // two_c) * two_c
    c2 = (r * r - D) // (4 * c)
    return (c, r, c2)


def class_number_real(D: int) -> int:
    """Class number of the real quadratic field of discriminant D > 0:
    count rho-cycles of reduced indefinite forms (the narrow class
    number), halved when the fundamental unit has norm +1.  The norm is
    -1 exactly when the principal form (1, b, c) and its negative
    (-1, b, -c) share a cycle, so the unit itself is not needed."""
    if D <= 0 or not is_fundamental(D):
        raise InvariantsError(f"D={D} is not a fundamental discriminant > 0")
    s = isqrt(D)
    cycle_of = {}
    for start in _reduced_indefinite_forms(D):
        f = start
        while f not in cycle_of:
            cycle_of[f] = start
            f = _rho(f, D, s)
    cycles = len(set(cycle_of.values()))
    b = s if (D - s) % 2 == 0 else s - 1  # both forms below are reduced
    if cycle_of[(1, b, (b * b - D) // 4)] == cycle_of[(-1, b, (D - b * b) // 4)]:
        return cycles
    if cycles % 2:
        raise InvariantsError(f"odd narrow class number with norm +1 unit, D={D}")
    return cycles // 2


def quad_invariants(D: int) -> NumberFieldInvariants:
    """Invariants of the quadratic field of fundamental discriminant D
    (D = 1 gives Q itself)."""
    if D == 1:
        return RATIONALS
    if abs(D) > MAX_ABS_DISC:  # before any O(sqrt |D|) trial division
        raise InvariantsError(f"|disc| = {abs(D)} exceeds the supported bound "
                              f"MAX_ABS_DISC = {MAX_ABS_DISC}")
    if not is_fundamental(D):
        try:
            hint = f" (did you mean {fundamental_discriminant(D)}?)"
        except InvariantsError:  # a square defines no quadratic field
            hint = ""
        raise InvariantsError(f"{D} is not a fundamental discriminant{hint}")
    if D < 0:
        w = {-3: 6, -4: 4}.get(D, 2)
        return NumberFieldInvariants(
            r1=0, r2=1, h=class_number_imaginary(D), R=1.0, w=w, disc=D
        )
    _, reg = fundamental_unit_real(D)
    return NumberFieldInvariants(
        r1=2, r2=0, h=class_number_real(D), R=reg, w=2, disc=D
    )


def read_key_values(path, parse) -> dict:
    """{key: value} from key=value lines ('#' comments, blank lines skipped),
    (key, value) = parse(key, text), each key once after parse.  parse raises
    InvariantsError(reason); every error is '<path>:<line>: <reason>: <line cut to 40>'."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, text = (part.strip() for part in line.partition("="))
            try:
                if not eq:
                    raise InvariantsError("expected key=value")
                key, value = parse(key, text)
                if key in values:
                    raise InvariantsError("key given twice")
            except ValueError as exc:  # int() and float() echo the whole text
                reason = exc if isinstance(exc, InvariantsError) else "cannot parse the value"
                shown = line if len(line) <= 40 else line[:40] + "..."
                raise InvariantsError(f"{path}:{lineno}: {reason}: {shown!r}") from None
            values[key] = value
    return values


_REQUIRED = ("r1", "r2", "h", "R", "w")


def _invariant_entry(key: str, text: str):
    if key not in (*_REQUIRED, "disc"):
        raise InvariantsError("unknown key")
    return key, float(text) if key == "R" else int(text)


def load_invariants(path) -> NumberFieldInvariants:
    """NumberFieldInvariants from key=value lines r1, r2, h, R, w, disc."""
    values = read_key_values(path, _invariant_entry)
    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise InvariantsError(f"{path}: missing required key(s): {', '.join(missing)}")
    return NumberFieldInvariants(**values)
