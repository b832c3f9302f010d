"""Arithmetic invariants (r1, r2, h, R, w, disc) of quadratic fields.

Quadratic fields are computed from first principles: class numbers by
enumerating reduced binary quadratic forms (imaginary case) or cycles of
reduced indefinite forms (real case), the fundamental unit by one
period of the continued-fraction expansion of the standard generator of
the maximal order (Cohen, ch. 5).

Both class numbers read one blocked numpy walk over the triples
(b, d, e) with b = D (mod 2), d * e = |D - b^2|/4 and lo(b) <= d <= e,
in blocks of rows b and columns d of at most _BLOCK elements, so memory
does not grow with |D|.  For D < 0, lo(b) = max(b, 1) makes (d, +-b, e)
the reduced forms.  For D > 0 and a form (a, b, c), |a| * |c| = d * e,
and with L, U = (sqrt(D) -+ b)/2 the product L * U is that same number,
so |c| lies strictly between L and U exactly when |a| does: lo(b) is the
least d > L, and each triple gives the forms (+-d, b, -+e) and
(+-e, b, -+d), whose rho-cycles are counted by pointer doubling over all
forms at once.  Either class number costs O(|D|) array steps, and
is_fundamental refuses |D| > MAX_ABS_DISC before anything else.
Higher-degree fields enter only through user-supplied invariant files;
nothing here does ideal arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt

from .ff_zeta import factorize


class InvariantsError(ValueError):
    """Bad input to an invariants computation or a key=value file."""


# the largest |D| either side computes: the character table behind the
# L-sums peaks at about 19 bytes per unit of |D|
MAX_ABS_DISC = 2**24
# elements per array of one block of the class-number enumerations
_BLOCK = 2**12


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
    """D = 1 (Q) or the discriminant of Q(sqrt(D)); 0 and squares are not.
    |D| > MAX_ABS_DISC is refused before any trial division."""
    if abs(D) > MAX_ABS_DISC:
        raise InvariantsError(f"|disc| = {abs(D)} exceeds the supported bound "
                              f"MAX_ABS_DISC = {MAX_ABS_DISC}")
    if D % 4 in (2, 3):
        return False
    try:
        return D == 1 or fundamental_discriminant(D) == D
    except InvariantsError:
        return False


def _reduced_triples(D: int):
    """int64 arrays (b, d, e) of the walk in the module docstring: b runs
    over 0 <= b <= sqrt(|D|/3) for D < 0 and 0 < b <= sqrt(D) for D > 0.  Every form is primitive: a
    common factor g would make D/g^2 a discriminant, and D is fundamental."""
    import numpy as np
    if D < 0:  # b <= a <= c forces 3b^2 <= |D|
        b_max, first = isqrt(-D // 3), D % 2
    else:
        b_max, first = isqrt(D), 2 - D % 2

    def lo(b):  # of one row or an array of rows; d >= 1 comes from the columns
        return b if D < 0 else (b_max - b) // 2 + 1  # sqrt(D) is irrational

    found = []
    while first <= b_max:
        # with hi(b) = sqrt(|D - b^2|/4), [min lo, max hi] widens by at most
        # one column per row (D > 0: lo falls by one, hi falls; D < 0: lo
        # rises, hi rises by at most one), so `rows` rows span at most
        # width + rows - 1 columns: the most rows that fit in _BLOCK
        width = max(1, isqrt(abs(D - first * first) // 4) - lo(first) + 1)
        rows = max(1, (isqrt((width - 1) ** 2 + 4 * _BLOCK) - width + 1) // 2)
        b = np.arange(first, min(first + 2 * rows, b_max + 1), 2, dtype=np.int64)
        last = int(b[-1])
        hi = isqrt(max(abs(D - first * first), abs(D - last * last)) // 4)
        d = np.arange(max(1, min(lo(first), lo(last))), hi + 1, dtype=np.int64)
        first += 2 * rows
        de = np.abs(D - b * b) // 4
        i, j = divmod(np.flatnonzero(de[:, None] % d == 0), len(d))
        b, d = b[i], d[j]
        e = de[i] // d
        hit = np.minimum(e - d, d - lo(b)) >= 0
        found.append((b[hit], d[hit], e[hit]))
    return found[0] if len(found) == 1 else tuple(np.concatenate(x) for x in zip(*found))


def class_number_imaginary(D: int) -> int:
    """Count reduced forms (a, b, c) of discriminant D < 0: |b| <= a <= c,
    and b >= 0 when |b| = a or a = c."""
    import numpy as np
    if D >= 0:
        raise InvariantsError("imaginary class number needs D < 0")
    if not is_fundamental(D):
        raise InvariantsError(f"D={D} is not a fundamental discriminant")
    b, a, c = _reduced_triples(D)
    # (a, b, c) and (a, -b, c) are both reduced unless b = 0, b = a or
    # a = c; the product stays below 2^46 for |D| <= MAX_ABS_DISC
    return 2 * len(b) - int(np.count_nonzero(b * (a - b) * (c - a) == 0))


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


def class_number_real(D: int) -> int:
    """Class number of the real quadratic field of discriminant D > 0:
    count rho-cycles of reduced indefinite forms (the narrow class
    number), halved when the fundamental unit has norm +1.  The norm is
    -1 exactly when the principal form (1, b, c) and its negative
    (-1, b, -c) share a cycle, so the unit itself is not needed."""
    import numpy as np
    if D <= 1 or not is_fundamental(D):
        raise InvariantsError(f"D={D} is not a fundamental discriminant > 1")
    s = isqrt(D)
    b, d, e = _reduced_triples(D)
    two = d < e  # d = e is one pair of forms
    a, b, c = (np.concatenate(x) for x in ((d, e[two]), (b, b[two]), (e, d[two])))
    n = len(a)
    # form i < n is (a, b, -c) and form n + i is (-a, b, c).  rho takes them
    # to (-c, r, .) and (c, r, .), r = -b (mod 2c) in (sqrt(D) - 2c, sqrt(D)]:
    # the two forms of the triple (c, r, .), in the other half
    r = s - (s + b) % (2 * c)
    # find those triples, then the principal form's (1, b0, .), by (a, b):
    # it fixes a triple, and 0 < a, b <= s give distinct keys (0 < r <= s
    # too, as rho keeps forms reduced)
    b0 = s if (D - s) % 2 == 0 else s - 1
    key, wanted = a * (s + 1) + b, np.append(c * (s + 1) + r, s + 1 + b0)
    # the keys are distinct, so any sort will do; the stable one (timsort)
    # pages in less of numpy than the default, and peak memory shows it
    order = np.argsort(key, kind="stable")
    at = order[np.minimum(np.searchsorted(key[order], wanted), n - 1)]
    if not np.array_equal(key[at], wanted):
        raise InvariantsError(f"a form is missing from the reduced forms, D={D}")
    step, principal = np.concatenate((at[:-1] + n, at[:-1])), at[-1]
    label = np.arange(2 * n)
    for _ in range((2 * n - 1).bit_length()):  # 2^rounds >= 2n >= every cycle
        label = np.minimum(label, label[step])  # the least index seen ahead
        step = step[step]
    cycles = int(np.count_nonzero(label == np.arange(2 * n)))
    if label[principal] == label[principal + n]:
        return cycles
    if cycles % 2:
        raise InvariantsError(f"odd narrow class number with norm +1 unit, D={D}")
    return cycles // 2


def quad_invariants(D: int) -> NumberFieldInvariants:
    """Invariants of the quadratic field of fundamental discriminant D
    (D = 1 gives Q itself)."""
    if D == 1:
        return RATIONALS
    if not is_fundamental(D):  # refuses |D| > MAX_ABS_DISC first
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

    def refused(lineno, reason, line):
        shown = line if len(line) <= 40 else line[:40] + "..."
        return InvariantsError(f"{path}:{lineno}: {reason}: {shown!r}")

    values = {}
    with open(path, "rb") as fh:  # decoded line by line, so a bad byte names its line
        lines = fh.read().splitlines()  # at \n, \r\n and \r, as text mode splits
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8").split("#", 1)[0].strip()
        except UnicodeDecodeError:
            raise refused(lineno, "not UTF-8 text", raw.decode("utf-8", "replace").strip()) from None
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
            raise refused(lineno, reason, line) from None
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
    try:
        return NumberFieldInvariants(**values)
    except InvariantsError as exc:
        raise InvariantsError(f"{path}: {exc}") from None
