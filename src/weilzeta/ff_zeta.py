"""Exact zeta functions of projective spaces and hyperelliptic curves
over finite fields.

A curve y^2 = f(x), deg f odd, has N_m = q^m + 1 + sum_x chi(f(x))
points over F_{q^m}, chi the quadratic character (0 at 0).  Over a prime
field F_p, f is evaluated in plain int64 residues and chi read from the
Legendre table mod p.  Over F_{p^k}, k >= 2, f is evaluated in
discrete-log coordinates over a deterministic primitive element g, with
the Zech logarithm Z(j) = log(1 + g^j).  Horner carries
S = log acc - log c', c' the next nonzero coefficient below acc (1 once
none is left): acc * x + c = c (1 + acc x / c), so a nonzero c takes S to
Z(S + log x) + log c - log c'', and a zero c to S + log x.  Each step is
a few integer adds and at most one table lookup; at the end S = log f(x),
and chi(v) = (-1)^(log v).
f has coefficients in F_p, so f(x^p) = f(x)^p has the same character as
f(x): f is evaluated once per Frobenius orbit (the orbit of g^i is
g^(i p^j)) and each value is weighted by the orbit size.  The modulus of
F_{p^k} is the lexicographically minimal monic irreducible, so every
output is reproducible bit for bit.  A field record, and a Legendre
table, is kept from its second request on, so one asked for once is freed
with its count.
The field tables, the orbits, the Legendre table and the counts over F_p
and F_{p^k} run BLOCK elements at a time, so no temporary array grows
with q.

The numerator P(t) of a curve's zeta function is reconstructed from the
counts N_1..N_g via the exponential recursion, in integers, and
completed by the functional equation.  verify_ff refuses q^g >
SIZE_BOUND before it counts, and compares every count it makes, N_1..N_g
included, with the counts that Newton's identities read off Z(t).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # the functions that use numpy import it; the exact verbs start without it
    import numpy

SIZE_BOUND = 2**20
# log 0 in FiniteField.zech: a zero accumulator in count_points gains less
# than n = q - 1 < SIZE_BOUND and loses n at each reduction after it, so
# it loses less than n per Horner step; for deg f <= 7 it stays above
# 2^29 > n, beyond every log, and it never wraps in uint32
_ZERO_LOG = 2**30
COUNT_BOUND = 2**16  # verify_ff reproduces every N_m with q^m <= this
# is_prime refuses n >= 2^this: one Miller-Rabin base costs seconds at
# 10^4 bits, and prime_power tests q itself first
PRIME_POWER_BITS = 1024
# Miller-Rabin with these bases is exact below 3.3e24 (Sorenson-Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
BLOCK = 1 << 14  # elements per block of each table fill and count; a power of 2 (_log_tables)


class SingularCurveError(ValueError):
    pass


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 prime bases: exact for
    n < 3.3e24, a strong probable-prime test above, refused at 2^PRIME_POWER_BITS."""
    if n >= 1 << PRIME_POWER_BITS:
        raise ValueError(f"{n.bit_length()}-bit prime (power) >= 2^{PRIME_POWER_BITS} "
                         "is not supported")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by integer Newton iteration."""
    x = 1 << -(-n.bit_length() // k)  # >= the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power(q: int):
    """(p, k) with q = p^k, or raise if q is not a prime power; the
    k = 1 step tests q itself, so is_prime refuses a huge q first."""
    if q >= 2:
        for k in range(1, q.bit_length() + 1):
            p = _iroot(q, k)
            if p**k == q and is_prime(p):
                return p, k
    raise ValueError(f"{q} is not a prime power")


def factorize(n: int) -> dict:
    """{p: e} with n = prod p^e for n >= 1, primes ascending, by trial
    division."""
    out, f = {}, 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = 1
    return out


# ---------------------------------------------------------------------------
# polynomials over F_p (coefficient lists, ascending, for modulus search);
# every helper returns a trimmed list, [] for zero

def _poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_rem(a, b, p):
    """a mod b over F_p by long division, for b trimmed and nonzero."""
    r = _poly_trim(list(a))
    inv = pow(b[-1], p - 2, p)
    while len(r) >= len(b):
        c = r[-1] * inv % p
        shift = len(r) - len(b)
        for i, bi in enumerate(b):
            r[shift + i] = (r[shift + i] - c * bi) % p
        _poly_trim(r)
    return r


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_rem(out, mod, p)


def _poly_powmod(a, e: int, mod, p):
    """a^e modulo the monic polynomial ``mod`` over F_p."""
    result = [1]
    base = _poly_rem(a, mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


def _is_irreducible(f, p: int) -> bool:
    """Ben-Or's test: monic f of degree k over F_p is irreducible iff
    gcd(x^(p^d) - x, f) = 1 for every d <= k/2."""
    h = [0, 1]  # x^(p^d) mod f
    for _ in range((len(f) - 1) // 2):
        h = _poly_powmod(h, p, f, p)
        g = h + [0, 0]
        g[1] = (g[1] - 1) % p  # x^(p^d) - x
        if len(_poly_gcd(g, f, p)) > 1:
            return False
    return True


@dataclass(frozen=True, eq=False)
class FiniteField:
    """F_{p^k} = F_p[t]/(modulus), modulus monic of degree k (ascending).

    An element is encoded as the base-p integer of its coefficient vector
    (ascending), so a prime-field constant c is the integer c.  The int32
    tables are over g, the smallest encoded element of order n = q-1:

    - ``log[c]`` for the p constants c of F_p is the i in [0, n) with
      g^i = c, and ``log[0]`` is 2n; counts read only logs of
      coefficients, so the logs of the rest of F_q are not kept;
    - ``zech`` has length n+1 and holds the Zech logarithm
      Z(j) = log(1 + g^j) for 0 <= j < n, so g^i + g^l = g^(l + Z(i - l))
      with i - l reduced mod n.  Where 1 + g^j = 0 (j = log(-1): n/2, or
      0 for p = 2) it holds _ZERO_LOG, above every log, and at n it holds
      0: a zero accumulator is clipped onto that slot, since 0 + g^l = g^l;
    - ``reps`` holds the smallest exponent of each orbit of
      i -> p i mod (q-1) on 0..q-2 (the orbits of x -> x^p on F_q^*),
      ascending, and ``sizes`` (int8) each orbit's size, a divisor of k.
    """

    p: int
    k: int
    modulus: tuple
    log: numpy.ndarray
    zech: numpy.ndarray
    reps: numpy.ndarray
    sizes: numpy.ndarray

    @property
    def q(self) -> int:
        return self.p**self.k


def _log_tables(p: int, k: int, modulus):
    """(log, zech) of F_{p^k} as described in FiniteField, with log over
    all q elements; make_field keeps its first p entries.  The digit
    columns of g^0..g^(B-1), B = min(BLOCK, n), are filled by doubling;
    block a, g^(aB)..g^(aB+B-1), is g^(aB)'s k x k matrix times that
    base, and only its codes are kept."""
    import numpy as np
    q = p**k
    n = q - 1
    cofactors = [n // l for l in factorize(n)]
    # g: the smallest code of order n; for k >= 2 the codes below p are
    # F_p^*, of order dividing p - 1 < n
    for code in range(1 if k == 1 else p, q):
        g = [(code // p**j) % p for j in range(k)]
        if all(_poly_powmod(g, e, modulus, p) != [1] for e in cofactors):
            break
    cols = [_poly_mulmod([0] * j + [1], g, modulus, p) for j in range(k)]
    step = np.array([c + [0] * (k - len(c)) for c in cols], dtype=np.int64).T
    # columns [m, 2m) of the base are columns [0, m) times g^m, whose
    # k x k matrix is step; BLOCK is a power of 2, so step ends as g^B's
    # matrix whenever there is more than one block
    base = np.zeros((k, min(BLOCK, n)), dtype=np.int64)
    base[0, 0] = 1
    m = 1
    while m < base.shape[1]:
        width = min(m, base.shape[1] - m)
        base[:, m:m + width] = step @ base[:, :width] % p
        step = step @ step % p
        m += width
    log = np.empty(q, dtype=np.int32)
    log[0] = 2 * n
    zech = np.zeros(n + 1, dtype=np.int32)
    jump = np.eye(k, dtype=np.int64)  # g^(aB)'s matrix
    for start in range(0, n, BLOCK):
        exp = 0  # exp[j] = g^(start + j), by Horner from its top digit down
        for row in jump[::-1]:
            digit = row @ base[:, :n - start]
            digit -= digit // p * p  # digit %= p; numpy's // by a scalar is faster
            exp = exp * p + digit
        log[exp] = np.arange(start, start + len(exp), dtype=np.int32)
        # digit is now base-p digit 0, and 1 + g^j adds 1 to it, with no carry
        zech[start:start + len(exp)] = exp + 1 - p * (digit == p - 1)
        jump = step @ jump % p
    for start in range(0, n, BLOCK):  # codes of 1 + g^j to their logs
        block = zech[start:min(start + BLOCK, n)]
        block[:] = log[block]
    zech[log[p - 1]] = _ZERO_LOG  # 1 + g^j = 0 where g^j = -1
    return log, zech


def _frobenius_orbits(p: int, k: int):
    """(reps, sizes) of F_{p^k} as described in FiniteField: per block of
    i in [0, q-1), i is a rep if it is the least of i p^t mod (q-1),
    t < k, and its orbit has k / #{t : i p^t = i} elements."""
    import numpy as np
    n = p**k - 1
    reps, sizes = [], []
    for start in range(0, n, BLOCK):
        i = np.arange(start, min(start + BLOCK, n), dtype=np.int64)
        low, fixed, r = i.copy(), np.ones(len(i), dtype=np.int8), i
        for _ in range(1, k):
            r = r * p
            r -= r // n * n  # r %= n; numpy's // by a scalar is faster
            np.minimum(low, r, out=low)
            fixed += r == i
        is_rep = low == i
        reps.append(i[is_rep].astype(np.int32))
        sizes.append(k // fixed[is_rep])
    return np.concatenate(reps), np.concatenate(sizes)


# (p, k) -> None after its first build, its FiniteField from the second
_FIELD_CACHE: dict = {}


def make_field(p: int, k: int) -> FiniteField:
    """F_{p^k} with the lexicographically smallest monic irreducible
    modulus (coefficients compared from the constant term up), with all
    of its tables, kept from its second request on: the first build of
    (p, k) leaves only a marker, so a field asked for once is freed with
    its caller, and one asked for again is built twice, then cached."""
    field = _FIELD_CACHE.get((p, k))
    if field is not None:
        return field
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if k < 1:
        raise ValueError("k must be >= 1")
    if p**k > SIZE_BOUND:
        raise ValueError(f"p^k = {p**k} exceeds {SIZE_BOUND}")
    for idx in range(p**k):  # a monic irreducible of every degree exists
        modulus = [(idx // p**j) % p for j in range(k)] + [1]
        if _is_irreducible(modulus, p):
            break
    log, zech = _log_tables(p, k, modulus)
    log = log[:p].copy()  # drops the q-entry table before the orbits
    tables = (log, zech, *_frobenius_orbits(p, k))
    for table in tables:  # the cached record is shared by every caller
        table.flags.writeable = False
    field = FiniteField(p, k, tuple(modulus), *tables)
    _FIELD_CACHE[(p, k)] = field if (p, k) in _FIELD_CACHE else None
    return field


# p -> None after its first Legendre table, the table from the second
_LEGENDRE_CACHE: dict = {}


def legendre(p: int) -> numpy.ndarray:
    """The Legendre symbol mod an odd prime p as a read-only int8 table:
    0 at 0, +1 at the nonzero squares r^2 mod p and -1 elsewhere.  Kept
    from its second request on, as make_field keeps a field."""
    table = _LEGENDRE_CACHE.get(p)
    if table is not None:
        return table
    import numpy as np
    table = np.full(p, -1, dtype=np.int8)
    table[0] = 0
    half = (p + 1) // 2
    for start in range(1, half, BLOCK):
        square = np.arange(start, min(start + BLOCK, half), dtype=np.int64) ** 2
        square -= square // p * p  # square %= p; numpy's // by a scalar is faster
        table[square] = 1
    table.flags.writeable = False  # the kept table is shared by every caller
    _LEGENDRE_CACHE[p] = table if p in _LEGENDRE_CACHE else None
    return table


# ---------------------------------------------------------------------------
# varieties

@dataclass(frozen=True)
class ProjectiveSpace:
    """P^n over F_q, q = p^k, with p and k read off q once.  Refused
    before any exact arithmetic where the mantissa 1/(k prod_{j<=n} (q^j - 1))
    of its special value is surely below 2^-1075, so rounds to 0.0:
    with b = q.bit_length(), each q^j - 1 >= 2^((b-1)j - 1)."""

    q: int
    n: int
    p: int = field(init=False, repr=False)
    k: int = field(init=False, repr=False)

    def __post_init__(self):
        q, n = self.q, self.n
        p, k = prime_power(q)
        if n < 0:
            raise ValueError("n must be >= 0")
        if n * (n + 1) // 2 * (q.bit_length() - 1) - n > 1075:
            raise ValueError(f"the exact special value of P^{n} over F_{q} "
                             "is not a nonzero finite float")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)


@dataclass(frozen=True)
class CurveSpec:
    """y^2 = f(x) over F_p, p an odd prime, deg f in {3, 5, 7}, f
    squarefree mod p.  Genus (deg f - 1) / 2."""

    p: int
    f: tuple  # integer coefficients, ascending
    k = 1  # q = p^k, as for ProjectiveSpace

    def __post_init__(self):
        if not is_prime(self.p) or self.p == 2:
            raise ValueError("curve base field must be an odd prime field")
        f = tuple(int(c) for c in self.f)
        while f and f[-1] % self.p == 0:
            f = f[:-1]
        if len(f) - 1 not in (3, 5, 7):
            raise ValueError("deg f mod p must be 3, 5 or 7")
        object.__setattr__(self, "f", f)
        fp = [c % self.p for c in f]
        dfp = [(i * c) % self.p for i, c in enumerate(fp)][1:]
        if len(_poly_gcd(list(fp), dfp, self.p)) > 1:
            raise SingularCurveError(f"f = {f} is not squarefree mod {self.p}")

    @property
    def genus(self) -> int:
        return (len(self.f) - 2) // 2


def count_points(variety, m: int = 1) -> int:
    """N_m = q^m + 1 + sum_{x in F_{q^m}} chi(f(x)) for a curve
    y^2 = f(x), subject to q^m <= 2^20: y^2 = v has 1 + chi(v) roots,
    and deg f is odd, so there is one point at infinity.  f is evaluated
    for m = 1 in int64 residues, one block of x at a time, reduced mod p
    only where the next multiply-add could pass 2^63, and sum chi is
    counted off the Legendre table.  For m >= 2 it is evaluated once per
    Frobenius orbit on the field's Zech table, one block of orbits at a
    time, in uint32 shifted logs updated in place: a zero coefficient
    costs one add and one reduction, a nonzero one a lookup, two adds and
    two reductions.
    """
    import numpy as np
    if m < 1:
        raise ValueError("m must be >= 1")
    if not isinstance(variety, CurveSpec):
        raise TypeError(f"unsupported variety {variety!r}")
    if variety.p**m > SIZE_BOUND:
        raise ValueError(f"q^m = {variety.p**m} exceeds {SIZE_BOUND}")
    p = variety.p
    f = [c % p for c in variety.f]
    if m == 1:
        chi, total = legendre(p), p + 1
        for start in range(0, p, BLOCK):
            x = np.arange(start, min(start + BLOCK, p), dtype=np.int64)
            acc = np.full(len(x), f[-1], dtype=np.int64)
            top = f[-1]  # the largest value acc can hold
            for c in reversed(f[:-1]):
                if top * (p - 1) + c >= 2**63:
                    acc -= acc // p * p  # acc %= p; numpy's // by a scalar is faster
                    top = p - 1
                acc *= x
                if c:
                    acc += c
                top = top * (p - 1) + c
            acc -= acc // p * p
            # sum chi = #{+1} - #{-1} = 2 #{+1} + #{0} - len
            values = chi[acc]
            total += 2 * int(np.count_nonzero(values > 0)) - int(np.count_nonzero(values))
        return total
    field = make_field(p, m)
    log, zech, n = field.log, field.zech.view(np.uint32), field.q - 1
    # S (see the module docstring) at x = g^reps is in [0, n), or above
    # 2^29 where acc = 0 (see _ZERO_LOG).  On uint32, v - n wraps above
    # every log for v < n, so reduce takes v in [0, 2n) into [0, n); the
    # index of a zero acc stays above n and clips onto zech[n] = 0, which
    # gives S = delta, since 0 x + c = c.  S and tmp, one block long, are
    # the only buffers, and take never writes into its own index array.
    def reduce(v, scratch):
        np.subtract(v, n, out=scratch)
        np.minimum(v, scratch, out=v)

    below, deltas = 0, []  # log c - log c'' of each nonzero c = f[i], i < deg f; None at a zero
    for c in f[:-1]:
        deltas.append((int(log[c]) - below) % n if c else None)
        if c:
            below = int(log[c])
    first = (int(log[f[-1]]) - below) % n  # S of the leading coefficient
    # the orbits cover x != 0, and x = 0 gives f(0)
    chi0 = 1 - 2 * int(log[f[0]] & 1) if f[0] else 0
    total = field.q + 1 + chi0
    for start in range(0, len(field.reps), BLOCK):
        reps = field.reps[start:start + BLOCK].view(np.uint32)
        S = np.full(len(reps), first, dtype=np.uint32)
        tmp = np.empty_like(S)
        for delta in reversed(deltas):
            np.add(S, reps, out=S)
            reduce(S, tmp)
            if delta is not None:
                np.take(zech, S, mode="clip", out=tmp)
                np.add(tmp, delta, out=tmp)
                reduce(tmp, S)
                S, tmp = tmp, S
        # chi = (-1)^S, 0 where acc = 0
        np.bitwise_and(S, 1, out=tmp)
        chi = 1 - 2 * tmp.astype(np.int8)
        chi[S >= n] = 0
        # |size * chi| <= k fits int8; the sum over a block does not
        total += int((field.sizes[start:start + BLOCK] * chi).sum(dtype=np.int64))
    return total


# ---------------------------------------------------------------------------
# zeta functions as rational functions of t = q^(-s)

@dataclass(frozen=True)
class ZetaRational:
    """Product/quotient of integer polynomials in t, each with constant
    term 1."""

    numerator_factors: tuple
    denominator_factors: tuple
    q: int

    def __post_init__(self):
        num = tuple(tuple(int(c) for c in f) for f in self.numerator_factors)
        den = tuple(tuple(int(c) for c in f) for f in self.denominator_factors)
        for f in num + den:
            if not f or f[0] != 1:
                raise ValueError("zeta factors must have constant term 1")
        object.__setattr__(self, "numerator_factors", num)
        object.__setattr__(self, "denominator_factors", den)


def expected_counts(zeta: ZetaRational, terms: int):
    """N_1..N_terms of Z(t), exact: t Z'/Z = sum_m N_m t^m.  For each
    factor f = 1 + a_1 t + ... + a_d t^d, t f'/f = sum_m s_m t^m with
    s_m = m a_m - sum_{0<i<m} a_i s_{m-i} (Newton's identities, a_i = 0
    for i > d), all in integers."""
    counts = [0] * terms
    for sign, factors in ((1, zeta.numerator_factors), (-1, zeta.denominator_factors)):
        for f in factors:
            a, s = f + (0,) * terms, [0]
            for m in range(1, terms + 1):
                s.append(m * a[m] - sum(a[i] * s[m - i] for i in range(1, m)))
                counts[m - 1] += sign * s[m]
    return counts


def zeta_pn(space: ProjectiveSpace) -> ZetaRational:
    """Z(P^n_{F_q}, t) = prod_{j=0}^{n} (1 - q^j t)^(-1)."""
    return ZetaRational((), tuple((1, -(space.q**j)) for j in range(space.n + 1)), space.q)


def zeta_curve(curve: CurveSpec, counts) -> ZetaRational:
    """Z(C, t) = P(t) / ((1-t)(1-qt)) with deg P = 2g, from the counts
    N_1..N_g at the head of ``counts`` (later counts are not read).

    P is determined by N_1..N_g through m a_m = sum c_i a_{m-i},
    c_i = N_i - 1 - q^i, and completed by the functional equation
    a_{2g-i} = q^(g-i) a_i.  The division by m is floor division: counts
    that no curve has make a step inexact, and then Z(t) does not
    reproduce them (expected_counts).
    """
    q, g = curve.p, curve.genus
    c = [None] + [counts[m - 1] - 1 - q**m for m in range(1, g + 1)]
    a = [1]
    for m in range(1, g + 1):
        a.append(sum(c[i] * a[m - i] for i in range(1, m + 1)) // m)
    for i in range(g - 1, -1, -1):
        a.append(q ** (g - i) * a[i])
    return ZetaRational((tuple(a),), ((1, -1), (1, -q)), q)


def curve_class_number(zeta: ZetaRational) -> int:
    """P(1) = number of degree-zero divisor classes."""
    (p_coeffs,) = zeta.numerator_factors
    return sum(p_coeffs)


def _shifted_order_and_lead(coeffs):
    """(ord, lead) of f at t=1: expand f(1+u), return the first nonzero
    coefficient and its index (f has constant term 1, so f(1+u) != 0)."""
    n = len(coeffs)
    for j in range(n):
        g_j = sum(coeffs[i] * comb(i, j) for i in range(j, n))
        if g_j:
            return j, g_j


def special_value_s0(zeta: ZetaRational) -> tuple:
    """(ord, c): order and leading Taylor coefficient of
    zeta(Y, s) = Z(Y, q^(-s)) at s=0, which is exactly c * (ln q)^ord
    with rational c.

    If Z has leading coefficient Z1 * (t-1)^rho at t=1 then substituting
    t = q^(-s) gives zeta^*(0) = Z1 * (-ln q)^rho, so c = (-1)^rho Z1.
    """
    rho, lead = 0, Fraction(1)
    for sign, factors in ((1, zeta.numerator_factors), (-1, zeta.denominator_factors)):
        for f in factors:
            o, l = _shifted_order_and_lead(f)
            rho += sign * o
            lead *= Fraction(l) ** sign
    return rho, -lead if rho % 2 else lead


def hasse_bound_holds(curve: CurveSpec, n1: int) -> bool:
    """|N_1 - (q+1)| <= 2g sqrt(q), checked by exact squaring."""
    return (n1 - curve.p - 1) ** 2 <= 4 * curve.genus**2 * curve.p


# ---------------------------------------------------------------------------
# the zeta side of a curve, checked exactly

def verify_ff(curve: CurveSpec):
    """(Z(t), checks) for a curve, where checks are ((name, ok), ...)
    on the zeta side alone: the Hasse bound and every count reproduced
    from Z(t).  A curve with q^g > SIZE_BOUND is refused before anything
    is counted; otherwise each N_m with m <= g or q^m <= COUNT_BOUND is
    counted once, N_1..N_g build Z(t), and all of them are checked
    against it: if the first inexact step of zeta_curve's recursion is
    m, Newton's identities put a wrong N_m back."""
    q, g = curve.p, curve.genus
    if q**g > SIZE_BOUND:
        raise ValueError(f"q^m = {q**g} exceeds {SIZE_BOUND}")
    top = g
    while q ** (top + 1) <= COUNT_BOUND:
        top += 1
    counts = [count_points(curve, m) for m in range(1, top + 1)]
    zeta = zeta_curve(curve, counts)
    checks = (
        ("Hasse bound", hasse_bound_holds(curve, counts[0])),
        ("counts reproduced from Z(t)", expected_counts(zeta, len(counts)) == counts),
    )
    return zeta, checks
