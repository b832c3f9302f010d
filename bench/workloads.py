"""Seeded request streams for the benchmark workloads.

A workload is an endless sequence of cycles.  Every cycle of a workload
has the same composition: the same verbs, and sizes drawn from the same
strata of a log-uniform range, one draw per stratum.  The seed and the
cycle number pick the concrete inputs (primes, discriminants,
polynomials, matrices), so two seeds load the program the same way
without sending it the same requests; the order of a cycle depends on
its number only, so that sizes arrive in the same sequence for every
seed.  Each draw lies in the middle
JITTER share of its stratum, which keeps the cost of a cycle nearly
independent of the seed; the costs grow up to cubically with the size,
so draws spread over whole strata would let one input set a cycle's
time.

The program sees only the generated argv lists (and, for the Smith
normal form, the generated matrices).  Inputs the program rejects by
design (singular curves, non-fundamental discriminants) are filtered
out here, with number theory of the benchmark's own.

Every workload keeps to inputs on which the program answers, since a
run must complete without a failed request.  Two known defects of the
program narrow the inputs beyond the range named for the workload:

* real quadratic fields whose regulator exceeds log(2^1024) ~ 709.8
  make the program raise OverflowError (the fundamental unit is turned
  into a float), so a real discriminant whose regulator exceeds
  REGULATOR_MAX gives way to the nearest one whose regulator does not;
* the program's Smith normal form can run for minutes on a few random
  6x6 matrices (entries grow without bound), so matrices are at most
  SNF_MAX_DIM x SNF_MAX_DIM.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 1  # the seed whose outputs reference.json pins
JITTER = 0.05
FF_GENERA = (1, 2, 3)
FF_STRATA = 4  # size strata per genus, over p^g in [2^10, 2^20]
QUAD_STRATA = 3  # size strata per sign, over |D| in [10^3, 10^6]
MIX_SHARE = 10  # requests per verb per verb_mix cycle
REGULATOR_MAX = 700.0  # real fields beyond ~709.8 make the program overflow
SNF_MAX_DIM = 5  # one in a few hundred matrices up to 6x6 stalls the program


@dataclass(frozen=True)
class Request:
    verb: str  # "numberring", "pn-of", "ff pn", "ff curve", "open" or "snf"
    argv: tuple = ()  # CLI argv; empty for "snf"
    matrix: tuple = ()  # (rows, cols, entries) for "snf"
    prime: int = 0  # base prime of an "ff curve" request

    @property
    def key(self) -> str:
        if self.verb == "snf":
            return f"snf {self.matrix}"
        return " ".join(self.argv)


# ---------------------------------------------------------------------------
# number theory for input generation

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3e24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _squarefree(n: int) -> bool:
    n, f = abs(n), 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 1
    return True


def is_fundamental(d: int) -> bool:
    if d % 4 == 1:
        return d != 1 and _squarefree(d)
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and _squarefree(d // 4)


def regulator(d: int) -> float:
    """Regulator of the real quadratic field of fundamental discriminant
    d: the sum of log x_i over one period of the continued fraction of
    (1 + sqrt(d))/2, or sqrt(d/4) for even d, whose complete quotients
    x_i = (P + sqrt(n))/Q multiply to the fundamental unit."""
    n, p, q = (d // 4, 0, 1) if d % 4 == 0 else (d, 1, 2)
    s, root = math.isqrt(n), math.sqrt(n)
    seen, logs = {}, []
    while (p, q) not in seen:
        seen[(p, q)] = len(logs)
        logs.append(math.log((p + root) / q))
        a = (p + s) // q
        p = a * q - p
        q = (n - p * p) // q
    return math.fsum(logs[seen[(p, q)]:])


def _nearest(target: int, ok, lo: int = 2, hi: int | None = None) -> int:
    """The integer closest to ``target`` within [lo, hi] that passes ``ok``."""
    for step in itertools.count():
        if hi is not None and target - step < lo and target + step > hi:
            raise ValueError(f"nothing near {target} in [{lo}, {hi}]")
        for n in (target + step, target - step):
            if n >= lo and (hi is None or n <= hi) and ok(n):
                return n


def _stratum_point(rng: random.Random, i: int, strata: int) -> float:
    """A point of [0, 1) in the middle JITTER share of stratum i."""
    return (i + 0.5 + JITTER * (rng.random() - 0.5)) / strata


def _ordered(requests: list, workload: str, cycle: int) -> list:
    random.Random(f"{workload}:order:{cycle}").shuffle(requests)
    return requests


def _log_uniform(rng, i, strata, lo: float, hi: float) -> int:
    """A size in stratum i of the log-uniform range [lo, hi]."""
    return round(lo * (hi / lo) ** _stratum_point(rng, i, strata))


# ---------------------------------------------------------------------------
# ff_curves: `ff curve --json` on hyperelliptic curves of genus 1, 2, 3

def _poly_rem(a, b, p):
    """Remainder of a by b over F_p, coefficient lists ascending."""
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bi) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def squarefree_mod(f, p: int) -> bool:
    """gcd(f, f') = 1 over F_p for f of degree < p."""
    a = [c % p for c in f]
    b = [i * c % p for i, c in enumerate(a)][1:]
    while b:
        a, b = b, _poly_rem(a, b, p)
    return len(a) == 1


def _poly_arg(coeffs) -> str:
    terms = [f"{c}x^{i}" if i else str(c) for i, c in enumerate(coeffs) if c]
    return "+".join(reversed(terms))


def _curve(rng: random.Random, p: int, genus: int) -> Request:
    while True:
        f = [rng.randrange(p) for _ in range(2 * genus + 1)] + [1]
        if squarefree_mod(f, p):
            argv = ("ff", "curve", "--p", str(p), "--f", _poly_arg(f), "--json")
            return Request("ff curve", argv, prime=p)


def _prime_bounds(genus: int) -> tuple:
    """Smallest and largest prime p with 2^10 <= p^genus <= 2^20."""
    lo = math.ceil(2 ** (10 / genus))
    hi = math.floor(2 ** (20 / genus) * (1 + 1e-12))
    while hi ** genus > 2**20:
        hi -= 1
    return _nearest(lo, is_prime, lo, hi), _nearest(hi, is_prime, lo, hi)


def warm_primes(genus: int) -> list:
    """The fixed primes of the warm half: one per stratum midpoint."""
    lo, hi = _prime_bounds(genus)
    return [
        _nearest(round(2 ** ((10 + 10 * (i + 0.5) / FF_STRATA) / genus)), is_prime, lo, hi)
        for i in range(FF_STRATA)
    ]


def ff_curves(seed: int):
    """Cycles of 2 * 3 * FF_STRATA curves.  In each cycle, for every
    genus and size stratum, one curve over the stratum's fixed warm prime
    and one over a cold prime: one that no earlier request of the process
    has used, so that its fields are built cold, taken from the middle
    half of the stratum.  Once a stratum has no unused prime left there
    (genus 3 has only 22 primes in all), its cold curve takes the
    nearest prime instead, so sizes stay put; the measured warm share
    reports how often that happened."""
    warm = {g: warm_primes(g) for g in FF_GENERA}
    used = {p for ps in warm.values() for p in ps}
    cycle = 0
    while True:
        rng = random.Random(f"ff_curves:{seed}:{cycle}")
        requests = []
        for g in FF_GENERA:
            lo, hi = _prime_bounds(g)
            for i in range(FF_STRATA):
                requests.append(_curve(rng, warm[g][i], g))
                target = round(_log_uniform(rng, i, FF_STRATA, 2**10, 2**20) ** (1 / g))
                window = [2 ** ((10 + 10 * (i + f) / FF_STRATA) / g) for f in (0.25, 0.75)]
                try:
                    p = _nearest(target, lambda n: is_prime(n) and n not in used,
                                 max(lo, math.ceil(window[0])), min(hi, math.floor(window[1])))
                except ValueError:
                    p = _nearest(target, is_prime, lo, hi)
                used.add(p)
                requests.append(_curve(rng, p, g))
        yield _ordered(requests, "ff_curves", cycle)
        cycle += 1


def ff_curves_setup(seed: int) -> list:
    """One curve per warm prime, run before timing so those fields are warm."""
    rng = random.Random(f"ff_curves:{seed}:setup")
    return [_curve(rng, p, g) for g in FF_GENERA for p in warm_primes(g)]


# ---------------------------------------------------------------------------
# quad_fields: `numberring --disc D --json` for fundamental D

def _quadratic_ok(d: int) -> bool:
    return is_fundamental(d) and (d < 0 or regulator(d) <= REGULATOR_MAX)


def _fundamental_near(size: int, sign: int, lo: int = 3) -> int:
    return sign * _nearest(size, lambda n: _quadratic_ok(sign * n), lo)


def quad_fields(seed: int):
    """Cycles of 2 * QUAD_STRATA fields: both signs, |D| in [10^3, 10^6]."""
    cycle = 0
    while True:
        rng = random.Random(f"quad_fields:{seed}:{cycle}")
        requests = []
        for sign in (1, -1):
            for i in range(QUAD_STRATA):
                d = _fundamental_near(_log_uniform(rng, i, QUAD_STRATA, 1e3, 1e6), sign)
                requests.append(Request("numberring", ("numberring", "--disc", str(d), "--json")))
        yield _ordered(requests, "quad_fields", cycle)
        cycle += 1


# ---------------------------------------------------------------------------
# verb_mix: the other verbs, MIX_SHARE requests each per cycle

SMALL_DISCS = (1,) + tuple(d for d in range(-99, 100) if abs(d) > 1 and is_fundamental(d))
OPEN_BASES = (1, -4, -3, 5, -23, 8)
OPEN_PRIMES = (3, 7, 11, 13, 17, 19, 29, 31)
REPORT_DIR = ".bench_work/reports"


def _residue_field(disc: int, p: int) -> int:
    """Size of a residue field of O_F above the odd prime p not dividing disc."""
    return p if disc == 1 or pow(disc % p, (p - 1) // 2, p) == 1 else p * p


def _report_path(name: str) -> str:
    return f"{REPORT_DIR}/{name}.json"


def verb_mix_setup() -> dict:
    """Report files for `open`: path -> the request whose report it holds.
    Each fiber is a closed point of its base: P^0 over the residue field
    at a prime that does not divide the discriminant."""
    files = {}
    for d in OPEN_BASES:
        files[_report_path(f"base{d}")] = Request("numberring", ("numberring", "--disc", str(d), "--json"))
        for p in OPEN_PRIMES:
            if d % p:
                q = _residue_field(d, p)
                files[_report_path(f"point{q}")] = Request("ff pn", ("ff", "pn", "--q", str(q), "--n", "0", "--json"))
    return files


def _open(rng: random.Random) -> Request:
    d = rng.choice(OPEN_BASES)
    primes = rng.sample([p for p in OPEN_PRIMES if d % p], rng.randint(1, 2))
    fibers = [_report_path(f"point{_residue_field(d, p)}") for p in primes]
    return Request("open", ("open", _report_path(f"base{d}"), *fibers, "--json"))


def _ff_pn(rng: random.Random, i: int) -> Request:
    q = _log_uniform(rng, i, MIX_SHARE, 2, 1e12)
    k = rng.choice([k for k in (1, 2, 3) if q ** (1 / k) >= 2])
    p = _nearest(round(q ** (1 / k)), is_prime)
    argv = ("ff", "pn", "--q", str(p**k), "--n", str(rng.randint(0, 3)), "--json")
    return Request("ff pn", argv)


def _pn_of(rng: random.Random, i: int, sign: int) -> Request:
    d = _fundamental_near(_log_uniform(rng, i, MIX_SHARE // 2, 10, 1e6), sign)
    return Request("pn-of", ("pn-of", "--disc", str(d), "--n", str(rng.randint(1, 6)), "--json"))


def _snf(rng: random.Random) -> Request:
    rows, cols = rng.randint(0, SNF_MAX_DIM), rng.randint(0, SNF_MAX_DIM)
    entries = tuple(rng.randint(-10, 10) for _ in range(rows * cols))
    return Request("snf", matrix=(rows, cols, entries))


def verb_mix(seed: int):
    """Cycles of 5 * MIX_SHARE requests: pn-of (both signs, n in 1..6,
    |D| in [10, 10^6]), ff pn (q = p^k in [2, 10^12]), open, numberring
    for Q and |D| < 100, and the Smith normal form of matrices up to
    SNF_MAX_DIM x SNF_MAX_DIM."""
    cycle = 0
    while True:
        rng = random.Random(f"verb_mix:{seed}:{cycle}")
        requests = [_pn_of(rng, i // 2, (1, -1)[i % 2]) for i in range(MIX_SHARE)]
        requests += [_ff_pn(rng, i) for i in range(MIX_SHARE)]
        requests += [_open(rng) for _ in range(MIX_SHARE)]
        requests += [
            Request("numberring", ("numberring", "--disc", str(rng.choice(SMALL_DISCS)), "--json"))
            for _ in range(MIX_SHARE)
        ]
        requests += [_snf(rng) for _ in range(MIX_SHARE)]
        yield _ordered(requests, "verb_mix", cycle)
        cycle += 1


WORKLOADS = {"ff_curves": ff_curves, "quad_fields": quad_fields, "verb_mix": verb_mix}
