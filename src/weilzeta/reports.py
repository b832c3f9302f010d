"""Verification reports: the builders for each verified object and the
JSON wire format.

Special values mix a rational mantissa with transcendental factors
(powers of ln p per prime, and a real residual such as a regulator).
Reports keep the three parts separate and only collapse to a float for
display, so exact cases are compared exactly and never through rounded
floats.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields
from fractions import Fraction

from . import ff_zeta, weil_tables
from .fgab import rank_weighted_euler, torsion_euler
from .lfunc import AnalyticSideUnavailable, dedekind_leading_at_0
from .motivic_rank import pn_of_order
from .number_field import NumberFieldInvariants

PASS = "PASS"
FAIL = "FAIL"
RANK_ONLY = "RANK_ONLY"
UNSUPPORTED = "UNSUPPORTED"

EXIT_CODES = {PASS: 0, RANK_ONLY: 0, FAIL: 2, UNSUPPORTED: 3}
DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class SymbolicValue:
    """mantissa * prod_p (ln p)^e_p * real_factor, refused on
    construction unless numeric() is a nonzero finite float."""

    mantissa: Fraction
    log_exponents: dict = field(default_factory=dict)
    real_factor: float = 1.0

    def __post_init__(self):
        # (ln p)^0 = 1: one normal form, so equality is field equality
        if 0 in self.log_exponents.values():
            object.__setattr__(self, "log_exponents", {p: e for p, e in self.log_exponents.items() if e})
        try:
            value = self.numeric()
        except OverflowError:
            value = math.inf
        _require(value != 0 and math.isfinite(value), "special value is not a nonzero finite float")

    def numeric(self) -> float:
        out = float(self.mantissa) * self.real_factor
        for p, e in self.log_exponents.items():
            out *= math.log(p) ** e
        return out

    def divided_by(self, others) -> "SymbolicValue":
        """self / prod(others), built once: log exponents subtract, the
        mantissa and real factor divide in order, and only the quotient
        must be a nonzero finite float."""
        exps, mantissa, real = dict(self.log_exponents), self.mantissa, self.real_factor
        for other in others:
            for p, e in other.log_exponents.items():
                exps[p] = exps.get(p, 0) - e
            mantissa, real = mantissa / other.mantissa, real / other.real_factor
        return SymbolicValue(mantissa, exps, real)

    def to_json(self) -> dict:
        return {
            "mantissa": str(self.mantissa),
            "log_exponents": {str(p): e for p, e in self.log_exponents.items()},
            "real_factor": self.real_factor,
            "numeric": self.numeric(),
        }

    @classmethod
    def from_json(cls, obj) -> "SymbolicValue":
        """Inverse of to_json; ValueError unless the mantissa is a nonzero
        rational string, each log base a prime with an int exponent, the
        real factor finite and nonzero, and the value a nonzero finite float."""
        try:
            mantissa, exps, real = obj["mantissa"], obj["log_exponents"], obj["real_factor"]
            _require(isinstance(mantissa, str) and re.fullmatch(r"-?\d+(/\d+)?", mantissa)
                     and Fraction(mantissa) != 0,
                     "special value mantissa must be a nonzero rational string")
            exps = {int(p): e for p, e in exps.items()}
            _require(all(_is_int(e) and ff_zeta.is_prime(p) for p, e in exps.items()),
                     "special value log_exponents must map primes to integers")
            _require((_is_int(real) or isinstance(real, float)) and math.isfinite(real) and real != 0,
                     "special value real_factor must be a finite nonzero number")
            value = cls(Fraction(mantissa), exps, float(real))
        except (KeyError, TypeError, AttributeError, ArithmeticError) as exc:
            raise ValueError(f"malformed special value: {exc!r}") from None
        return value


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _is_group(g) -> bool:
    """A weil_table entry as serialize_table writes it."""
    return (isinstance(g, dict) and _is_int(g.get("rank"))
            and isinstance(g.get("torsion_order"), str)
            and isinstance(g.get("torsion_known"), bool))


def serialize_table(table) -> dict:
    return {
        "dim": table.dim,
        "delta": table.delta,
        "entries": {
            str(i): {
                "rank": g.rank,
                "torsion_order": str(g.torsion_order),
                "torsion_known": g.torsion_known,
            }
            for i, g in sorted(table.entries.items())
        },
        "caveats": list(table.caveats),
    }


@dataclass(kw_only=True)
class VerificationReport:
    object: str
    invariants: dict = field(default_factory=dict)
    weil_table: dict | None = None
    rank_predicted: int | None = None
    ord_computed: int | None = None
    special_value_predicted: SymbolicValue | None = None
    special_value_computed: SymbolicValue | None = None
    verdict: str
    tolerances: dict = field(default_factory=dict)
    caveats: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]


_KEY_ORDER = tuple(f.name for f in fields(VerificationReport))


def emit_report(report: VerificationReport, as_json: bool = False) -> str:
    if as_json:
        return json.dumps({k: getattr(report, k) for k in _KEY_ORDER}, indent=2,
                          default=SymbolicValue.to_json)

    lines = [f"object:            {report.object}"]
    if report.invariants:
        inv = ", ".join(f"{k}={v}" for k, v in report.invariants.items())
        lines.append(f"invariants:        {inv}")
    if report.weil_table:
        lines.append("weil table:")
        for i, g in report.weil_table["entries"].items():
            known = "" if g["torsion_known"] else "  (torsion unknown)"
            lines.append(
                f"  H^{i}: rank {g['rank']}, torsion order {g['torsion_order']}{known}"
            )
    if report.rank_predicted is not None:
        lines.append(f"rank predicted:    {report.rank_predicted}")
    if report.ord_computed is not None:
        lines.append(f"ord computed:      {report.ord_computed}")
    for label, sv in (
        ("value predicted", report.special_value_predicted),
        ("value computed", report.special_value_computed),
    ):
        if sv is not None:
            parts = [str(sv.mantissa)]
            parts += [f"(ln {p})^{e}" for p, e in sorted(sv.log_exponents.items())]
            if sv.real_factor != 1.0:
                parts.append(f"{sv.real_factor!r}")
            lines.append(f"{label + ':':<19}{' * '.join(parts)} = {sv.numeric()!r}")
    if report.tolerances:
        tol = ", ".join(f"{k}={v}" for k, v in report.tolerances.items())
        lines.append(f"tolerances:        {tol}")
    if report.caveats:
        lines.append(f"caveats:           {'; '.join(report.caveats)}")
    lines.append(f"verdict:           {report.verdict}")
    return "\n".join(lines)


def parse_report(text: str) -> VerificationReport:
    """Inverse of emit_report(..., as_json=True); ValueError on any JSON
    that is not such a report, so that every report it returns can be
    emitted and opened."""
    obj = json.loads(text)
    _require(isinstance(obj, dict), "report is not a JSON object")
    missing = [k for k in _KEY_ORDER if k not in obj]
    _require(not missing, f"report lacks key(s): {', '.join(missing)}")
    _require(isinstance(obj["verdict"], str) and obj["verdict"] in EXIT_CODES,
             f"unknown verdict {obj['verdict']!r}")
    _require(isinstance(obj["object"], str), "report object must be a string")
    for key in ("invariants", "tolerances"):
        _require(isinstance(obj[key], dict), f"report {key} must be a JSON object")
    for key in ("rank_predicted", "ord_computed"):
        _require(obj[key] is None or _is_int(obj[key]), f"report {key} must be an integer or null")
    # no builder writes a PASS or RANK_ONLY whose rank and order differ
    _require(obj["verdict"] not in (PASS, RANK_ONLY) or obj["rank_predicted"] is not None
             and obj["rank_predicted"] == obj["ord_computed"],
             f"a {obj['verdict']} report needs rank_predicted equal to ord_computed")
    caveats, table = obj["caveats"], obj["weil_table"]
    _require(isinstance(caveats, list) and all(isinstance(c, str) for c in caveats),
             "report caveats must be a list of strings")
    entries = table.get("entries") if isinstance(table, dict) else None
    _require(table is None or isinstance(entries, dict) and all(map(_is_group, entries.values())),
             "report weil_table entries must be {rank, torsion_order, torsion_known} objects")
    for key in ("special_value_predicted", "special_value_computed"):
        if obj.get(key) is not None:
            obj[key] = SymbolicValue.from_json(obj[key])
    return VerificationReport(**{k: obj[k] for k in _KEY_ORDER})


def load_report(path) -> VerificationReport:
    with open(path, encoding="utf-8") as fh:
        return parse_report(fh.read())


# ---------------------------------------------------------------------------
# report builders

def decide(checks, inputs=()):
    """(verdict, caveats) from named (name, passed) checks and the inputs'
    verdicts: UNSUPPORTED, then FAIL with a 'failed: <name>' caveat per
    failed check, then RANK_ONLY if any input is, and only then PASS."""
    failed = [f"failed: {name}" for name, passed in checks if not passed]
    if UNSUPPORTED in inputs:
        return UNSUPPORTED, []
    if failed or FAIL in inputs:
        return FAIL, failed
    return (RANK_ONLY if RANK_ONLY in inputs else PASS), []


def pn_of_report(inv: NumberFieldInvariants, n: int = 0,
                 k_torsion: dict | None = None) -> VerificationReport:
    """Compare the prediction read off pn_of_table with the zeta side: the
    rank Euler characteristic of the table must equal the vanishing order,
    the same rule as ff pn.  At n = 0, P^0 = Spec O_F and the order and
    value -(torsion Euler characteristic) R = -hR/w meet L-values at s=0;
    for n >= 1 the order is Soule's sum pn_of_order, and the determinant
    side, which needs K-theory torsion plus zeta values off s=0, is
    reported rank-only.  The table checks n and the K-torsion indices
    first, so for n = 0 every index is refused."""
    table = weil_tables.pn_of_table(inv, n, k_torsion)
    rank = rank_weighted_euler(table)
    predicted = computed = None
    if n == 0:
        name, tolerances = "Spec O_F", {"value": DEFAULT_TOL}
        predicted = SymbolicValue(-torsion_euler(table), {}, inv.R)
        try:
            order, value = dedekind_leading_at_0(inv)
        except AnalyticSideUnavailable as exc:
            order = None
            verdict, caveats = UNSUPPORTED, [str(exc)]
        else:
            computed = SymbolicValue(Fraction(1), {}, value)
            # Q and D < 0: both sides round rationals that differ by many ulps or not at all
            tolerances = {"value": 0 if order == 0 and inv.R == 1.0 else DEFAULT_TOL}
            delta = abs(value - predicted.numeric())
            bound = tolerances["value"] * max(1.0, abs(predicted.numeric()))
            verdict, caveats = decide((
                (f"ord computed {order} != rank predicted {rank}", order == rank),
                (f"|computed - predicted| = {delta!r} > tol * max(1, |predicted|) = {bound!r}",
                 delta <= bound),
            ))
    else:
        name, tolerances = f"P^{n} over O_F", {}
        order = pn_of_order(inv, n)
        caveats = list(table.caveats)
        if weil_tables.UNKNOWN_TORSION_CAVEAT not in caveats:
            caveats.append("analytic determinant unavailable for n >= 1")
        verdict, failed = decide(
            (("vanishing order equals rank Euler characteristic", rank == order),), inputs=(RANK_ONLY,))
        caveats += failed
    return VerificationReport(
        object=f"{name}, disc {inv.disc}",
        invariants=dict(vars(inv)),
        weil_table=serialize_table(table),
        rank_predicted=rank,
        ord_computed=order,
        special_value_predicted=predicted,
        special_value_computed=computed,
        verdict=verdict,
        tolerances=tolerances,
        caveats=caveats,
    )


def ff_value(c: Fraction, e: int, variety) -> SymbolicValue:
    """c * (ln q)^e for the variety's q = p^k, with k^e folded into the
    mantissa: c * k^e * (ln p)^e."""
    return SymbolicValue(c * Fraction(variety.k) ** e, {variety.p: e}, 1.0)


def ff_report(variety) -> VerificationReport:
    """Exact finite-field verification: the zeta side from Z(t) against
    rho and |c| predicted by the Weil-etale table (P^n) or by rho = -1 and
    P(1)/(q-1) (curves).  Signs are compared up to +-1: the determinant
    is defined up to sign."""
    if isinstance(variety, ff_zeta.ProjectiveSpace):
        q, n = variety.q, variety.n
        name = f"P^{n} over F_{q}"
        invariants = {"q": q, "n": n}
        table = weil_tables.pn_fq_table(variety)
        table_json = serialize_table(table)
        zeta, checks = ff_zeta.zeta_pn(variety), ()
        rank, torsion = rank_weighted_euler(table), torsion_euler(table)
        names = ("vanishing order equals rank Euler characteristic",
                 "|mantissa| equals torsion Euler characteristic")
    else:
        q, fstr = variety.p, poly_to_str(variety.f)
        name = f"curve y^2 = {fstr} over F_{q} (genus {variety.genus})"
        invariants = {"p": q, "f": fstr, "genus": variety.genus}
        table_json = None  # no Weil table for curves: rho and P(1) predict
        zeta, checks = ff_zeta.verify_ff(variety)
        rank, torsion = -1, Fraction(ff_zeta.curve_class_number(zeta), q - 1)
        names = ("vanishing order is -1", "|mantissa| (q-1) = P(1)")
    ord_, lead = ff_zeta.special_value_s0(zeta)
    verdict, failed = decide((*checks, (names[0], ord_ == rank), (names[1], abs(lead) == torsion)))
    return VerificationReport(
        object=name,
        invariants=invariants,
        weil_table=table_json,
        rank_predicted=rank,
        ord_computed=ord_,
        # only a wrong count predicts |c| = P(1)/(q-1) = 0, which no value carries
        special_value_predicted=(ff_value(-torsion if rank % 2 else torsion, rank, variety)
                                 if torsion else None),
        special_value_computed=ff_value(lead, ord_, variety),
        verdict=verdict,
        tolerances={"value": 0},
        caveats=[*failed, "sign compared up to +-1"],
    )


def open_report(base: VerificationReport, fibers) -> VerificationReport:
    """Report for the open complement U of closed fibers Y_i inside X:
    zeta multiplicativity makes orders and ranks subtract, and the
    special value divide, by all fibers at once, so only U's own value
    must be a nonzero finite float; U's verdict is no stronger than its inputs'."""
    fibers = list(fibers)
    if not fibers:
        return base
    reports = [base, *fibers]
    # each is base minus the fibers, None unless every report has it
    ranks, ords, values = ([getattr(r, key) for r in reports] for key in
                           ("rank_predicted", "ord_computed", "special_value_computed"))
    rank = None if None in ranks else ranks[0] - sum(ranks[1:])
    ord_ = None if None in ords else ords[0] - sum(ords[1:])
    value = None if None in values else values[0].divided_by(values[1:])
    verdict, failed = decide((("ord additivity", rank is not None and ord_ == rank),),
                             inputs=[r.verdict for r in reports])
    return VerificationReport(
        object=f"{base.object} minus [{', '.join(f.object for f in fibers)}]",
        rank_predicted=rank,
        ord_computed=ord_,
        special_value_computed=value,
        verdict=verdict,
        caveats=[*failed, *sorted({c for r in reports for c in r.caveats})],
    )


def poly_to_str(coeffs) -> str:
    out = ""
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c:
            out += "-" if c < 0 else "+" if out else ""
            out += "" if abs(c) == 1 and i else str(abs(c))
            out += "" if i == 0 else "x" if i == 1 else f"x^{i}"
    return out or "0"
