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
from dataclasses import dataclass, field
from fractions import Fraction

from . import ff_zeta, weil_tables
from .fgab import rank_weighted_euler
from .lfunc import AnalyticSideUnavailable, dedekind_leading_at_0
from .motivic_rank import pn_of_order, soule_rank
from .number_field import NumberFieldInvariants

PASS = "PASS"
FAIL = "FAIL"
RANK_ONLY = "RANK_ONLY"
UNSUPPORTED = "UNSUPPORTED"

EXIT_CODES = {PASS: 0, RANK_ONLY: 0, FAIL: 2, UNSUPPORTED: 3}
DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class SymbolicValue:
    """mantissa * prod_p (ln p)^e_p * real_factor."""

    mantissa: Fraction
    log_exponents: dict = field(default_factory=dict)
    real_factor: float = 1.0

    def numeric(self) -> float:
        out = float(self.mantissa) * self.real_factor
        for p, e in self.log_exponents.items():
            out *= math.log(p) ** e
        return out

    def __truediv__(self, other: "SymbolicValue") -> "SymbolicValue":
        exps = dict(self.log_exponents)
        for p, e in other.log_exponents.items():
            exps[p] = exps.get(p, 0) - e
        return SymbolicValue(
            self.mantissa / other.mantissa,
            {p: e for p, e in exps.items() if e},
            self.real_factor / other.real_factor,
        )

    def __eq__(self, other):
        if not isinstance(other, SymbolicValue):
            return NotImplemented
        return (
            self.mantissa == other.mantissa
            and {p: e for p, e in self.log_exponents.items() if e}
            == {p: e for p, e in other.log_exponents.items() if e}
            and self.real_factor == other.real_factor
        )

    def to_json(self) -> dict:
        return {
            "mantissa": str(self.mantissa),
            "log_exponents": {str(p): e for p, e in self.log_exponents.items()},
            "real_factor": self.real_factor,
            "numeric": self.numeric(),
        }

    @classmethod
    def from_json(cls, obj) -> "SymbolicValue":
        try:
            return cls(
                Fraction(obj["mantissa"]),
                {int(p): e for p, e in obj["log_exponents"].items()},
                obj["real_factor"],
            )
        except (KeyError, TypeError, AttributeError, ArithmeticError) as exc:
            raise ValueError(f"malformed special value: {exc!r}") from None


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


@dataclass
class VerificationReport:
    object: str
    invariants: dict
    weil_table: dict | None
    rank_predicted: int | None
    ord_computed: int | None
    special_value_predicted: SymbolicValue | None
    special_value_computed: SymbolicValue | None
    verdict: str
    tolerances: dict = field(default_factory=dict)
    caveats: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]


_KEY_ORDER = (
    "object", "invariants", "weil_table", "rank_predicted", "ord_computed",
    "special_value_predicted", "special_value_computed", "verdict",
    "tolerances", "caveats",
)


def emit_report(report: VerificationReport, as_json: bool = False) -> str:
    if as_json:
        payload = {}
        for key in _KEY_ORDER:
            value = getattr(report, key)
            if isinstance(value, SymbolicValue):
                value = value.to_json()
            payload[key] = value
        return json.dumps(payload, indent=2)

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
    that is not such a report."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("report is not a JSON object")
    missing = [k for k in _KEY_ORDER if k not in obj]
    if missing:
        raise ValueError(f"report lacks key(s): {', '.join(missing)}")
    if not isinstance(obj["verdict"], str) or obj["verdict"] not in EXIT_CODES:
        raise ValueError(f"unknown verdict {obj['verdict']!r}")
    for key in ("special_value_predicted", "special_value_computed"):
        if obj.get(key) is not None:
            obj[key] = SymbolicValue.from_json(obj[key])
    return VerificationReport(**{k: obj[k] for k in _KEY_ORDER})


def load_report(path) -> VerificationReport:
    with open(path, encoding="utf-8") as fh:
        return parse_report(fh.read())


# ---------------------------------------------------------------------------
# report builders

def _invariants_dict(inv: NumberFieldInvariants) -> dict:
    return {"r1": inv.r1, "r2": inv.r2, "h": inv.h, "R": inv.R,
            "w": inv.w, "disc": inv.disc}


def numberring_report(inv: NumberFieldInvariants, tol: float = DEFAULT_TOL,
                      object_name: str | None = None) -> VerificationReport:
    """Compare the cohomological prediction (ord = r1+r2-1, -hR/w) with
    the analytic side computed from L-values at s=0."""
    table = weil_tables.numberring_compact_table(inv)
    rank = rank_weighted_euler(table)
    predicted = SymbolicValue(Fraction(-inv.h, inv.w), {}, inv.R)
    name = object_name or f"Spec O_F, disc {inv.disc}"
    try:
        ord_, value = dedekind_leading_at_0(inv)
    except AnalyticSideUnavailable as exc:
        return VerificationReport(
            object=name,
            invariants=_invariants_dict(inv),
            weil_table=serialize_table(table),
            rank_predicted=rank,
            ord_computed=None,
            special_value_predicted=predicted,
            special_value_computed=None,
            verdict=UNSUPPORTED,
            tolerances={"value": tol},
            caveats=[str(exc)],
        )
    computed = SymbolicValue(Fraction(1), {}, value)
    value_ok = abs(computed.numeric() - predicted.numeric()) <= tol * max(
        1.0, abs(predicted.numeric())
    )
    verdict = PASS if (ord_ == rank and value_ok) else FAIL
    return VerificationReport(
        object=name,
        invariants=_invariants_dict(inv),
        weil_table=serialize_table(table),
        rank_predicted=rank,
        ord_computed=ord_,
        special_value_predicted=predicted,
        special_value_computed=computed,
        verdict=verdict,
        tolerances={"value": tol},
        caveats=[],
    )


def pn_of_report(inv: NumberFieldInvariants, n: int,
                 k_torsion: dict | None = None,
                 tol: float = DEFAULT_TOL) -> VerificationReport:
    """Rank identity for P^n over a number ring: the motivic alternating
    sum must equal the sum of zeta vanishing orders.  The determinant
    side needs K-theory torsion plus zeta values off s=0 and is reported
    rank-only."""
    if n == 0:
        return numberring_report(inv, tol, object_name=f"P^0 over O_F, disc {inv.disc}")
    table = weil_tables.pn_of_table(inv, n, k_torsion)
    rank = soule_rank(inv, n)
    order = pn_of_order(inv, n)
    caveats = list(table.caveats)
    if weil_tables.UNKNOWN_TORSION_CAVEAT not in caveats:
        caveats.append("analytic determinant unavailable for n >= 1")
    return VerificationReport(
        object=f"P^{n} over O_F, disc {inv.disc}",
        invariants=_invariants_dict(inv),
        weil_table=serialize_table(table),
        rank_predicted=rank,
        ord_computed=order,
        special_value_predicted=None,
        special_value_computed=None,
        verdict=RANK_ONLY if rank == order else FAIL,
        tolerances={},
        caveats=caveats,
    )


def ff_value(c: Fraction, e: int, q: int) -> SymbolicValue:
    """c * (ln q)^e for q = p^k, with k^e folded into the mantissa:
    c * k^e * (ln p)^e."""
    p, k = ff_zeta.prime_power(q)
    return SymbolicValue(c * Fraction(k) ** e, {p: e} if e else {}, 1.0)


def ff_report(variety, count_bound: int = 2**16) -> VerificationReport:
    """Exact finite-field verification (both sides rational)."""
    v = ff_zeta.verify_ff(variety, count_bound=count_bound)
    if isinstance(variety, ff_zeta.ProjectiveSpace):
        name = f"P^{variety.n} over F_{variety.q}"
        table = weil_tables.pn_fq_table(variety.q, variety.n)
        table_json = serialize_table(table)
        invariants = {"q": variety.q, "n": variety.n}
    else:
        fstr = poly_to_str(variety.f)
        name = f"curve y^2 = {fstr} over F_{variety.p} (genus {variety.genus})"
        table_json = None  # no Weil table for curves; zeta side only
        invariants = {"p": variety.p, "f": fstr, "genus": variety.genus}
    sign = 1 if v.ord_predicted % 2 == 0 else -1
    predicted = ff_value(sign * v.torsion_predicted, v.ord_predicted, variety.q)
    computed = ff_value(v.lead, v.ord, variety.q)
    caveats = [f"failed: {nm}" for nm, ok in v.checks if not ok]
    caveats.append("sign compared up to +-1")
    return VerificationReport(
        object=name,
        invariants=invariants,
        weil_table=table_json,
        rank_predicted=v.ord_predicted,
        ord_computed=v.ord,
        special_value_predicted=predicted,
        special_value_computed=computed,
        verdict=PASS if v.ok else FAIL,
        tolerances={"value": 0},
        caveats=caveats,
    )


def open_report(base: VerificationReport, fibers) -> VerificationReport:
    """Report for the open complement U of closed fibers Y_i inside X:
    zeta multiplicativity makes orders and ranks subtract, and the
    special value divide."""
    fibers = list(fibers)
    if not fibers:
        return base
    verdicts = [base.verdict] + [f.verdict for f in fibers]
    if any(v == UNSUPPORTED for v in verdicts):
        verdict = UNSUPPORTED
    elif any(v == FAIL for v in verdicts):
        verdict = FAIL
    else:
        verdict = None  # decided below
    rank = ord_ = None
    if base.rank_predicted is not None and all(f.rank_predicted is not None for f in fibers):
        rank = base.rank_predicted - sum(f.rank_predicted for f in fibers)
    if base.ord_computed is not None and all(f.ord_computed is not None for f in fibers):
        ord_ = base.ord_computed - sum(f.ord_computed for f in fibers)
    value = None
    if base.special_value_computed is not None and all(
        f.special_value_computed is not None for f in fibers
    ):
        value = base.special_value_computed
        for f in fibers:
            value = value / f.special_value_computed
    if verdict is None:
        verdict = PASS if (rank is not None and ord_ is not None and rank == ord_) else FAIL
    caveats = sorted({c for r in [base, *fibers] for c in r.caveats})
    removed = ", ".join(f.object for f in fibers) or "nothing"
    return VerificationReport(
        object=f"{base.object} minus [{removed}]",
        invariants={},
        weil_table=None,
        rank_predicted=rank,
        ord_computed=ord_,
        special_value_predicted=None,
        special_value_computed=value,
        verdict=verdict,
        tolerances={},
        caveats=caveats,
    )


def poly_to_str(coeffs) -> str:
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            term = f"{mag}x" + (f"^{i}" if i > 1 else "")
        terms.append(("-" if c < 0 else "+", term))
    if not terms:
        return "0"
    first_sign, first = terms[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, term in terms[1:]:
        out += f"{sign}{term}"
    return out
