"""Command-line verifier.

Verbs:
  numberring  verify ord and zeta*_F(0) = -hR/w for a quadratic field / Q;
              this is pn-of --n 0, whose object is named Spec O_F
  pn-of       rank identity for P^n over a number ring (value RANK_ONLY
              for n >= 1); --disc and --invariants exclude each other
  ff pn       exact special value of P^n over F_q
  ff curve    exact special value of a hyperelliptic curve over F_p
  open        combine a base report with closed-fiber reports (zeta
              multiplicativity: ranks and orders subtract)
  suite       run the acceptance battery

Exit codes: 0 pass (incl. rank-only), 1 usage error, 2 mismatch,
3 unsupported.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from . import ff_zeta
from .number_field import InvariantsError, load_invariants, quad_invariants, read_key_values
from .reports import emit_report, ff_report, load_report, open_report, pn_of_report


class _Parser(argparse.ArgumentParser):
    """Raises ValueError (exit 1, one line) where argparse would print a
    usage block and exit 2, which is the FAIL code here."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# polynomial syntax: integer coefficients, caret powers, e.g. "x^3-2x+1"

_TERM_RE = re.compile(r"^([+-]?\d*)\*?(x(?:\^(\d+))?)?$")
MAX_POLY_DEGREE = 100  # the coefficient tuple is dense up to the top exponent


def parse_poly(text: str) -> tuple:
    """Parse 'x^3+x' style input into ascending integer coefficients."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    chunks = re.findall(r"[+-]?[^+-]+", s)
    if "".join(chunks) != s:  # a sign with no term after it
        raise ValueError(f"cannot parse polynomial {text!r}")
    coeffs: dict[int, int] = {}
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m or (not m.group(1).strip("+-") and not m.group(2)):
            raise ValueError(f"cannot parse polynomial term {chunk!r}")
        coef_s, xpart, exp_s = m.groups()
        try:  # int() refuses more than sys.get_int_max_str_digits() digits
            coef = int(coef_s) if coef_s.strip("+-") else int(coef_s + "1") if coef_s else 1
            deg = (int(exp_s) if exp_s else 1) if xpart else 0
        except ValueError:
            raise ValueError(f"too many digits in polynomial term {chunk[:40]!r}...") from None
        if deg > MAX_POLY_DEGREE:
            raise ValueError(f"polynomial exponent {deg} exceeds {MAX_POLY_DEGREE}")
        coeffs[deg] = coeffs.get(deg, 0) + coef
    top = max(coeffs)
    return tuple(coeffs.get(i, 0) for i in range(top + 1))


def _k_torsion_entry(key: str, text: str):
    if not (re.fullmatch(r"K\d+", key) and re.fullmatch(r"\d+", text)):
        raise InvariantsError("expected K<m>=<order>")
    return int(key[1:]), int(text)


def parse_k_torsion(path) -> dict:
    """{m: order} from 'K<m>=<order>' lines; pn_of_table checks m and the order."""
    return read_key_values(path, _k_torsion_entry)


@functools.cache  # parse_args keeps no state: a fresh Namespace per call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weilzeta",
        description="Verify zeta special values at s=0 against cohomological predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true")
    ring = argparse.ArgumentParser(add_help=False)
    source = ring.add_mutually_exclusive_group(required=True)
    source.add_argument("--disc", type=int, help="fundamental discriminant (1 for Q)")
    source.add_argument("--invariants", help="key=value invariants file")

    nr = sub.add_parser("numberring", parents=[ring, as_json],
                        help="verify a number ring (pn-of --n 0)")
    nr.set_defaults(n=0, k_torsion=None)

    pn = sub.add_parser("pn-of", parents=[ring, as_json],
                        help="rank identity for P^n over a number ring")
    pn.add_argument("--n", type=int, required=True)
    pn.add_argument("--k-torsion", dest="k_torsion", help="K<m>=<order> file")

    ff = sub.add_parser("ff", help="finite-field verification")
    ffsub = ff.add_subparsers(dest="ff_kind", required=True)
    ffpn = ffsub.add_parser("pn", parents=[as_json], help="P^n over F_q")
    ffpn.add_argument("--q", type=int, required=True)
    ffpn.add_argument("--n", type=int, required=True)
    ffc = ffsub.add_parser("curve", parents=[as_json], help="y^2 = f(x) over F_p")
    ffc.add_argument("--p", type=int, required=True)
    ffc.add_argument("--f", required=True, help="e.g. x^3+x")

    op = sub.add_parser("open", parents=[as_json],
                        help="combine base and closed-fiber JSON reports")
    op.add_argument("base", help="base report (JSON file)")
    # default=[] keeps the optional fibers out of "the following arguments are required"
    op.add_argument("fibers", nargs="*", default=[], help="closed-fiber reports (JSON files)")

    sub.add_parser("suite", help="run the acceptance battery")

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command in ("numberring", "pn-of"):
            inv = (load_invariants(args.invariants) if args.disc is None
                   else quad_invariants(args.disc))
            torsion = parse_k_torsion(args.k_torsion) if args.k_torsion else None
            report = pn_of_report(inv, args.n, torsion)
        elif args.command == "ff":
            if args.ff_kind == "pn":
                variety = ff_zeta.ProjectiveSpace(args.q, args.n)
            else:
                variety = ff_zeta.CurveSpec(args.p, parse_poly(args.f))
            report = ff_report(variety)
        elif args.command == "open":
            base = load_report(args.base)
            fibers = [load_report(f) for f in args.fibers]
            report = open_report(base, fibers)
        else:  # suite; argparse refuses any other verb
            from .acceptance import run_suite
            return 0 if run_suite() else 2
        print(emit_report(report, as_json=args.json))
    except (ValueError, OSError) as exc:  # every error class here subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return report.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
