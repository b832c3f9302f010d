"""Verifier for zeta special values at s=0 against Weil-etale
cohomological predictions: number rings, projective spaces over number
rings, and projective spaces / hyperelliptic curves over finite fields.

The names below are loaded from their module on first access, so that
importing one module (say ``weilzeta.ff_zeta``) loads only what that
module imports."""

from importlib import import_module

_EXPORTS = {
    "fgab": "FgAb GradedTable rank_weighted_euler torsion_euler",
    "ff_zeta": "CurveSpec FiniteField ProjectiveSpace ZetaRational count_points "
               "curve_class_number make_field special_value_s0 verify_ff zeta_curve zeta_pn",
    "lfunc": "character_table dedekind_leading_at_0 l_at_0 l_prime_at_0",
    "motivic_rank": "borel_dim pn_of_order",
    "number_field": "NumberFieldInvariants RATIONALS class_number_imaginary class_number_real "
                    "fundamental_discriminant fundamental_unit_real load_invariants quad_invariants",
    "reports": "SymbolicValue VerificationReport emit_report parse_report",
    "weil_tables": "pn_fq_table pn_of_table",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
