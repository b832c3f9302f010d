"""Verifier for zeta special values at s=0 against Weil-etale
cohomological predictions: number rings, projective spaces over number
rings, and projective spaces / hyperelliptic curves over finite fields."""

from .fgab import (
    FgAb,
    GradedTable,
    IntMatrix,
    cokernel,
    extend,
    rank_weighted_euler,
    smith_normal_form,
    torsion_euler,
)
from .ff_zeta import (
    CurveSpec,
    FiniteField,
    ProjectiveSpace,
    ZetaRational,
    count_points,
    curve_class_number,
    make_field,
    special_value_s0,
    verify_ff,
    zeta_curve,
    zeta_pn,
)
from .lfunc import dedekind_leading_at_0, kronecker, l_at_0, l_prime_at_0
from .motivic_rank import borel_dim, pn_of_order, soule_rank, zeta_order_at
from .number_field import (
    NumberFieldInvariants,
    RATIONALS,
    class_number_imaginary,
    class_number_real,
    fundamental_discriminant,
    fundamental_unit_real,
    load_invariants,
    quad_invariants,
)
from .reports import SymbolicValue, VerificationReport, emit_report, parse_report
from .weil_tables import numberring_compact_table, pn_fq_table, pn_of_table

__version__ = "0.1.0"
