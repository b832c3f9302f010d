# Projective spaces: the exact case over F_q and the rank identity
# over number rings.
#
# Over a finite field both sides of the special-value conjecture are
# rational numbers, so the comparison is exact.  Over a number ring the
# determinant side would need K-theory torsion and zeta values at
# negative integers, but the rank side is already a theorem: the
# alternating sum of motivic cohomology dimensions equals the vanishing
# order of zeta(P^n, s) at s=0.  This script exercises both.

from weilzeta import (
    ProjectiveSpace,
    pn_fq_table,
    quad_invariants,
    rank_weighted_euler,
    special_value_s0,
    torsion_euler,
    zeta_pn,
)
from weilzeta.motivic_rank import pn_of_order, soule_rank
from weilzeta.number_field import RATIONALS
from weilzeta.reports import ff_report

# P^2 over F_4.  The Weil-etale table has Z in degrees 0 and 1 and
# finite groups of orders q-1, q^2-1 in odd degrees; its two Euler
# characteristics must reproduce the order and leading coefficient of
# zeta at s=0 computed straight from Z(t) = 1/((1-t)(1-4t)(1-16t)).

# The record reads p = 2 and k = 2 off q = 4 once; every caller takes it.
space = ProjectiveSpace(4, 2)
q, n = space.q, space.n
table = pn_fq_table(space)
print(f"P^{n} over F_{q}:")
for i in table.degrees():
    g = table[i]
    print(f"  H^{i}: rank {g.rank}, torsion order {g.torsion_order}")

ord_, c = special_value_s0(zeta_pn(space))
print("zeta side:      ord", ord_, " |c| =", abs(c))
print("cohomology side: ord", rank_weighted_euler(table),
      " |c| =", torsion_euler(table))
print("verdict:", ff_report(space).verdict)  # compares the two

# Over a number ring the ranks come from Borel's theorem on
# K_{2r-1}(O_F) and the orders from the functional equation of the
# shifted Dedekind factors.  Their equality degree by degree is the
# rank part of the conjecture for P^n over O_F.

print("\nrank identity for P^n over O_F (soule rank = sum of zeta orders):")
print("   disc   n  motivic  analytic")
for d in (1, -4, -23, 5, 12):
    inv = RATIONALS if d == 1 else quad_invariants(d)
    for n in range(4):
        lhs = soule_rank(inv, n)
        rhs = pn_of_order(inv, n)
        mark = "" if lhs == rhs else "  MISMATCH"
        print(f"{d:>7} {n:>3} {lhs:>8} {rhs:>9}{mark}")
