# Verifying zeta_F^*(0) = -hR/w for quadratic fields.
#
# The Weil-etale side predicts both the vanishing order of the Dedekind
# zeta function at s=0 (the unit rank r1+r2-1) and its leading Taylor
# coefficient (-hR/w).  The analytic side is computed independently from
# finite character sums: L(0, chi_D) is an exact rational and L'(0,
# chi_D) is a finite sum of log-gamma values, so no numerical
# continuation of zeta is involved.  This script walks through both
# sides for a few small discriminants and then sweeps a range.

import math

from weilzeta import dedekind_leading_at_0, quad_invariants
from weilzeta.number_field import is_fundamental
from weilzeta.reports import pn_of_report
from weilzeta.weil_tables import pn_of_table

# The Gaussian integers first.  Class number 1, four roots of unity, no
# fundamental unit, so the prediction is zeta*(0) = -1/4 with no zero.

inv = quad_invariants(-4)
print("Z[i]:", inv)

table = pn_of_table(inv, 0)  # P^0 over Z[i] is Spec Z[i]
print("compact-support Weil-etale table:")
for i in table.degrees():
    g = table[i]
    print(f"  H^{i}_c: rank {g.rank}, torsion order {g.torsion_order}")

report = pn_of_report(inv)
print("predicted ord, value:", report.rank_predicted, report.special_value_predicted.numeric())
print("computed  ord, value:", *dedekind_leading_at_0(inv))
print("verdict:", report.verdict)

# A real quadratic field has a unit of infinite order, so zeta_F picks
# up a first-order zero at s=0 and the regulator enters the leading
# coefficient.  For Q(sqrt 5) the fundamental unit is the golden ratio.

inv = quad_invariants(5)
print("\nQ(sqrt 5): regulator", inv.R, "=", "ln((1+sqrt 5)/2) =",
      math.log((1 + math.sqrt(5)) / 2))
ord_, value = dedekind_leading_at_0(inv)
print("ord:", ord_, " zeta*(0):", value, " -hR/w:", -inv.h * inv.R / inv.w)

# Now sweep every fundamental discriminant with |D| < 60.  The class
# number, regulator, and root-of-unity count all come from exact
# arithmetic (form reduction and continued fractions), and the match
# below is the special-value conjecture in its proven range.

print("\n   D   r1+r2-1  ord   -hR/w        zeta*(0)     |diff|")
for d in range(-59, 60):
    if d in (0, 1) or not is_fundamental(d):
        continue
    inv = quad_invariants(d)
    ord_, value = dedekind_leading_at_0(inv)
    expected = -inv.h * inv.R / inv.w
    print(f"{d:>5} {inv.unit_rank:>8} {ord_:>5}   {expected:>11.8f} "
          f"{value:>12.8f}  {abs(value - expected):.2e}")
