# Projective spaces: the exact case over F_q and the rank identity
# over number rings.
#
# Over a finite field both sides of the special-value conjecture are
# rational numbers, so the comparison is exact.  Over a number ring the
# determinant side would need K-theory torsion and zeta values at
# negative integers, but the rank side is already a theorem: the rank
# Euler characteristic of the Weil-etale table equals the vanishing
# order of zeta(P^n, s) at s=0.  This script exercises both.

import os
import tempfile

from weilzeta import (
    ProjectiveSpace,
    pn_fq_table,
    pn_of_table,
    quad_invariants,
    rank_weighted_euler,
    special_value_s0,
    torsion_euler,
    zeta_pn,
)
from weilzeta.cli import run
from weilzeta.number_field import RATIONALS
from weilzeta.reports import ff_report, pn_of_report

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

# Over a number ring the table of P^n is a sum of shifted copies of the
# number-ring table, one per twist j = 0..n, with the Borel rank of
# K_{2j+1}(O_F) in degrees 2j+1 and 2j+2; each twist adds that rank to
# the rank Euler characteristic.  The pn-of report compares it with the
# vanishing order of zeta(P^n, s) at s=0: at n = 0 the order of zeta_F
# computed from L(0), above n = 0 Soule's sum of the Borel ranks (the
# orders of the shifted factors zeta_F(s - j)), which reads the same
# Borel dimensions as the table.  Their equality is the rank part of
# the conjecture for P^n over O_F.

print("\nP^1 over Z[i] (torsion of K_2 unknown):")
for i, g in sorted(pn_of_table(quad_invariants(-4), 1).entries.items()):
    known = "" if g.torsion_known else " (unknown)"
    print(f"  H^{i}: rank {g.rank}, torsion order {g.torsion_order}{known}")

print("\nrank identity for P^n over O_F (table rank = vanishing order):")
print("   disc   n    table     order  from")
for d in (1, -4, -23, 5, 12):
    inv = RATIONALS if d == 1 else quad_invariants(d)
    for n in range(4):
        report = pn_of_report(inv, n)
        lhs, rhs = report.rank_predicted, report.ord_computed
        mark = "" if lhs == rhs else "  MISMATCH"
        print(f"{d:>7} {n:>3} {lhs:>8} {rhs:>9}  {'L(0)' if n == 0 else 'Soule'}{mark}")

# The K-groups of Z above K_1 are known in low degree: K_2(Z) = Z/2
# (Milnor) and K_3(Z) = Z/48 (Lee-Szczarba).  A --k-torsion file gives
# them to P^1 over Z, one K<m>=<order> line each, and fills the torsion
# of the table that is otherwise "unknown".  The determinant side above
# n = 0 is not computed, so the verdict stays RANK_ONLY.

print("\nP^1 over Z with K_2(Z) = Z/2 and K_3(Z) = Z/48 from a --k-torsion file:")
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "k_torsion_of_Z.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# K-groups of Z\nK2=2\nK3=48\n")
    code = run(["pn-of", "--disc", "1", "--n", "1", "--k-torsion", path])
print("exit code:", code)
