# Exact zeta functions of hyperelliptic curves over prime fields.
#
# For a curve y^2 = f(x) over F_p the zeta function is the rational
# function P(t) / ((1-t)(1-pt)) with P of degree twice the genus.  The
# package reconstructs P from the first g point counts and completes it
# by the functional equation; verify_ff then checks the Hasse bound and
# every count it made against Z(t), and ff_report the special value
# identity |zeta*(0)| (q-1) = P(1) relating the leading coefficient at
# s=0 to the divisor class number.

from weilzeta import (
    CurveSpec,
    count_points,
    curve_class_number,
    special_value_s0,
    verify_ff,
    zeta_curve,
)
from weilzeta.ff_zeta import expected_counts
from weilzeta.reports import ff_report

# An elliptic curve over F_5.  Counting points over F_5 and F_25 by
# brute force is instant; the interesting part is that N_1 alone pins
# down the whole zeta function.

curve = CurveSpec(5, (0, -1, 0, 1))  # y^2 = x^3 - x
print("curve:", curve, "genus", curve.genus)
print("N_1..N_4:", [count_points(curve, m) for m in range(1, 5)])

zeta = zeta_curve(curve, [count_points(curve, 1)])  # N_1 alone
(p_coeffs,) = zeta.numerator_factors
print("P(t) coefficients:", p_coeffs)
print("counts reproduced from Z(t):", expected_counts(zeta, 4))
print("class number P(1):", curve_class_number(zeta))

ord_, c = special_value_s0(zeta)  # zeta*(0) = c * (ln 5)^ord exactly
print("ord at s=0:", ord_, " zeta*(0) =", c, "* ln(5)^", ord_)
print("|c| (q-1) =", abs(c) * 4, " (must equal P(1))")

# A genus 2 curve.  Here two counts are needed and the functional
# equation fills in the top half of P.  verify_ff runs the two checks of
# the zeta side, the Hasse bound and the count reproduction; ff_report
# compares that side with the prediction rho = -1, |c| = P(1)/(q-1), and
# names any failed check in its caveats.

quintic = CurveSpec(7, (1, 2, 0, 0, 0, 1))  # y^2 = x^5 + 2x + 1
zeta, checks = verify_ff(quintic)
print("\ncurve:", quintic)
for name, ok in checks:
    print(f"  {'ok ' if ok else 'BAD'} {name}")
report = ff_report(quintic)
print("verdict:", report.verdict, " caveats:", report.caveats)

# The same machinery scales over a panel of curves; every check is an
# exact integer identity, so there is nothing to tune.

print("\n  p  f (ascending coeffs)      genus  P(1)  verdict")
for p in (3, 5, 7, 11):
    for f in ((2, 1, 0, 1), (1, 0, 1, 0, 0, 1)):
        try:
            c = CurveSpec(p, f)
        except ValueError:
            continue
        print(f"{p:>3}  {str(c.f):<24} {c.genus:>4} "
              f"{curve_class_number(verify_ff(c)[0]):>6}  {ff_report(c).verdict}")
