# Zeta multiplicativity over open subschemes.
#
# Removing a closed fiber Y from X divides the zeta functions:
# zeta(U, s) = zeta(X, s) / zeta(Y, s) for U = X \ Y.  Orders of
# vanishing and rank predictions therefore subtract, and the leading
# coefficients divide.  The open_report combinator works entirely at the
# level of finished reports, so any mix of verified objects can be
# combined, and U's verdict is never stronger than the weakest of
# theirs (UNSUPPORTED, then FAIL, then RANK_ONLY, then PASS).

from weilzeta.ff_zeta import ProjectiveSpace
from weilzeta.number_field import RATIONALS
from weilzeta.reports import emit_report, ff_report, open_report, pn_of_report

# The affine line over F_5 as P^1 minus a point.  Both constituents
# have a simple pole at s=0; the quotient has neither pole nor zero and
# leading value 1/(1-q).

base = ff_report(ProjectiveSpace(5, 1))
point = ff_report(ProjectiveSpace(5, 0))
affine_line = open_report(base, [point])
print(emit_report(affine_line))
print("numeric value:", affine_line.special_value_computed.numeric(),
      " expected 1/(1-5) =", 1 / (1 - 5))

# Spec Z minus a closed point (a finite prime, i.e. a copy of Spec F_p
# = P^0 over F_p).  The order stays 0 and the special value picks up
# the Euler factor at p.

base = pn_of_report(RATIONALS)
fiber = ff_report(ProjectiveSpace(3, 0))
print()
print(emit_report(open_report(base, [fiber])))

# Removing several fibers at once agrees with removing them one at a
# time; the combinator is associative because division of zeta
# functions is.

base = ff_report(ProjectiveSpace(3, 2))
f1 = ff_report(ProjectiveSpace(3, 1))
f2 = ff_report(ProjectiveSpace(3, 0))
both = open_report(base, [f1, f2])
nested = open_report(open_report(base, [f1]), [f2])
print()
print("batch == nested:",
      both.special_value_computed == nested.special_value_computed
      and both.ord_computed == nested.ord_computed)
