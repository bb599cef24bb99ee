"""Evaluating the p-adic hypergeometric series nGn over F_q and reading
elliptic-curve traces off its values.

Run with: python demos/hypergeometric_series.py
"""

import math
from fractions import Fraction

from padichyper import (
    GInstance,
    WeierstrassCurve,
    build_field,
    count_weierstrass,
    default_precision,
    g_eval,
    g_term,
    gparams,
    phi,
    recover_integer,
    uctx_for,
)

# The series is a (q-1)-term sum of inverse-Teichmueller twists against
# signed p-powers and gamma ratios.  Parameters are rational lists with
# p-free denominators.
params = gparams("1/4,3/4;1/3,2/3")
p, r = 11, 1
field = build_field(p, r)
K = default_precision(p, r)
uctx = uctx_for(field, K)

t = field.element(3)
inst = GInstance(params, field, uctx, t)
value = g_eval(inst)
print(f"2G2[1/4,3/4;1/3,2/3 | 3] over F_{field.q} at precision {p}^{K}:")
print(f"  value (valuation:digits) = {value.digits()}")

# individual summands carry their own exact (-p)-valuation
print("\nFirst few summands (valuation, leading unit digit):")
for j in range(4):
    term = g_term(inst, j)
    print(f"  j={j}: v={term.valuation}, unit digits {term.digits()}")

# The headline application: for y^2 = x^3 + ax + b with j-invariant away
# from 0 and 1728, the trace of Frobenius is phi(b) * q * series(-27b^2/4a^3).
print("\nTrace of Frobenius via the series, against brute-force counting:")
for (ai, bi) in [(1, 1), (2, 5), (7, 3)]:
    a, b = field.element(ai), field.element(bi)
    E = WeierstrassCurve(a, b)
    tr = count_weierstrass(E).trace
    arg = -27 * b * b / (4 * a**3)
    qg = g_eval(GInstance(params, field, uctx, arg)).scale_int(field.q * phi(b))
    rec = recover_integer(qg, math.isqrt(4 * field.q), p=p)
    print(f"  E: y^2 = x^3 + {ai}x + {bi}:  counted a_q = {tr}, recovered = {rec}")
