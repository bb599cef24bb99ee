"""Counting points on Weierstrass and Hessian cubics, and the parameter
bridge tying the two families together.

Run with: python demos/point_counting.py
"""

import math

from padichyper import (
    HessianCurve,
    WeierstrassCurve,
    build_field,
    check_count_relation,
    count_hessian,
    count_weierstrass,
    hessian_bridge,
    j_invariant,
    phi,
)

field = build_field(13, 1)
q = field.q

print(f"Weierstrass curves over F_{q}:")
for (a, b) in [(1, 1), (2, 3), (5, 8)]:
    E = WeierstrassCurve(field.element(a), field.element(b))
    cc = count_weierstrass(E)
    print(
        f"  y^2 = x^3 + {a}x + {b}: affine={cc.affine} projective={cc.projective} "
        f"trace={cc.trace} (|trace| <= 2 sqrt(q) = {2*math.isqrt(q)+1}), j = {j_invariant(E).idx}"
    )

print(f"\nHessian cubics x^3 + y^3 + 1 = 3dxy over F_{q}:")
for d in (0, 2, 4):
    C = HessianCurve(field.element(d))
    print(f"  d={d}: affine count = {count_hessian(C)}")

# The bridge: for each admissible d there is a Weierstrass model isomorphic
# to the projective Hessian cubic; the counts differ exactly by the points
# at infinity, 2 + phi(-3) of them.
print("\nBridged models and the count relation:")
f17 = build_field(17, 1)
for di in range(2, 9):
    d = f17.element(di)
    if (d**3 - 1).is_zero:
        continue
    m, n = hessian_bridge(d)
    try:
        ok = check_count_relation(d)
    except Exception as exc:
        print(f"  d={di}: bridged model degenerate ({exc})")
        continue
    print(
        f"  d={di}: (m, n) = ({m.idx}, {n.idx}), "
        f"#E = #C + 2 + phi(-3) = #C + {2 + phi(f17.element(-3))}: {ok}"
    )
