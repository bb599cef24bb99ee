"""Point counting for Weierstrass and Hessian cubics, the trace of Frobenius,
the j-invariant, and the Hessian-to-Weierstrass parameter bridge used by
the transformation checks.

Both counts are O(q) quadratic-character sums; their brute-force oracles
live in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularCurve, SingularHessian
from .fields import FqElement, FqField, phi


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 = x^3 + a x + b, nonsingular."""

    a: FqElement
    b: FqElement

    def __post_init__(self):
        a, b = self.a, self.b
        if (4 * a**3 + 27 * b**2).is_zero:
            raise SingularCurve("4a^3 + 27b^2 = 0")

    @property
    def field(self) -> FqField:
        return self.a.field


@dataclass(frozen=True)
class HessianCurve:
    """x^3 + y^3 + 1 = 3 d x y, smooth iff d^3 != 1."""

    d: FqElement

    def __post_init__(self):
        if (self.d**3 - 1).is_zero:
            raise SingularHessian("d^3 = 1")

    @property
    def field(self) -> FqField:
        return self.d.field


@dataclass(frozen=True)
class CurveCount:
    """Affine count, projective count, and trace q + 1 - projective."""

    affine: int
    projective: int
    trace: int


def cubic_values(a: FqElement, b: FqElement) -> np.ndarray:
    """x^3 + a x + b at every x of the field, as element indices in index order."""
    f = a.field
    xs = np.arange(f.q, dtype=np.int64)
    return f.np_add(f.np_add(f.np_pow(xs, 3), f.np_mul(xs, a.idx)), b.idx)


def count_weierstrass(E: WeierstrassCurve) -> CurveCount:
    """Point count via the character sum: each x contributes 1 + phi(x^3+ax+b)
    affine points, plus the single point at infinity."""
    f = E.field
    q = f.q
    affine = q + int(f.np_phi(cubic_values(E.a, E.b)).sum())
    tr = q - affine
    if tr * tr > 4 * q:
        raise AssertionError(f"trace {tr} violates the Hasse bound for q={q}")
    return CurveCount(affine=affine, projective=affine + 1, trace=tr)


def count_hessian(C: HessianCurve) -> int:
    """Number of affine solutions of x^3 + y^3 + 1 = 3 d x y.  With u = x + y,
    v = xy it reads 3 v (u + d) = u^3 + 1: u = -d gives no point (1 - d^3 != 0),
    any other u fixes v and gives the 1 + phi(u^2 - 4v) ordered roots (x, y) of
    z^2 - u z + v.  In characteristic 3 it is (x + y + 1)^3 = 0, q points."""
    f = C.field
    if f.p == 3:
        return f.q
    us = np.delete(np.arange(f.q, dtype=np.int64), (-C.d).idx)
    num = f.np_add(f.np_pow(us, 3), 1)
    den = f.np_add(us, C.d.idx)
    # -4v = (-4/3) (u^3 + 1) / (u + d) through the dlog tables; den is never 0
    shift = (f.element(-4) / f.element(3)).dlog()
    minus_4v = f.exp_np[(f.dlog_np[num] - f.dlog_np[den] + shift) % (f.q - 1)]
    disc = f.np_add(f.np_pow(us, 2), np.where(num == 0, 0, minus_4v))
    return us.size + int(f.np_phi(disc).sum())


def hessian_bridge(d: FqElement) -> tuple[FqElement, FqElement]:
    """Weierstrass coefficients (m, n) of the model isomorphic to the (projective)
    Hessian cubic with parameter d: m = -27 d (d^3 + 8), n = 54 (d^6 - 20 d^3 - 8).

    This is the curve produced by the substitution
    x -> -(36 - 9d^3 + 3dx - y)/(6(9d^2 + x)), y -> -(36 - 9d^3 + 3dx + y)/(6(9d^2 + x)),
    which carries y^2 = x^3 + mx + n onto x^3 + y^3 + 1 = 3dxy.
    """
    d3 = d**3
    m = -(d * 27) * (d3 + 8)
    n = 54 * (d3 * d3 - 20 * d3 - 8)
    return m, n


def check_count_relation(d: FqElement) -> bool:
    """Both curves enumerated: #E(F_q) (projective) must equal
    #C_d(F_q) (affine) + 2 + phi(-3), for the bridged Weierstrass model.

    2 + phi(-3) is the number of points of the cubic on the line at infinity:
    3 when q = 1 mod 3 (iff phi(-3) = 1), otherwise 1.
    """
    m, n = hessian_bridge(d)
    lhs = count_weierstrass(WeierstrassCurve(m, n)).projective
    rhs = count_hessian(HessianCurve(d)) + 2 + phi(d.field.element(-3))
    return lhs == rhs


def j_invariant(E: WeierstrassCurve) -> FqElement:
    """j = 1728 * 4a^3 / (4a^3 + 27b^2)."""
    a3 = 4 * E.a**3
    return 1728 * a3 / (a3 + 27 * E.b**2)
