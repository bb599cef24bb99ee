"""Point counting for Weierstrass and Hessian cubics, the trace of Frobenius,
the j-invariant, and the Hessian-to-Weierstrass parameter bridge used by
the transformation checks.

Both counts are quadratic-character sums over the field, taken for a whole
row of curves at once (``weierstrass_traces``, ``hessian_counts``), cut by
``fields.row_chunks`` into chunks of at most ``COUNT_ELEMENTS`` (curve,
element) pairs, read at each call; ``count_weierstrass`` and
``count_hessian`` are rows of one.  What does not depend on the curve is
built once per field model and kept read-only: x and x^3 (``field_cubes``)
for both, and the Hessian sum's ``hessian_kernel``, so a row only computes
its own logs and gathers.  The counts' brute-force oracles live in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SingularCurve, SingularHessian
from .fields import FqElement, FqField, field_cubes, field_for, phi, row_chunks


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


# (curve, field element) terms per chunk of a row's character sum, 512 KB
# of int64 per temporary: small enough to stay near the cache and to bound
# a row's memory, large enough that numpy's per-call cost vanishes.
COUNT_ELEMENTS = 2**16


def weierstrass_traces(f: FqField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Trace of Frobenius of each y^2 = x^3 + a x + b, for index arrays a, b of
    nonsingular curves: each x contributes 1 + phi(x^3 + ax + b) affine points,
    so the trace is q - affine = -sum_x phi(x^3 + ax + b).  Raises
    AssertionError if a trace breaks the Hasse bound tr^2 <= 4q."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    xs, cubes = field_cubes(f.model)

    def chunk_sum(lo, hi):
        values = f.np_add(f.np_add(cubes, f.np_mul(xs, a[lo:hi, None])), b[lo:hi, None])
        return -f.np_phi(values).sum(axis=1)

    traces = row_chunks(len(a), f.q, COUNT_ELEMENTS, chunk_sum)
    bad = traces[traces * traces > 4 * f.q]
    if bad.size:
        raise AssertionError(f"trace {bad[0]} violates the Hasse bound for q={f.q}")
    return traces


class HessianKernel:
    """The field-only part of ``hessian_counts`` for the field of ``model``
    (p != 3), as read-only arrays; it holds no field.  With B(w) = w^2 - w^3/3,
    c = -4/3 and weight[w] = phi(w + 1), the w with B(w) != 0 and weight != 0
    give ``log_B`` = dlog B(w) (the smallest unsigned dtype holding q - 2) and
    ``weight`` (int8); ``table`` is phi(g^s + c) at every s < 2(q - 1) (int8).
    ``at_zero`` is S(0), and ``on_zero`` the term phi(c) sum phi(w + 1) over
    the w with B(w) = 0, which every d != 0 adds whatever d is.  S depends on
    d only through dlog d^3: it is the cyclic correlation of the table with
    F = bincount(log_B, weight), which a row gathers at its shifts."""

    def __init__(self, model: tuple[int, int, int]):
        f = field_for(model)
        ws, cubes = field_cubes(model)
        chi, minus_third = f.phi_np, (f.element(-1) / f.element(3)).idx
        c = f.np_mul(4, minus_third)
        self.at_zero = int((chi * chi[f.np_mul(f.np_add(cubes, 4), minus_third)]).sum())
        B = f.np_add(f.np_pow(ws, 2), f.np_mul(cubes, minus_third))
        # phi(w + 1) = 0 masks the w = -1 term, which is u = -d
        weight = chi[f.np_add(ws, 1)]
        self.on_zero = int(weight[B == 0].sum()) * int(chi[c])
        cols = np.flatnonzero((B != 0) & (weight != 0))
        self.log_B = f.dlog_np[B[cols]].astype(np.min_scalar_type(f.q - 2))
        self.weight, self.table = weight[cols], chi[f.np_add(f.exp_np, c)]
        for table in (self.log_B, self.weight, self.table):
            table.flags.writeable = False


# keyed by the field's model, beside field_cubes; the kernel holds no field
hessian_kernel = lru_cache(maxsize=64)(HessianKernel)


def hessian_counts(f: FqField, d: np.ndarray) -> np.ndarray:
    """Number of affine solutions of x^3 + y^3 + 1 = 3 d x y, for an index array
    of smooth d.  With u = x + y, v = xy it reads 3 v (u + d) = u^3 + 1: u = -d
    gives no point (1 - d^3 != 0), any other u fixes v and gives the
    1 + phi(u^2 - 4v) ordered roots (x, y) of z^2 - u z + v.  Times the square
    (u + d)^2, u^2 - 4v is (u + d)(d u^2 - (u^3 + 4)/3), so the count is q - 1
    plus S(d) = sum_u phi(u + d) phi(d u^2 - (u^3 + 4)/3), whose u = -d term is 0.
    S(0) is summed as it stands.  For d != 0, u = d w gives
    S(d) = phi(d) sum_w phi(w + 1) phi(d^3 B(w) + c), B(w) = w^2 - w^3/3 and
    c = -4/3.  Everything but d^3 is the field's ``hessian_kernel``, built once
    per model: a row is dlog d^3 and one gather per (d, w) from its table of
    phi(g^s + c), at s = dlog d^3 + dlog B(w).  In characteristic 3 it is
    (x + y + 1)^3 = 0, q points."""
    d = np.asarray(d, dtype=np.int64)
    if f.p == 3:
        return np.full(len(d), f.q, dtype=np.int64)
    kern = hessian_kernel(f.model)
    log_D = 3 * f.dlog_np[d] % (f.q - 1)

    def chunk_sum(lo, hi):
        return (kern.table[log_D[lo:hi, None] + kern.log_B] * kern.weight).sum(axis=1)

    sums = row_chunks(len(d), len(kern.log_B), COUNT_ELEMENTS, chunk_sum)
    return f.q - 1 + np.where(d == 0, kern.at_zero, f.np_phi(d) * (sums + kern.on_zero))


def count_weierstrass(E: WeierstrassCurve) -> CurveCount:
    """Point count of one curve, a row of one through ``weierstrass_traces``:
    q - trace affine points, plus the single point at infinity."""
    tr = int(weierstrass_traces(E.field, np.array([E.a.idx]), np.array([E.b.idx]))[0])
    affine = E.field.q - tr
    return CurveCount(affine=affine, projective=affine + 1, trace=tr)


def count_hessian(C: HessianCurve) -> int:
    """Affine count of one Hessian cubic, a row of one through ``hessian_counts``."""
    return int(hessian_counts(C.field, np.array([C.d.idx]))[0])


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
