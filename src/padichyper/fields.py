"""F_q = F_{p^r} with a deterministic defining polynomial and generator, a
full discrete-log table, multiplicative characters (notably the quadratic
character), and the trace map.

Elements are encoded as integers in [0, q): the little-endian base-p packing
of the power-basis coefficient vector.  The FqElement operators do all
scalar arithmetic on the tables: products through exp/dlog, and for r >= 2
sums through the Zech table zech[n] = dlog(1 + g^n), since g^a + g^b =
g^(a + zech[b - a]); the field's ``np_*`` methods do the same on index
arrays, which broadcast as numpy's do.  Every operation is O(1) after the
O(q r^2) build.

A field is its model (p, r, variant): two FqField objects of one model are
equal, hash alike and combine each other's elements, and nothing is attached
to a field after its build.  ``field_for``, the bounded lru_cache behind
``build_field``, is the only cache that holds a field: the per-field tables
are cached by model and hold none, so a field it drops is freed once no
caller holds it, and a rebuilt one strands no element made before.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .errors import CompositeP, FieldTooLarge, ZeroArgument
from .padic import (
    UnramifiedContext,
    ZqElement,
    _poly_mulmod,
    find_defining_poly,
    is_prime,
    teichmueller,
    unramified_context,
)

DEFAULT_MAX_Q = 100_000


def poly_reduce_rows(prod: np.ndarray, poly: Sequence[int], m: int) -> np.ndarray:
    """Each row of ``prod``, a polynomial of degree < 2r - 1, reduced by the
    monic x^r + poly and mod m: an (n, r) array.  Every intermediate is a
    product of two residues, so int64 rows stay exact while m < 2^31."""
    r = len(poly)
    prod = prod % m
    for d in range(prod.shape[1] - 1, r - 1, -1):
        c = prod[:, d]
        for j, cj in enumerate(poly):
            if cj:
                prod[:, d - r + j] = (prod[:, d - r + j] - c * cj) % m
    return prod[:, :r]


def poly_mul_rows(a: np.ndarray, b: np.ndarray, poly: Sequence[int], m: int) -> np.ndarray:
    """Row-wise products in (Z/m)[x]/(x^r + poly), the F_q (m = p) or Z_q
    (m = p^K) multiply on arrays: ``a`` is (n, r), ``b`` one element (r,)
    or n of them (n, r)."""
    r = len(poly)
    if r == 1:
        return a * b % m
    prod = np.zeros((a.shape[0], 2 * r - 1), dtype=a.dtype)
    for i in range(r):
        for k in range(r):
            prod[:, i + k] = (prod[:, i + k] + a[:, i] * b[..., k]) % m
    return poly_reduce_rows(prod, poly, m)


class FqField:
    """Finite field with precomputed exp/dlog tables; immutable after build.
    Equal, and hashed, by model (p, r, variant)."""

    def __init__(self, p: int, r: int, variant: int = 0):
        if p == 2 or not is_prime(p):
            raise CompositeP(f"p must be an odd prime, got {p}")
        if r < 1:
            raise ValueError("extension degree must be >= 1")
        q = p**r
        if q > DEFAULT_MAX_Q:
            raise FieldTooLarge(f"q = {q} exceeds the table bound {DEFAULT_MAX_Q}")
        self.p = p
        self.r = r
        self.q = q
        self.poly = find_defining_poly(p, r, variant)
        self.variant = variant
        self.model = (p, r, variant)
        gen_idx = (-self.poly[0]) % p if r == 1 else p
        self.generator_idx = gen_idx
        # power-basis coordinates of g^s for s in [0, q-1], by doubling:
        # the powers g^n..g^(2n-1) are g^0..g^(n-1) times g^n
        powers = np.zeros((q, r), dtype=np.int64)
        powers[0, 0] = 1
        gn, n = self._unpack(gen_idx), 1
        while n < q:
            k = min(n, q - n)
            powers[n : n + k] = poly_mul_rows(powers[:k], np.array(gn), self.poly, p)
            gn, n = _poly_mulmod(gn, gn, self.poly, p), n + k
        exp = powers @ p ** np.arange(r, dtype=np.int64)
        if np.bincount(exp[: q - 1], minlength=q).max() > 1:
            raise AssertionError("generator order below q-1")
        if exp[q - 1] != 1:
            raise AssertionError("generator order is not q-1")
        exp = exp[: q - 1]
        dlog = np.full(q, -1, dtype=np.int64)
        dlog[exp] = np.arange(q - 1)
        self.exp = exp.tolist()
        self.dlog = dlog.tolist()
        self.exp_np = np.concatenate([exp, exp])
        self.dlog_np = dlog
        # the quadratic character by index (g^s is a square iff s is even), as
        # int8: gathering one byte a value, not eight, runs about four times faster
        self.phi_np = np.ones(q, dtype=np.int8)
        self.phi_np[exp[1::2]] = -1
        self.phi_np[0] = 0
        self.zero, self.one = FqElement(self, 0), FqElement(self, 1)
        self.generator = FqElement(self, gen_idx)
        if r > 1:  # 1 + x bumps only the low base-p digit of x; -1 marks 1 + g^n = 0
            e = self.exp_np[: q - 1]
            self.zech_np = self.dlog_np[e - e % p + (e % p + 1) % p]
            self.zech = self.zech_np.tolist()

    def __eq__(self, other):
        return self is other or (other.__class__ is FqField and self.model == other.model)

    def __hash__(self):
        return hash(self.model)

    # -- packing ----------------------------------------------------------------

    def _unpack(self, idx: int) -> list[int]:
        p = self.p
        out = []
        for _ in range(self.r):
            idx, d = divmod(idx, p)
            out.append(d)
        return out

    def _pack(self, coeffs: Sequence[int]) -> int:
        idx = 0
        for c in reversed(list(coeffs)):
            idx = idx * self.p + c % self.p
        return idx

    # -- vectorized index arithmetic (numpy arrays of element indices) --------

    def np_add(self, a: np.ndarray, b) -> np.ndarray:
        if self.r == 1:
            return (a + b) % self.p
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        la, lb = self.dlog_np[a], self.dlog_np[b]
        z = self.zech_np[(lb - la) % (self.q - 1)]
        out = np.where(z < 0, 0, self.exp_np[la + z])
        return np.where(a == 0, b, np.where(b == 0, a, out))

    def np_mul(self, a: np.ndarray, b) -> np.ndarray:
        if self.r == 1:  # p < 2^17, so products stay below 2^34
            return (a * b) % self.p
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        out = self.exp_np[self.dlog_np[a] + self.dlog_np[b]]
        return np.where((a == 0) | (b == 0), 0, out)

    def np_div(self, a: np.ndarray, b) -> np.ndarray:
        """a / b, and 0 where b is 0: callers gate the divisor."""
        return self.np_mul(a, self.np_pow(b, -1))

    def np_pow(self, arr: np.ndarray, e: int) -> np.ndarray:
        out = self.exp_np[(self.dlog_np[arr] * e) % (self.q - 1)]
        return np.where(arr == 0, 0, out)

    def np_phi(self, arr: np.ndarray) -> np.ndarray:
        """The quadratic character of each element: 0, 1 or -1, as int8."""
        return self.phi_np[arr]

    # -- elements ---------------------------------------------------------------

    def element(self, value: Union[int, Sequence[int], "FqElement"]) -> "FqElement":
        """Coerce an integer (prime-subfield value) or coefficient vector."""
        if isinstance(value, FqElement):
            if value.field != self:
                raise ValueError("element belongs to another field")
            return value
        if isinstance(value, int):
            return FqElement(self, value % self.p)
        coeffs = list(value)
        if len(coeffs) > self.r:
            raise ValueError("too many coordinates")
        return FqElement(self, self._pack(coeffs + [0] * (self.r - len(coeffs))))

    def from_index(self, idx: int) -> "FqElement":
        if not 0 <= idx < self.q:
            raise ValueError("index out of range")
        return FqElement(self, idx)

    def elements(self):
        return (FqElement(self, i) for i in range(self.q))

    def units(self):
        return (FqElement(self, i) for i in range(1, self.q))

    def __repr__(self):
        variant = f", variant={self.variant}" if self.variant else ""
        return f"FqField(p={self.p}, r={self.r}{variant})"


class FqElement:
    """Element of FqField; thin immutable wrapper over the packed index.
    Equal when the fields are equal (same model) and the indices agree."""

    __slots__ = ("field", "idx")

    def __init__(self, field: FqField, idx: int):
        _set_field(self, field)
        _set_idx(self, idx)

    def __setattr__(self, name, value):
        raise AttributeError(f"FqElement is immutable; cannot set {name!r}")

    def __eq__(self, other):
        return other.__class__ is FqElement and self.idx == other.idx and self.field == other.field

    def __hash__(self):
        return hash((self.field, self.idx))

    def __reduce__(self):
        return FqElement, (self.field, self.idx)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(self.field._unpack(self.idx))

    @property
    def is_zero(self) -> bool:
        return self.idx == 0

    def _co(self, other) -> "FqElement":
        if other.__class__ is FqElement and other.field is self.field:
            return other
        if isinstance(other, int):
            return FqElement(self.field, other % self.field.p)
        return self.field.element(other)

    def __add__(self, other):
        o = self._co(other)
        f, i, j = self.field, self.idx, o.idx
        if f.r == 1:
            return FqElement(f, (i + j) % f.p)
        if i == 0 or j == 0:
            return FqElement(f, i or j)
        a = f.dlog[i]
        z = f.zech[(f.dlog[j] - a) % (f.q - 1)]
        return FqElement(f, 0 if z < 0 else f.exp[(a + z) % (f.q - 1)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self._co(other)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        f, i = self.field, self.idx
        if f.r == 1:
            return FqElement(f, -i % f.p)
        return FqElement(f, f.exp[(f.dlog[i] + (f.q - 1) // 2) % (f.q - 1)] if i else 0)

    def __mul__(self, other):
        o = self._co(other)
        f = self.field
        if self.idx == 0 or o.idx == 0:
            return FqElement(f, 0)
        return FqElement(f, f.exp[(f.dlog[self.idx] + f.dlog[o.idx]) % (f.q - 1)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._co(other)
        f = self.field
        if o.idx == 0:
            raise ZeroArgument("0 has no inverse")
        if self.idx == 0:
            return FqElement(f, 0)
        return FqElement(f, f.exp[(f.dlog[self.idx] - f.dlog[o.idx]) % (f.q - 1)])

    def __rtruediv__(self, other):
        return self._co(other) / self

    def __pow__(self, e: int):
        f = self.field
        if self.idx == 0:
            if e < 0:
                raise ZeroArgument("0 has no inverse")
            return FqElement(f, 0 if e else 1)
        return FqElement(f, f.exp[e * f.dlog[self.idx] % (f.q - 1)])

    def dlog(self) -> int:
        if self.idx == 0:
            raise ZeroArgument("0 has no discrete log")
        return self.field.dlog[self.idx]

    def __repr__(self):
        if self.field.r == 1:
            return f"Fq({self.idx} mod {self.field.p})"
        return f"Fq{self.coeffs}@{self.field.p}^{self.field.r}"


# the slot setters, which __init__ calls past the immutable __setattr__
_set_field, _set_idx = FqElement.field.__set__, FqElement.idx.__set__


@lru_cache(maxsize=64)
def field_for(model: tuple[int, int, int]) -> FqField:
    """The field of ``model`` (p, r, variant); the one cache that holds fields."""
    return FqField(*model)


def build_field(p: int, r: int, variant: int = 0) -> FqField:
    """Deterministic field construction, cached by model however called;
    ``variant`` selects later admissible (polynomial, generator) pairs."""
    return field_for((p, r, variant))


def uctx_for(field: FqField, K: int) -> UnramifiedContext:
    """Z_q context mod p^K sharing the field's defining polynomial."""
    return unramified_context(field.p, K, field.r, tuple(field.poly))


def phi(x: FqElement) -> int:
    """Quadratic character: 0 at 0, else parity of the discrete log."""
    if x.idx == 0:
        return 0
    return -1 if x.field.dlog[x.idx] % 2 else 1


def trace(x: FqElement) -> int:
    """Frobenius-power sum down to the prime field, returned in [0, p)."""
    f = x.field
    coeffs = sum((x ** f.p**i for i in range(f.r)), f.zero).coeffs
    if any(coeffs[1:]):
        raise AssertionError("trace left the prime field")
    return coeffs[0]


def check_context(field: FqField, uctx: UnramifiedContext) -> None:
    """Reject a Z_q context that does not present the field's extension."""
    if (uctx.p, uctx.r) != (field.p, field.r) or uctx.poly_mod_p != tuple(field.poly):
        raise ValueError("field and p-adic context present different extensions")


def residue_dtype(modulus: int):
    """Array dtype for residues mod p^K that are multiplied then reduced:
    int64 while p^K < 2^31, so a product of two stays below 2^62, else
    Python ints."""
    return np.int64 if modulus < 2**31 else object


class TeichmuellerPowers:
    """T[s] = omega(g)^s in Z_q mod p^K for s in [0, q-1), g the generator
    of the field of ``model``; then omega^m(x) = T[m * dlog(x) mod (q-1)].

    One Teichmueller lift and about log2(q) row-wise products build it, by
    doubling: T[n:2n] = T[:n] * omega^n, with omega^n squared on its
    coefficient list.  ``array`` holds the coordinates as
    a (q-1, r) array of ``residue_dtype`` for gathers; ``table[s]`` reads one
    row back as a Z_q element.
    """

    def __init__(self, model: tuple[int, int, int], uctx: UnramifiedContext):
        field = field_for(model)
        check_context(field, uctx)
        self.uctx = uctx
        m, n, q1 = uctx.modulus, 1, field.q - 1
        array = np.zeros((q1, uctx.r), dtype=residue_dtype(m))
        array[0, 0] = 1
        wn = list(teichmueller(field.generator, uctx).coeffs)
        while n < q1:
            k = min(n, q1 - n)
            array[n : n + k] = poly_mul_rows(array[:k], np.array(wn, dtype=array.dtype), uctx.poly, m)
            wn, n = _poly_mulmod(wn, wn, uctx.poly, m), n + k
        self.array = array

    def __getitem__(self, s: int) -> ZqElement:
        return ZqElement(tuple(int(c) for c in self.array[s]), self.uctx)


# keyed by the field's model and the context, which carries K and the lifted
# polynomial fixing the coordinates; the table holds no field
teichmueller_powers = lru_cache(maxsize=64)(TeichmuellerPowers)


def check_orthogonality(field: FqField) -> bool:
    """Both orthogonality relations, verified exactly.

    Sums of (q-1)-th roots of unity are checked combinatorially, not in
    floats: the exponent multiset {m*s mod q-1} either is all zeros (sum is
    q-1) or covers each multiple of gcd(m, q-1) exactly gcd times, a full
    orbit of nontrivial roots of unity whose sum vanishes by the geometric
    series.  The chi(0) = 0 convention makes the x = 0 term drop from the
    first relation.  Both relations reduce to the same exponent pattern with
    the roles of character index and discrete log swapped, which the m-loop
    covers symmetrically.  The multiset depends on m only through
    gcd(m, q-1), so one m per class is counted: m = 0, then each divisor
    d < q-1 of q-1 stands for every m with gcd(m, q-1) = d.
    """
    q1 = field.q - 1
    s = np.arange(q1, dtype=np.int64)

    def exponent_sum_is(m: int, expect_full: bool) -> bool:
        counts = np.bincount((m * s) % q1, minlength=q1)
        if expect_full:
            return counts[0] == q1 and int(counts.sum()) == q1
        d = math.gcd(m, q1)
        if q1 // d == 1:
            return False
        want = np.zeros(q1, dtype=counts.dtype)
        want[::d] = d
        return bool(np.array_equal(counts, want))

    classes = [0] + [d for d in range(1, q1) if q1 % d == 0]
    return all(exponent_sum_is(m, expect_full=(m == 0)) for m in classes)
