"""F_q = F_{p^r} with a deterministic defining polynomial and generator, a
full discrete-log table, multiplicative characters (notably the quadratic
character), and the trace map.

Elements are encoded as integers in [0, q): the little-endian base-p packing
of the power-basis coefficient vector.  Each table is one read-only array:
exp/dlog, phi and, for r >= 2, Zech's zech[n] = dlog(1 + g^n), since g^a +
g^b = g^(a + zech[b - a]).  The FqElement operators read single entries of
them as ints, and the ``np_*`` methods gather from them on index arrays,
which broadcast as numpy's do.  Every operation is O(1) after the O(q r^2)
build by ``power_rows``, whose doubling steps are r passes over whole arrays.
It also builds the Teichmueller powers of the generator, which
``teichmueller_powers`` caches per model and Z_q context as one read-only
(q-1, r) array, and ``field_cubes`` keeps x^3 for the point counts.
``row_chunks`` cuts rows of (instance, term) work into chunks under an element
budget, for the point counts' character sums and the series' batched sum.

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
    prod = np.zeros((a.shape[0], 2 * r - 1), dtype=a.dtype)
    for i in range(r):
        for k in range(r):
            prod[:, i + k] = (prod[:, i + k] + a[:, i] * b[..., k]) % m
    return poly_reduce_rows(prod, poly, m)


def row_chunks(n: int, width: int, budget: int, chunk) -> np.ndarray:
    """``chunk(lo, hi)`` for the rows lo..hi-1 of n, each ``width`` terms
    wide, in chunks of at most ``budget`` terms and one row at least, joined
    in order; n = 0 is one empty chunk."""
    step = max(1, budget // width)
    if n <= step:
        return chunk(0, n)
    return np.concatenate([chunk(lo, lo + step) for lo in range(0, n, step)])


def power_rows(base: Sequence[int], n: int, poly: Sequence[int], m: int) -> np.ndarray:
    """base^0, ..., base^(n-1) in (Z/m)[x]/(x^r + poly), an (n, r) array of
    ``residue_dtype``, by doubling: rows [k, 2k) are rows [0, k) times the r x r
    matrix of base^k, whose row i is x^i base^k, in r passes over (k, r) arrays
    with each product reduced before it is added: exact in int64 while m < 2^31."""
    rows = np.zeros((n, len(poly)), dtype=residue_dtype(m))
    rows[0, 0] = 1
    bk, k = list(base), 1
    while k < n:
        c = min(k, n - k)
        out = rows[k : k + c]
        for i in range(len(poly)):
            out += rows[:c, i, None] * np.array(_poly_mulmod([0] * i + [1], bk, poly, m), dtype=rows.dtype) % m
        out %= m
        bk, k = _poly_mulmod(bk, bk, poly, m), k + c
    return rows


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
        # power-basis coordinates of g^s for s in [0, q-1], packed to indices
        powers = power_rows(self._unpack(gen_idx), q, self.poly, p)
        exp = powers @ p ** np.arange(r, dtype=np.int64)
        if np.bincount(exp[: q - 1], minlength=q).max() > 1:
            raise AssertionError("generator order below q-1")
        if exp[q - 1] != 1:
            raise AssertionError("generator order is not q-1")
        exp = exp[: q - 1]
        dlog = np.full(q, -1, dtype=np.int64)
        dlog[exp] = np.arange(q - 1)
        self.exp_np = np.concatenate([exp, exp])
        self.dlog_np = dlog
        # the quadratic character by index (g^s is a square iff s is even), as
        # int8: gathering one byte a value, not eight, runs about four times faster
        self.phi_np = np.ones(q, dtype=np.int8)
        self.phi_np[exp[1::2]] = -1
        self.phi_np[0] = 0
        self.exp_np.flags.writeable = self.dlog_np.flags.writeable = self.phi_np.flags.writeable = False
        if r > 1:  # 1 + x bumps only the low base-p digit of x; -1 marks 1 + g^n = 0
            self.zech_np = self.dlog_np[exp - exp % p + (exp % p + 1) % p]
            self.zech_np.flags.writeable = False
        self.zero, self.one = FqElement(self, 0), FqElement(self, 1)
        self.generator = FqElement(self, gen_idx)

    def __eq__(self, other):
        return self is other or (other.__class__ is FqField and self.model == other.model)

    def __hash__(self):
        return hash(self.model)

    # -- packing ----------------------------------------------------------------

    def _unpack(self, idx: int) -> list[int]:
        return [idx // self.p**i % self.p for i in range(self.r)]

    def _pack(self, coeffs: Sequence[int]) -> int:
        return sum(c % self.p * self.p**i for i, c in enumerate(coeffs))

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
        a = f.dlog_np.item(i)
        z = f.zech_np.item((f.dlog_np.item(j) - a) % (f.q - 1))
        return FqElement(f, 0 if z < 0 else f.exp_np.item((a + z) % (f.q - 1)))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self._co(other)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        f, i = self.field, self.idx
        if f.r == 1:
            return FqElement(f, -i % f.p)
        return FqElement(f, f.exp_np.item((f.dlog_np.item(i) + (f.q - 1) // 2) % (f.q - 1)) if i else 0)

    def __mul__(self, other):
        o = self._co(other)
        f = self.field
        if f.r == 1:
            return FqElement(f, self.idx * o.idx % f.p)
        if self.idx == 0 or o.idx == 0:
            return FqElement(f, 0)
        return FqElement(f, f.exp_np.item((f.dlog_np.item(self.idx) + f.dlog_np.item(o.idx)) % (f.q - 1)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._co(other) ** -1

    def __rtruediv__(self, other):
        return self._co(other) / self

    def __pow__(self, e: int):
        f = self.field
        if self.idx == 0:
            if e < 0:
                raise ZeroArgument("0 has no inverse")
            return FqElement(f, 0 if e else 1)
        if f.r == 1:
            return FqElement(f, pow(self.idx, e, f.p))
        return FqElement(f, f.exp_np.item(e * f.dlog_np.item(self.idx) % (f.q - 1)))

    def dlog(self) -> int:
        if self.idx == 0:
            raise ZeroArgument("0 has no discrete log")
        return self.field.dlog_np.item(self.idx)

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
    return x.field.phi_np.item(x.idx)


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


@lru_cache(maxsize=64)
def field_cubes(model: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Every index x of the field of ``model`` and that of x^3, two read-only arrays."""
    xs = np.arange(model[0] ** model[1], dtype=np.int64)
    cubes = field_for(model).np_pow(xs, 3)
    xs.flags.writeable = cubes.flags.writeable = False
    return xs, cubes


# keyed by the field's model and the context, which carries K and the lifted
# polynomial fixing the coordinates; the array holds no field
@lru_cache(maxsize=64)
def teichmueller_powers(model: tuple[int, int, int], uctx: UnramifiedContext) -> np.ndarray:
    """T[s] = omega(g)^s in Z_q mod p^K for s in [0, q-1), g the generator
    of the field of ``model``; then omega^m(x) = T[m * dlog(x) mod (q-1)].

    One Teichmueller lift and about log2(q) row-wise products build it, by
    ``power_rows``'s doubling: a read-only (q-1, r) array of
    ``residue_dtype``, row s the coordinates of T[s].
    """
    field = field_for(model)
    check_context(field, uctx)
    omega = teichmueller(field.generator, uctx).coeffs
    powers = power_rows(omega, field.q - 1, uctx.poly, uctx.modulus)
    powers.flags.writeable = False
    return powers


def check_orthogonality(field: FqField) -> bool:
    """Both orthogonality relations, verified exactly.

    Sums of (q-1)-th roots of unity are checked combinatorially, not in
    floats: the exponent multiset {m*dlog(x) mod q-1} over the units x, read
    from the field's dlog table, either is all zeros (sum is q-1) or covers
    each multiple of gcd(m, q-1) exactly gcd times, a full orbit of
    nontrivial roots of unity whose sum vanishes by the geometric series.
    The chi(0) = 0 convention makes the x = 0 term drop from the first
    relation.  Both relations reduce to the same exponent pattern with the
    roles of character index and discrete log swapped, which the m-loop
    covers symmetrically.  The multiset depends on m only through
    gcd(m, q-1), so one m per class is counted: m = 0, then each divisor
    d < q-1 of q-1 stands for every m with gcd(m, q-1) = d.
    """
    q1 = field.q - 1
    s = field.dlog_np[1:]

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
