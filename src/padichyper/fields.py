"""F_q = F_{p^r} with a deterministic defining polynomial and generator, a
full discrete-log table, multiplicative characters (notably the quadratic
character), and the trace map.

Elements are encoded as integers in [0, q): the little-endian base-p packing
of the power-basis coefficient vector.  Addition is digit-wise, products go
through the exp/dlog tables, so every multiplicative query is O(1) after the
O(q r^2) build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import CompositeP, FieldTooLarge, ZeroArgument
from .padic import (
    UnramifiedContext,
    ZqElement,
    find_defining_poly,
    is_prime,
    teichmueller,
    unramified_context,
)

DEFAULT_MAX_Q = 100_000


class FqField:
    """Finite field with precomputed exp/dlog tables; immutable after build."""

    def __init__(self, p: int, r: int, variant: int = 0, max_q: int = DEFAULT_MAX_Q):
        if p == 2 or not is_prime(p):
            raise CompositeP(f"p must be an odd prime, got {p}")
        if r < 1:
            raise ValueError("extension degree must be >= 1")
        q = p**r
        if q > max_q:
            raise FieldTooLarge(f"q = {q} exceeds the table bound {max_q}")
        self.p = p
        self.r = r
        self.q = q
        self.poly = find_defining_poly(p, r, variant)
        self.variant = variant
        gen_idx = (-self.poly[0]) % p if r == 1 else p
        self.generator_idx = gen_idx
        exp = [0] * (q - 1)
        dlog = [-1] * q
        cur = 1
        for s in range(q - 1):
            exp[s] = cur
            if dlog[cur] != -1:
                raise AssertionError("generator order below q-1")
            dlog[cur] = s
            cur = self._mul_poly(cur, gen_idx)
        if cur != 1:
            raise AssertionError("generator order is not q-1")
        self.exp = exp
        self.dlog = dlog
        self.exp_np = np.array(exp + exp, dtype=np.int64)
        self.dlog_np = np.array(dlog, dtype=np.int64)

    # -- raw index arithmetic -------------------------------------------------

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

    def _mul_poly(self, i: int, j: int) -> int:
        """Schoolbook product with polynomial reduction (table-free, for builds)."""
        p, r = self.p, self.r
        if r == 1:
            return i * j % p
        a, b = self._unpack(i), self._unpack(j)
        prod = [0] * (2 * r - 1)
        for s, av in enumerate(a):
            if av:
                for t, bv in enumerate(b):
                    prod[s + t] = (prod[s + t] + av * bv) % p
        for d in range(2 * r - 2, r - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for k, ck in enumerate(self.poly):
                    prod[d - r + k] = (prod[d - r + k] - c * ck) % p
        return self._pack(prod[:r])

    def add_idx(self, i: int, j: int) -> int:
        if self.r == 1:
            return (i + j) % self.p
        return self._pack(x + y for x, y in zip(self._unpack(i), self._unpack(j)))

    def neg_idx(self, i: int) -> int:
        if self.r == 1:
            return -i % self.p
        return self._pack(-x for x in self._unpack(i))

    def sub_idx(self, i: int, j: int) -> int:
        return self.add_idx(i, self.neg_idx(j))

    def mul_idx(self, i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        return self.exp[(self.dlog[i] + self.dlog[j]) % (self.q - 1)]

    def inv_idx(self, i: int) -> int:
        if i == 0:
            raise ZeroArgument("0 has no inverse")
        return self.exp[-self.dlog[i] % (self.q - 1)]

    def pow_idx(self, i: int, e: int) -> int:
        if i == 0:
            if e < 0:
                raise ZeroArgument("0 has no inverse")
            return 0 if e else 1
        return self.exp[e * self.dlog[i] % (self.q - 1)]

    # -- vectorized index arithmetic (numpy arrays of element indices) --------

    def np_add(self, a: np.ndarray, b) -> np.ndarray:
        if self.r == 1:
            return (a + b) % self.p
        x, y = np.broadcast_arrays(
            np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        )
        out = np.zeros(x.shape, dtype=np.int64)
        scale = 1
        for _ in range(self.r):
            out += scale * ((x % self.p + y % self.p) % self.p)
            x, y = x // self.p, y // self.p
            scale *= self.p
        return out

    def np_mul_const(self, c: int, arr: np.ndarray) -> np.ndarray:
        if c == 0:
            return np.zeros_like(arr)
        shift = self.dlog[c]
        out = self.exp_np[self.dlog_np[arr] + shift]
        return np.where(arr == 0, 0, out)

    def np_pow(self, arr: np.ndarray, e: int) -> np.ndarray:
        out = self.exp_np[(self.dlog_np[arr] * e) % (self.q - 1)]
        return np.where(arr == 0, 0, out)

    # -- elements ---------------------------------------------------------------

    def element(self, value: Union[int, Sequence[int], "FqElement"]) -> "FqElement":
        """Coerce an integer (prime-subfield value) or coefficient vector."""
        if isinstance(value, FqElement):
            if value.field is not self:
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

    @property
    def zero(self) -> "FqElement":
        return FqElement(self, 0)

    @property
    def one(self) -> "FqElement":
        return FqElement(self, 1)

    @property
    def generator(self) -> "FqElement":
        return FqElement(self, self.generator_idx)

    def elements(self):
        return (FqElement(self, i) for i in range(self.q))

    def units(self):
        return (FqElement(self, i) for i in range(1, self.q))

    def __repr__(self):
        return f"FqField(p={self.p}, r={self.r})"


@dataclass(frozen=True)
class FqElement:
    """Element of FqField; thin wrapper over the packed index."""

    field: FqField
    idx: int

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(self.field._unpack(self.idx))

    @property
    def is_zero(self) -> bool:
        return self.idx == 0

    def _co(self, other) -> "FqElement":
        return self.field.element(other)

    def __add__(self, other):
        o = self._co(other)
        return FqElement(self.field, self.field.add_idx(self.idx, o.idx))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._co(other)
        return FqElement(self.field, self.field.sub_idx(self.idx, o.idx))

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return FqElement(self.field, self.field.neg_idx(self.idx))

    def __mul__(self, other):
        o = self._co(other)
        return FqElement(self.field, self.field.mul_idx(self.idx, o.idx))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._co(other)
        return FqElement(self.field, self.field.mul_idx(self.idx, self.field.inv_idx(o.idx)))

    def __rtruediv__(self, other):
        return self._co(other) / self

    def __pow__(self, e: int):
        return FqElement(self.field, self.field.pow_idx(self.idx, e))

    def inverse(self) -> "FqElement":
        return FqElement(self.field, self.field.inv_idx(self.idx))

    def dlog(self) -> int:
        if self.idx == 0:
            raise ZeroArgument("0 has no discrete log")
        return self.field.dlog[self.idx]

    def __repr__(self):
        if self.field.r == 1:
            return f"Fq({self.idx} mod {self.field.p})"
        return f"Fq{self.coeffs}@{self.field.p}^{self.field.r}"


@dataclass(frozen=True)
class CharacterIndex:
    """Index m of the character T^m for a fixed generator T of the dual group."""

    m: int


def as_char_exponent(m: Union[int, CharacterIndex], q1: int) -> int:
    if isinstance(m, CharacterIndex):
        m = m.m
    return m % q1


_FIELD_CACHE: dict[tuple, FqField] = {}


def build_field(p: int, r: int, variant: int = 0, max_q: int = DEFAULT_MAX_Q) -> FqField:
    """Deterministic field construction (cached); ``variant`` selects later
    admissible (polynomial, generator) pairs for model-independence tests."""
    key = (p, r, variant, max_q)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FqField(p, r, variant=variant, max_q=max_q)
    return _FIELD_CACHE[key]


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
    acc = 0
    for i in range(f.r):
        acc = f.add_idx(acc, f.pow_idx(x.idx, f.p**i))
    coeffs = f._unpack(acc)
    if any(coeffs[1:]):
        raise AssertionError("trace left the prime field")
    return coeffs[0]


def check_context(field: FqField, uctx: UnramifiedContext) -> None:
    """Reject a Z_q context that does not present the field's extension."""
    if (uctx.p, uctx.r) != (field.p, field.r) or uctx.poly_mod_p != tuple(field.poly):
        raise ValueError("field and p-adic context present different extensions")


class TeichmuellerPowers:
    """T[s] = omega(g)^s in Z_q mod p^K for s in [0, q-1), g the field's
    generator; then omega^m(x) = T[m * dlog(x) mod (q-1)].

    One Teichmueller lift and q-2 ring multiplies build it.  ``array`` holds
    the coordinates as a (q-1, r) array for gathers: int64 while p^K < 2^31,
    so a product of two residues stays below 2^62, else Python ints.
    """

    def __init__(self, field: FqField, uctx: UnramifiedContext):
        check_context(field, uctx)
        self.field = field
        self.uctx = uctx
        g = teichmueller(field.generator, uctx)
        powers = [uctx.one]
        for _ in range(field.q - 2):
            powers.append(powers[-1] * g)
        self.powers = powers
        dtype = np.int64 if uctx.modulus < 2**31 else object
        self.array = np.array([z.coeffs for z in powers], dtype=dtype)

    def dlog(self, x: FqElement) -> int:
        if x.idx == 0:
            raise ZeroArgument("characters vanish at 0 by convention; not a unit value")
        return self.field.dlog[x.idx]


_TEICH_CACHE: dict[tuple, TeichmuellerPowers] = {}


def teichmueller_powers(field: FqField, uctx: UnramifiedContext) -> TeichmuellerPowers:
    """Cached TeichmuellerPowers, keyed by the field's (p, r, variant) and the
    context, which carries K and the lifted polynomial fixing the coordinates."""
    key = (field.p, field.r, field.variant, uctx)
    if key not in _TEICH_CACHE:
        _TEICH_CACHE[key] = TeichmuellerPowers(field, uctx)
    return _TEICH_CACHE[key]


def char_eval_padic(m: Union[int, CharacterIndex], x: FqElement, uctx: UnramifiedContext) -> ZqElement:
    """omega^m(x) in Z_q mod p^K via the Teichmueller lift."""
    q1 = x.field.q - 1
    table = teichmueller_powers(x.field, uctx)
    return table.powers[as_char_exponent(m, q1) * table.dlog(x) % q1]


def check_orthogonality(field: FqField) -> bool:
    """Both orthogonality relations, verified exactly.

    Sums of (q-1)-th roots of unity are checked combinatorially, not in
    floats: the exponent multiset {m*s mod q-1} either is all zeros (sum is
    q-1) or covers each multiple of gcd(m, q-1) exactly gcd times, a full
    orbit of nontrivial roots of unity whose sum vanishes by the geometric
    series.  The chi(0) = 0 convention makes the x = 0 term drop from the
    first relation.  Both relations reduce to the same exponent pattern with
    the roles of character index and discrete log swapped, which the m-loop
    covers symmetrically.
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

    return all(exponent_sum_is(m, expect_full=(m == 0)) for m in range(q1))
