"""The unramified extension Z_q mod p^K (Z/p^K is its r = 1 case), its
Teichmueller lifts, and valuation/unit p-adic numbers.

Residues are Python integers reduced mod p^K, extension elements are
coefficient vectors in the power basis of a lifted defining polynomial, and
every p-adic value carries its absolute precision (the exponent A such that
the value is known up to O(p^A)).  The library computes on residue arrays
and hands each value back through ``renormalize``; ``ZqElement`` and
``PadicNumber`` are those values, not a second ring layer, so scalar
addition, negation, the embedding of rationals and digit comparison live in
``tests/padic_oracle.py`` as oracles.  All types are immutable after
construction and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import (
    CompositeP,
    ContextMismatch,
    NotAUnit,
    PrecisionExhausted,
    ZeroArgument,
)

# Kept only for perfbench/tracing.py, which wraps or counts these names; no
# library path calls them, so they can go once the tracer spans the row
# functions instead:
#   padic:  zq_inv, with the zq_pow, ZqElement.__mul__ and UnramifiedContext.one
#           it needs; padic_sum
#   hyper:  GProfile.eval_qg, and the imports of padic_sum, teichmueller, zq_inv
#   verify: verify_cor2, verify_bs1, and the imports of padic_sum,
#           count_hessian, count_weierstrass, recover_integer
# The tracer also reads GammaCache.rational_table as an lru_cache wrapper and
# the keys of GammaCache.table, so both keep that form.


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (intended for n <= ~10^10)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def default_precision(p: int, r: int) -> int:
    """Default working precision K = max(5, ceil(log_p(20 q)) + r): identity
    comparisons involve integers bounded by a small multiple of q, and the
    extra r digits absorb the valuation shifts of the series terms."""
    q = p**r
    k0 = 1
    while p**k0 < 20 * q:
        k0 += 1
    return max(5, k0 + r)


def padic_valuation(n: int, p: int) -> int:
    """Largest w with p^w | n; requires n != 0."""
    if n == 0:
        raise ZeroArgument("valuation of 0 is infinite")
    w = 0
    while n % p == 0:
        n //= p
        w += 1
    return w


def odd_prime_modulus(p: int, K: int) -> int:
    """p^K, after checking that p is an odd prime and K >= 1."""
    if p == 2 or not is_prime(p):
        raise CompositeP(f"p must be an odd prime, got {p}")
    if K < 1:
        raise ValueError(f"precision exponent must be >= 1, got {K}")
    return p**K


# ---------------------------------------------------------------------------
# Polynomial helpers over F_p, used to pick and validate defining polynomials
# (``_poly_mulmod`` is also the Z_q and F_q multiply).  Polynomials are dense
# coefficient lists, lowest degree first.  A defining polynomial f is
# admissible iff x has multiplicative order exactly q - 1 mod (p, f): then
# F_p[x]/(f) has q - 1 distinct units, so it is a field, f is irreducible and
# its root generates the multiplicative group.


def _poly_mulmod(a: Sequence[int], b: Sequence[int], poly: Sequence[int], m: int) -> list[int]:
    """Schoolbook a*b reduced by the monic polynomial x^r + poly, all mod m
    (p for F_q, p^K for Z_q)."""
    r = len(poly)
    prod = [0] * (2 * r - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % m
    for d in range(2 * r - 2, r - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j, cj in enumerate(poly):
                prod[d - r + j] = (prod[d - r + j] - c * cj) % m
    return prod[:r]


def _poly_powmod(a: Sequence[int], e: int, poly: Sequence[int], m: int) -> list[int]:
    """a^e reduced by x^r + poly, mod m, by left-to-right binary
    exponentiation: a is the left factor, whose zero coefficients
    ``_poly_mulmod`` skips, so a power of x costs about one squaring a bit."""
    result = [1] + [0] * (len(poly) - 1)
    for bit in bin(e)[2:]:
        result = _poly_mulmod(result, result, poly, m)
        if bit == "1":
            result = _poly_mulmod(a, result, poly, m)
    return result


@lru_cache(maxsize=256)  # find_defining_poly proves a polynomial; each context rereads it
def _is_admissible(poly: tuple[int, ...], p: int) -> bool:
    """Does x have multiplicative order exactly q - 1 mod (p, x^r + poly)?

    Cheapest rejections first.  If it does, its norm (-1)^r c_0 = x^((q-1)/(p-1))
    generates F_p^*, the whole test at r = 1, where the root -c_0 is its own
    norm.  Then x^((q-1)/2) must not be 1 while its square x^(q-1) is, and
    x^((q-1)/ell) must not be 1 for any odd prime ell | q - 1.
    """
    r = len(poly)
    norm = (-1) ** r * poly[0] % p
    if norm == 0 or any(pow(norm, (p - 1) // ell, p) == 1 for ell in prime_factors(p - 1)):
        return False
    if r == 1:
        return True
    q = p**r
    one = [1] + [0] * (r - 1)
    x = [0, 1] + [0] * (r - 2)
    half = _poly_powmod(x, (q - 1) // 2, poly, p)
    if half == one or _poly_mulmod(half, half, poly, p) != one:
        return False
    return all(_poly_powmod(x, (q - 1) // ell, poly, p) != one for ell in prime_factors(q - 1)[1:])


@lru_cache(maxsize=256)
def find_defining_poly(p: int, r: int, variant: int = 0) -> tuple[int, ...]:
    """Deterministic defining polynomial for F_{p^r}: lower coefficients of the
    first admissible monic degree-r polynomial, one whose root x has
    multiplicative order exactly q - 1 mod p (so it is irreducible and x
    generates F_q^*).

    Candidates come in the order of the counter 0, 1, 2, ... read as base-p
    digits (c_0, ..., c_{r-1}).  For r = 1 they are x - g for g = 2, 3, ...,
    so the root is a primitive root mod p, the smallest one at variant 0.
    ``variant`` skips that many admissible candidates (test hook for checking
    model independence).
    """
    if r < 1:
        raise ValueError("extension degree must be >= 1")
    if r == 1:
        candidates = (((-g) % p,) for g in range(2, p))
    else:
        candidates = (tuple(n // p**i % p for i in range(r)) for n in range(p**r))
    skipped = 0
    for poly in candidates:
        if _is_admissible(poly, p):
            if skipped == variant:
                return poly
            skipped += 1
    raise CompositeP(f"no admissible degree-{r} polynomial over F_{p}")


@dataclass(frozen=True)
class UnramifiedContext:
    """Z_q mod p^K presented as Z/p^K[x] modulo a monic lifted polynomial;
    r = 1 is Z/p^K itself.

    ``p`` must be an odd prime and ``K`` at least 1.  ``poly`` holds the
    lower coefficients (c_0, ..., c_{r-1}) of x^r + c_{r-1} x^{r-1} + ... + c_0,
    reduced mod p^K; mod p its root must have multiplicative order exactly
    q - 1, which makes the reduction irreducible with a primitive root
    (checked once per polynomial).
    """

    p: int
    K: int
    r: int
    poly: tuple[int, ...]
    modulus: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "modulus", odd_prime_modulus(self.p, self.K))
        if self.r < 1 or len(self.poly) != self.r:
            raise ValueError("poly must have exactly r lower coefficients")
        if any(not 0 <= c < self.modulus for c in self.poly):
            raise ValueError("poly coefficients must be reduced mod p^K")
        if not _is_admissible(self.poly_mod_p, self.p):
            raise ValueError("root of defining polynomial does not have order q - 1 mod p")

    @property
    def q(self) -> int:
        return self.p**self.r

    @property
    def poly_mod_p(self) -> tuple[int, ...]:
        return tuple(c % self.p for c in self.poly)

    def element(self, coeffs: Sequence[int]) -> "ZqElement":
        cs = tuple(c % self.modulus for c in coeffs)
        if len(cs) < self.r:
            cs = cs + (0,) * (self.r - len(cs))
        return ZqElement(cs, self)

    def from_int(self, n: int) -> "ZqElement":
        return self.element((n,))

    @property
    def one(self) -> "ZqElement":
        return self.from_int(1)


@lru_cache(maxsize=64)
def unramified_context(p: int, K: int, r: int, poly: tuple[int, ...] | None = None) -> UnramifiedContext:
    """Cached UnramifiedContext; defaults to the deterministic defining polynomial."""
    if poly is None:
        poly = find_defining_poly(p, r)
        poly = tuple(c % p**K for c in poly)
    return UnramifiedContext(p, K, r, poly)


@dataclass(frozen=True)
class ZqElement:
    """Element of Z_q mod p^K as coordinates in the power basis."""

    coeffs: tuple[int, ...]
    context: UnramifiedContext

    def __post_init__(self):
        if len(self.coeffs) != self.context.r:
            raise ValueError("coefficient vector has wrong length")

    def _check(self, other: "ZqElement"):
        if self.context != other.context:
            raise ContextMismatch("Zq operands from different contexts")

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        ctx = self.context
        if ctx.r == 1:
            return ZqElement((self.coeffs[0] * other.coeffs[0] % ctx.modulus,), ctx)
        return ZqElement(tuple(_poly_mulmod(self.coeffs, other.coeffs, ctx.poly, ctx.modulus)), ctx)

    __rmul__ = __mul__

    def scale(self, n: int) -> "ZqElement":
        m = self.context.modulus
        return ZqElement(tuple(a * n % m for a in self.coeffs), self.context)

    @property
    def is_unit(self) -> bool:
        return any(c % self.context.p for c in self.coeffs)

    def __repr__(self):
        return f"Zq{self.coeffs}@{self.context.p}^{self.context.K}"


def zq_inv(x: ZqElement) -> ZqElement:
    """Inverse of a unit in closed form: the units of Z_q mod p^K form a group
    of order (q-1) q^(K-1), so x^-1 = x^((q-1) q^(K-1) - 1)."""
    if not x.is_unit:
        raise NotAUnit("element is divisible by p")
    ctx = x.context
    return zq_pow(x, (ctx.q - 1) * ctx.q ** (ctx.K - 1) - 1)


def zq_pow(x: ZqElement, e: int) -> ZqElement:
    """x^e by binary exponentiation, e >= 0."""
    if e < 0:
        raise ValueError("negative exponent; invert first")
    result = x.context.one
    base = x
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


def _coeffs_of(t) -> tuple[int, ...]:
    if isinstance(t, int):
        return (t,)
    if hasattr(t, "coeffs"):
        return tuple(t.coeffs)
    return tuple(t)


def teichmueller(t, uctx: UnramifiedContext) -> ZqElement:
    """Teichmueller lift of a nonzero residue-field element: the unique
    (q-1)-th root of unity in Z_q congruent to t mod p.

    Computed in closed form as z^(q^(K-1)) for the coefficient-wise naive
    lift z: z = omega(t)(1 + p y), and (1 + p y)^(q^(K-1)) = 1 mod p^K.  The
    power is taken on coefficients: ``pow`` at r = 1, ``_poly_powmod`` above.
    Accepts an integer, a coefficient sequence, or anything with ``.coeffs``.
    """
    coeffs = [c % uctx.p for c in _coeffs_of(t)]
    if not any(coeffs):
        raise ZeroArgument("Teichmueller lift requires a nonzero element")
    if len(coeffs) > uctx.r:
        raise ContextMismatch("element has more coordinates than the extension degree")
    e, m = uctx.q ** (uctx.K - 1), uctx.modulus
    if uctx.r == 1:
        return ZqElement((pow(coeffs[0], e, m),), uctx)
    coeffs += [0] * (uctx.r - len(coeffs))
    return ZqElement(tuple(_poly_powmod(coeffs, e, uctx.poly, m)), uctx)


# ---------------------------------------------------------------------------
# Valuation/unit p-adic numbers with tracked absolute precision.


@dataclass(frozen=True)
class PadicNumber:
    """A p-adic number p^valuation * unit known up to O(p^abs_prec).

    ``exact_zero`` marks a value indistinguishable from 0 at the available
    precision (unit unused); ``abs_prec`` may be ``math.inf`` for exactly
    embedded integers that happen to be zero.
    """

    valuation: int
    unit: ZqElement | None
    abs_prec: float
    exact_zero: bool = False

    def __post_init__(self):
        if self.exact_zero:
            return
        if self.unit is None or not self.unit.is_unit:
            raise ValueError("nonzero PadicNumber needs a unit part")
        if self.abs_prec <= self.valuation:
            raise PrecisionExhausted(
                f"value of valuation {self.valuation} known only to O(p^{self.abs_prec})"
            )

    @classmethod
    def zero(cls, abs_prec: float = math.inf) -> "PadicNumber":
        return cls(0, None, abs_prec, exact_zero=True)

    def scale_int(self, n: int) -> "PadicNumber":
        """Multiply by an exact integer scalar."""
        if self.exact_zero or n == 0:
            if n == 0:
                return PadicNumber.zero()
            return self
        w = padic_valuation(n, self.unit.context.p)
        unit = self.unit.scale(n // self.unit.context.p**w)
        return PadicNumber(self.valuation + w, unit, self.abs_prec + w)

    def digits(self, limit: int | None = None) -> str:
        """Canonical base-p rendering, low digit first, prefixed 'valuation:'.

        For r >= 2 each digit is the dot-joined tuple of coordinate digits.
        Only digits guaranteed by abs_prec are printed.
        """
        if self.exact_zero:
            tag = "exact" if self.abs_prec == math.inf else f"O(p^{int(self.abs_prec)})"
            return f"zero:{tag}"
        ctx = self.unit.context
        nd = int(min(self.abs_prec - self.valuation, ctx.K))
        if limit is not None:
            nd = min(nd, limit)
        p = ctx.p
        coords = []
        for c in self.unit.coeffs:
            digits = []
            for _ in range(nd):
                c, d = divmod(c, p)
                digits.append(str(d))
            coords.append(digits)
        return f"{self.valuation}:" + ",".join(map(".".join, zip(*coords)))

    def __repr__(self):
        return f"PadicNumber({self.digits(limit=6)})"


def padic_sum(terms: Iterable[PadicNumber]) -> PadicNumber:
    """Exact sum: rescale to the minimum valuation, add units mod p^K,
    renormalize (extracting p-powers into the valuation), and report the
    surviving absolute precision.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("empty sum")
    abs_prec = min(t.abs_prec for t in terms)
    nonzero = [t for t in terms if not t.exact_zero]
    if not nonzero:
        return PadicNumber.zero(abs_prec)
    ctx = nonzero[0].unit.context
    for t in nonzero[1:]:
        if t.unit.context != ctx:
            raise ContextMismatch("summands from different contexts")
    vmin = min(t.valuation for t in nonzero)
    acc = [0] * ctx.r
    m = ctx.modulus
    for t in nonzero:
        pw = ctx.p ** (t.valuation - vmin)
        for i, c in enumerate(t.unit.coeffs):
            acc[i] = (acc[i] + c * pw) % m
    return renormalize(acc, ctx, vmin, abs_prec)


def renormalize(coeffs: Sequence[int], ctx: UnramifiedContext, offset: int, abs_prec: float) -> PadicNumber:
    """The value p^offset * (coeffs as a Z_q mod p^K residue vector), known
    to O(p^abs_prec), in valuation/unit form.

    Only the digits below p^min(abs_prec - offset, K) are known: if they all
    vanish the value is an exact zero at abs_prec, else their common p-power
    p^w moves into the valuation, offset + w.  Raises PrecisionExhausted when
    no digit is known.
    """
    rel = abs_prec - offset
    if rel < 1:
        raise PrecisionExhausted("no guaranteed digits survive at the minimum valuation")
    mod_rel = ctx.p ** int(min(rel, ctx.K))
    known = math.gcd(*(c % mod_rel for c in coeffs))
    if known == 0:
        return PadicNumber.zero(abs_prec)
    w = padic_valuation(known, ctx.p)
    pw = ctx.p**w
    return PadicNumber(offset + w, ZqElement(tuple(c // pw for c in coeffs), ctx), abs_prec)
