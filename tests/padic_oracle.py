"""Scalar p-adic arithmetic, the scalar integer lift, and the per-character
orthogonality check and scalar Gamma_p evaluator, kept as test oracles; and
the exact fractional-part split and the lemma-level checks as rows of one,
which only the tests call.

The library computes with residue arrays, one batched point sum and one
array Gamma_p evaluator; nothing in it adds, negates or compares scalar Z_q
elements or valuation/unit numbers.  Tests build values and check
identities through these functions, which the library paths do not share.
Each is a former method or function body, verbatim, so a method's receiver
keeps the name ``self``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

import numpy as np

from padichyper.errors import (
    BoundTooLargeForPrecision,
    ContextMismatch,
    NoRepresentativeInBound,
    NotAnInteger,
    PrecisionExhausted,
)
from padichyper.fields import FqElement, build_field, teichmueller_powers
from padichyper.gamma import GammaCache, digit_blocks
from padichyper.padic import (
    PadicNumber,
    UnramifiedContext,
    ZqElement,
    padic_sum,
    padic_valuation,
)
from padichyper.verify import VerifyRecord, _eq29_row, _lemma5_row, _lemma31_row, _one, _ortho_row

RationalLike = Union[Fraction, int]


def frac_floor(x: RationalLike) -> tuple[Fraction, int]:
    """Split x into (fractional part in [0,1), floor), exactly."""
    x = Fraction(x)
    fl = x.numerator // x.denominator
    return x - fl, fl


# -- Z_q mod p^K: the additive group --------------------------------------


def zq_add(self: ZqElement, other: ZqElement) -> ZqElement:
    self._check(other)
    m = self.context.modulus
    return ZqElement(tuple((a + b) % m for a, b in zip(self.coeffs, other.coeffs)), self.context)


def zq_sub(self: ZqElement, other: ZqElement) -> ZqElement:
    self._check(other)
    m = self.context.modulus
    return ZqElement(tuple((a - b) % m for a, b in zip(self.coeffs, other.coeffs)), self.context)


def zq_neg(self: ZqElement) -> ZqElement:
    m = self.context.modulus
    return ZqElement(tuple(-a % m for a in self.coeffs), self.context)


# -- valuation/unit numbers -------------------------------------------------


def from_rational(x: RationalLike, uctx: UnramifiedContext) -> PadicNumber:
    """The embedding of an int or Fraction, to K digits past its valuation."""
    x = Fraction(x)
    if x == 0:
        return PadicNumber.zero()
    wn = padic_valuation(x.numerator, uctx.p) if x.numerator % uctx.p == 0 else 0
    wd = padic_valuation(x.denominator, uctx.p) if x.denominator % uctx.p == 0 else 0
    num = x.numerator // uctx.p**wn
    den = x.denominator // uctx.p**wd
    unit = uctx.from_int(num * pow(den, -1, uctx.modulus))
    return PadicNumber(wn - wd, unit, wn - wd + uctx.K)


def padic_mul(self: PadicNumber, other: PadicNumber) -> PadicNumber:
    if self.exact_zero or other.exact_zero:
        prec = math.inf
        if self.exact_zero:
            prec = min(prec, self.abs_prec + (other.valuation if not other.exact_zero else other.abs_prec))
        if other.exact_zero:
            prec = min(prec, other.abs_prec + (self.valuation if not self.exact_zero else self.abs_prec))
        return PadicNumber.zero(prec)
    v = self.valuation + other.valuation
    unit = self.unit * other.unit
    prec = min(self.abs_prec + other.valuation, other.abs_prec + self.valuation, v + unit.context.K)
    return PadicNumber(v, unit, prec)


def padic_neg(self: PadicNumber) -> PadicNumber:
    if self.exact_zero:
        return self
    return PadicNumber(self.valuation, zq_neg(self.unit), self.abs_prec)


def padic_add(self: PadicNumber, other: PadicNumber) -> PadicNumber:
    return padic_sum([self, other])


def agrees_to(self: PadicNumber, other: PadicNumber, prec: int) -> bool:
    """True iff self - other is O(p^prec); both must carry that much precision.

    Works across contexts that present the same extension at different K:
    each side only contributes digits below prec, which its own storage
    precision is guaranteed to cover.
    """
    if self.abs_prec < prec or other.abs_prec < prec:
        raise PrecisionExhausted(
            f"comparison at O(p^{prec}) needs more precision than tracked"
        )
    a, b = self, other
    if a.exact_zero and b.exact_zero:
        return True
    for x, y in ((a, b), (b, a)):
        if x.exact_zero:
            return y.valuation >= prec
    ca, cb = a.unit.context, b.unit.context
    if (ca.p, ca.r) != (cb.p, cb.r):
        raise ContextMismatch("values live in different extensions")
    p = ca.p
    vmin = min(a.valuation, b.valuation)
    rel = prec - vmin
    if rel <= 0:
        return True
    mod_rel = p**rel
    sa = p ** (a.valuation - vmin)
    sb = p ** (b.valuation - vmin)
    if ca.poly_mod_p != cb.poly_mod_p:
        # different models of the same extension are only comparable on
        # the canonical subring Z_p: all higher coordinates must vanish
        higher = [u * sa for u in a.unit.coeffs[1:]] + [u * sb for u in b.unit.coeffs[1:]]
        if any(u % mod_rel for u in higher):
            raise ContextMismatch(
                "values live in different models and are not both in Z_p"
            )
        return (a.unit.coeffs[0] * sa - b.unit.coeffs[0] * sb) % mod_rel == 0
    return all(
        (ua * sa - ub * sb) % mod_rel == 0
        for ua, ub in zip(a.unit.coeffs, b.unit.coeffs)
    )


# -- integer recovery, one value at a time -----------------------------------


def recover_integer_scalar(x: PadicNumber, bound: int, p: int | None = None) -> int:
    """Symmetric lift of a p-adic value claimed to be an integer in [-B, B],
    by integer arithmetic on the unit's coordinates; ``recover_rows`` and
    ``recover_integer`` must agree with it value by value and error by error.

    ``p`` is only consulted when x is an exact_zero (which carries no
    context); it is required there unless the zero is exact to infinite
    precision.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if x.exact_zero:
        if x.abs_prec == math.inf:
            return 0
        if p is None:
            raise ValueError("p is required to gate a zero known to finite precision")
        if p**x.abs_prec <= 2 * bound:
            raise BoundTooLargeForPrecision("zero known to too few digits")
        return 0
    ctx = x.unit.context
    p = ctx.p
    if x.valuation < 0:
        raise NotAnInteger(f"valuation {x.valuation} is negative")
    A = int(min(x.abs_prec, x.valuation + ctx.K))
    pA = p**A
    if pA <= 2 * bound:
        raise BoundTooLargeForPrecision(f"p^{A} <= 2*{bound}")
    shift = p**x.valuation
    mod_high = p ** (A - x.valuation)
    if any(c % mod_high for c in x.unit.coeffs[1:]):
        raise NotAnInteger("nonzero coordinates outside the prime subring")
    n0 = x.unit.coeffs[0] * shift % pA
    if n0 <= bound:
        return n0
    if pA - n0 <= bound:
        return n0 - pA
    raise NoRepresentativeInBound(f"no representative of size <= {bound}")


# -- characters, orthogonality and Gamma_p, one point at a time --------------


def char_eval_padic(m: int, x: FqElement, uctx: UnramifiedContext) -> ZqElement:
    """omega^m(x) in Z_q mod p^K via the Teichmueller lift."""
    return uctx.element(teichmueller_powers(x.field.model, uctx)[m * x.dlog() % (x.field.q - 1)].tolist())


def check_orthogonality_per_character(field) -> bool:
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


def gamma_horner(self: GammaCache, x) -> int:
    """Gamma_p(x) by the scalar digit-block evaluation: f(n) at the one
    residue n = x mod p^K, one short Horner loop per base-p digit of n.
    It reads the shared digit blocks but keeps no memo, so it may share a
    cache with ``GammaCache.gamma``."""

    def _f(n: int) -> int:
        """f(n) for 0 <= n < p^K, one block per base-p digit of n."""
        p, m = self.p, self.modulus
        f, y = 1, n
        for level in digit_blocks(p, self.K):
            y, d = divmod(y, p)
            if d:
                acc = 0
                for coeff in reversed(level[d].tolist()):
                    acc = (acc * y + coeff) % m
                f = f * acc % m
        return f

    x = Fraction(x)
    n = self._reduce(x.numerator, x.denominator)
    return _f(n) if n % 2 == 0 else -_f(n) % self.modulus


# -- lemma-level checks, each a row of one ----------------------------------


def verify_lemma31_record(p: int, r: int, t: int, j: int, K: int | None = None) -> VerifyRecord:
    return _one(_lemma31_row(build_field(p, r), K, np.array([[t, j]])))


def verify_eq29_record(p: int, r: int, l: int, K: int | None = None) -> VerifyRecord:
    return _one(_eq29_row(build_field(p, r), K, np.array([l])))


def verify_lemma5_record(p: int, r: int, l: int, i: int) -> VerifyRecord:
    return _one(_lemma5_row(p, r, np.array([[l, i]])))


def verify_ortho_record(p: int, r: int) -> VerifyRecord:
    return _one(_ortho_row(build_field(p, r), np.zeros(1)))
