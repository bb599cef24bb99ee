"""Term-by-term evaluator for the p-adic hypergeometric series nGn over F_q,
with exact rational floor bookkeeping, reusable per-field term profiles, and
symmetric-lift integer recovery.

The series is a -1/(q-1)-scaled sum over j in [0, q-2] of signed powers of
(-p) times ratios of p-adic gamma values at fractional-part arguments,
twisted by inverse-Teichmueller powers of the evaluation point.  All floors
and fractional parts are computed in exact integer arithmetic over a common
denominator, so term valuations are exact and the unit parts carry provable
absolute precision.

The twist omega-bar(t)^j is omega(g)^(-j dlog t) for the field's generator g,
read from the per-field Teichmueller power table, so a point costs a gather
and a modular dot product rather than a lift, an inverse and q-2 multiplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    BoundTooLargeForPrecision,
    DenominatorDivisibleByP,
    NoRepresentativeInBound,
    NotAnInteger,
    PrecisionExhausted,
    ZeroArgument,
)
from .fields import FqElement, FqField, TeichmuellerPowers, check_context, teichmueller_powers, uctx_for
from .gamma import gamma_cache
from .padic import (
    PadicNumber,
    UnramifiedContext,
    ZqElement,
    frac_floor,
    padic_sum,
)

# Not called here any more; perfbench/tracing.py wraps them under these names.
from .padic import teichmueller, zq_inv  # noqa: F401


@dataclass(frozen=True)
class GParams:
    """Upper/lower rational parameter lists of an nGn instance."""

    n: int
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 1 or len(self.a) != self.n or len(self.b) != self.n:
            raise ValueError("parameter lists must both have length n")
        object.__setattr__(self, "a", tuple(Fraction(x) for x in self.a))
        object.__setattr__(self, "b", tuple(Fraction(x) for x in self.b))

    def check_padic(self, p: int) -> None:
        for x in self.a + self.b:
            if x.denominator % p == 0:
                raise DenominatorDivisibleByP(f"parameter {x} is not a p-adic integer for p={p}")


def gparams(text: str) -> GParams:
    """Parse 'a1,a2;b1,b2' with entries like 1/4 or 3."""
    try:
        top, bottom = text.split(";")
        a = tuple(Fraction(s) for s in top.split(","))
        b = tuple(Fraction(s) for s in bottom.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse parameter spec {text!r}") from exc
    if len(a) != len(b):
        raise ValueError("upper and lower parameter lists differ in length")
    return GParams(len(a), a, b)


@dataclass(frozen=True)
class GInstance:
    """A fully bound evaluation: parameters, field, p-adic context, and t != 0."""

    params: GParams
    field: FqField
    uctx: UnramifiedContext
    t: FqElement

    def __post_init__(self):
        self.params.check_padic(self.field.p)
        if self.t.is_zero:
            raise ZeroArgument("evaluation point t must be nonzero")
        check_context(self.field, self.uctx)


def _valuation_bounds(n: int, p: int, r: int) -> tuple[int, int]:
    geo = (p**r - 1) // (p - 1)
    return -n * geo, 2 * n * geo


class GProfile:
    """j-indexed exact valuations and unit scalars for one (params, field, K).

    The gamma ratios and (-p)-exponents do not depend on the evaluation point,
    so one profile serves every t.  ``eval_qg`` gathers the twists from the
    field's Teichmueller power table and takes one modular dot product per
    point: no ring multiplies.  Built from the shared gamma table over the
    common denominator lcm(param denominators, q-1).
    """

    def __init__(self, params: GParams, field: FqField, uctx: UnramifiedContext):
        params.check_padic(field.p)
        self.params = params
        self.field = field
        self.uctx = uctx
        p, r, q = field.p, field.r, field.q
        K = uctx.K
        m = uctx.modulus
        cache = gamma_cache(p, K)

        D = q - 1
        for x in params.a + params.b:
            D = D * x.denominator // math.gcd(D, x.denominator)
        gtab = cache.rational_table(D)

        # per (i, k): integer numerators over D of <a_i p^k>, <-b_i p^k>, and
        # the step p^k/(q-1); gamma denominators are j-independent
        entries = []
        den_prod = 1
        for i in range(params.n):
            for k in range(r):
                pk = p**k
                fa = frac_floor(params.a[i] * pk)[0]
                fb = frac_floor(-params.b[i] * pk)[0]
                ca = fa.numerator * (D // fa.denominator)
                cb = fb.numerator * (D // fb.denominator)
                cs = pk * (D // (q - 1))
                entries.append((ca, cb, cs))
                den_prod = den_prod * gtab[ca] % m * gtab[cb] % m
        den_inv = pow(den_prod, -1, m)

        lo, hi = _valuation_bounds(params.n, p, r)
        v = [0] * (q - 1)
        c = [0] * (q - 1)
        n_par = params.n
        for j in range(q - 1):
            num = 1
            e_tot = 0
            for ca, cb, cs in entries:
                f1, a1 = divmod(ca - j * cs, D)
                f2, a2 = divmod(cb + j * cs, D)
                e_tot -= f1 + f2
                num = num * gtab[a1] % m * gtab[a2] % m
            if not lo <= e_tot <= hi:
                raise AssertionError(f"term valuation {e_tot} escapes [{lo}, {hi}]")
            unit = num * den_inv % m
            if (j * n_par + e_tot) % 2:
                unit = -unit % m
            v[j] = e_tot
            c[j] = unit
        self.vals = v
        self.units = c
        self.vmin = min(v)
        self.vmax = max(v)
        # -q/(q-1) prefactor of q*G, a unit scalar
        self.neg_inv_q1 = -pow(q - 1, -1, m) % m
        if self.vmin + r >= 0:
            self.qg_scaled = [c[j] * p ** (r + v[j]) % m for j in range(q - 1)]
        else:
            self.qg_scaled = None

    @cached_property
    def _powers(self) -> TeichmuellerPowers:
        return teichmueller_powers(self.field, self.uctx)

    @cached_property
    def _gather(self) -> tuple[np.ndarray, np.ndarray]:
        """(-j for each j, qg_scaled as a column in the power table's dtype)."""
        minus_j = -np.arange(self.field.q - 1, dtype=np.int64)
        return minus_j, np.array(self.qg_scaled, dtype=self._powers.array.dtype)[:, None]

    def eval_qg(self, t: FqElement) -> PadicNumber:
        """q * G at t, to absolute precision K.

        Requires every term of q*G to be p-integral (r + v_j >= 0), which
        holds for all parameter families used by the identity suite; the
        general path is g_eval, which adds guard digits instead.
        """
        if self.qg_scaled is None:
            raise PrecisionExhausted(
                "q*G has terms below valuation 0; evaluate via g_eval with guard digits"
            )
        ctx = self.uctx
        m = ctx.modulus
        powers = self._powers
        minus_j, scaled = self._gather
        # omega-bar(t)^j = T[-j dlog t]; each product is reduced before the
        # sum, so the int64 gather stays exact
        twists = powers.array[minus_j * powers.dlog(t) % (self.field.q - 1)]
        acc = (scaled * twists % m).sum(axis=0) % m
        total = ZqElement(tuple(int(c) for c in acc), ctx).scale(self.neg_inv_q1)
        K = ctx.K
        if total.is_zero:
            return PadicNumber.zero(K)
        w0 = total.valuation()
        unit = total.unshift(w0)
        return PadicNumber(w0, unit, K)

    def eval_g(self, t: FqElement) -> PadicNumber:
        """G itself (absolute precision K - r)."""
        qg = self.eval_qg(t)
        r = self.uctx.r
        if qg.exact_zero:
            return PadicNumber.zero(qg.abs_prec - r)
        return PadicNumber(qg.valuation - r, qg.unit, qg.abs_prec - r)

    def term(self, t: FqElement, j: int) -> PadicNumber:
        """The j-th summand (without the -1/(q-1) prefactor)."""
        q = self.field.q
        if not 0 <= j <= q - 2:
            raise ValueError("j out of range")
        powers = self._powers
        unit = powers.powers[-j * powers.dlog(t) % (q - 1)].scale(self.units[j])
        return PadicNumber(self.vals[j], unit, self.vals[j] + self.uctx.K)


_PROFILES: dict[tuple, GProfile] = {}


def profile_for(params: GParams, field: FqField, uctx: UnramifiedContext) -> GProfile:
    key = (field.p, field.r, field.variant, uctx.K, params)
    if key not in _PROFILES:
        _PROFILES[key] = GProfile(params, field, uctx)
    return _PROFILES[key]


def g_term(inst: GInstance, j: int) -> PadicNumber:
    """The j-th summand of the series (prefactor excluded): (-1)^{jn} times
    the inverse-Teichmueller twist times the signed p-power and gamma ratios."""
    return profile_for(inst.params, inst.field, inst.uctx).term(inst.t, j)


def term_valuations(params: GParams, p: int, r: int) -> list[int]:
    """Exact (-p)-exponent totals of every summand, gamma-free."""
    q = p**r
    D = q - 1
    for x in params.a + params.b:
        D = D * x.denominator // math.gcd(D, x.denominator)
    entries = []
    for i in range(params.n):
        for k in range(r):
            pk = p**k
            fa = frac_floor(params.a[i] * pk)[0]
            fb = frac_floor(-params.b[i] * pk)[0]
            entries.append(
                (fa.numerator * (D // fa.denominator), fb.numerator * (D // fb.denominator), pk * (D // (q - 1)))
            )
    out = []
    for j in range(q - 1):
        e_tot = 0
        for ca, cb, cs in entries:
            e_tot -= (ca - j * cs) // D + (cb + j * cs) // D
        out.append(e_tot)
    return out


def g_eval(inst: GInstance) -> PadicNumber:
    """Full series value as a PadicNumber.

    Follows the guard rule: term valuations are computed exactly first, the
    unit sum then runs at working precision K + (v_max - v_min), and the
    -1/(q-1) prefactor is applied last.  The result's absolute precision is
    at least K + v_max >= K.
    """
    K = inst.uctx.K
    vals = term_valuations(inst.params, inst.field.p, inst.field.r)
    guard = max(vals) - min(vals)
    work_ctx = uctx_for(inst.field, K + guard) if guard else inst.uctx
    prof = profile_for(inst.params, inst.field, work_ctx)
    terms = [prof.term(inst.t, j) for j in range(inst.field.q - 1)]
    total = padic_sum(terms)
    prefactor = PadicNumber.from_rational(Fraction(-1, inst.field.q - 1), work_ctx)
    return total * prefactor


def recover_integer(x: PadicNumber, bound: int, p: int | None = None) -> int:
    """Symmetric lift of a p-adic value claimed to be an integer in [-B, B].

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
