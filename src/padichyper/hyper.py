"""Evaluator for the p-adic hypergeometric series nGn over F_q,
with exact rational floor bookkeeping, reusable per-field term profiles, and
symmetric-lift integer recovery by one rule, ``_lift``: ``recover_rows``
applies it to a whole array of residue rows at once, ``recover_integer`` to
one value.

The series is a -1/(q-1)-scaled sum over j in [0, q-2] of signed powers of
(-p) times ratios of p-adic gamma values at fractional-part arguments,
twisted by inverse-Teichmueller powers of the evaluation point.  All floors
and fractional parts are computed in exact integer arithmetic over a common
denominator, so term valuations are exact and the unit parts carry provable
absolute precision.

The twist omega-bar(t)^j is omega(g)^(-j dlog t) for the field's generator g,
a row of the read-only ``teichmueller_powers`` array.  A ``GProfile`` gathers
its gamma quotients from the read-only ``rational_table`` array, and its
``vals`` and ``units`` are read-only arrays too.  ``GProfile._sum`` is the one
point sum: it takes an array of points, gathers their twists in chunks
(``fields.row_chunks``) and takes one modular dot product per point, with no
ring multiplies; ``eval_qg`` and ``g_eval`` call it with one point.

``GProfile.qg_table``, kept with its profile, gives q*G at every t of a field
at once: a chirp-z transform with triangular exponents, whose one correlation
is of digit planes by ``fields.cyclic_correlation``.  The verification suite
reads it only in a row that visits every point of its field, and sums the
points of any other row in one batch (``verify._SuiteRun.sampled`` states
the rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BoundTooLargeForPrecision,
    DenominatorDivisibleByP,
    NoRepresentativeInBound,
    NotAnInteger,
    PrecisionExhausted,
    ZeroArgument,
)
from .fields import (
    FqElement,
    FqField,
    check_context,
    cyclic_correlation,
    fft_bound,
    poly_mul_rows,
    poly_reduce_rows,
    residue_dtype,
    row_chunks,
    teichmueller_powers,
)
from .gamma import gamma_cache
from .padic import PadicNumber, UnramifiedContext, renormalize, unramified_context

# Not called here; perfbench/tracing.py wraps them under these names.
from .padic import padic_sum, teichmueller, zq_inv  # noqa: F401

# (point, j) pairs per chunk of GProfile._sum's gather, 8 MB of int64 indices,
# read at each call.  Python-int residues use an eighth: they gain nothing from length.
GATHER_ELEMENTS = 2**20


@dataclass(frozen=True)
class GParams:
    """Upper/lower rational parameter lists of an nGn instance.

    Entries may be Fractions, ints or strings such as "1/4"; a Fraction is
    kept as it is, and only the others are converted.  Equal lists compare
    and hash alike however they were spelled.
    """

    n: int
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 1 or len(self.a) != self.n or len(self.b) != self.n:
            raise ValueError("parameter lists must both have length n")
        object.__setattr__(self, "a", tuple(x if type(x) is Fraction else Fraction(x) for x in self.a))
        object.__setattr__(self, "b", tuple(x if type(x) is Fraction else Fraction(x) for x in self.b))
        # hashing and comparing 2n Fractions is slow, and every profile and
        # exponent lookup does both: the hash is taken once, and equality
        # compares a tuple of ints
        object.__setattr__(self, "_key", (self.n, *((x.numerator, x.denominator) for x in self.a + self.b)))
        object.__setattr__(self, "_hash", hash((self.n, self.a, self.b)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return other.__class__ is GParams and self._key == other._key

    def check_padic(self, p: int) -> None:
        for x in self.a + self.b:
            if x.denominator % p == 0:
                raise DenominatorDivisibleByP(f"parameter {x} is not a p-adic integer for p={p}")


@lru_cache(maxsize=256)  # sized with profile_for
def gparams(text: str) -> GParams:
    """Parse 'a1,a2;b1,b2' with entries like 1/4 or 3.

    Each spec string is parsed and checked once: the frozen GParams is
    stored and shared by every later call with the same string.  A bad spec
    raises ValueError on every call, and nothing is stored for it.
    """
    try:
        top, bottom = text.split(";")
        a = tuple(Fraction(s) for s in top.split(","))
        b = tuple(Fraction(s) for s in bottom.split(","))
    except (ValueError, ZeroDivisionError) as exc:
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
        if self.t.field != self.field:
            raise ValueError("element belongs to another field")
        self.params.check_padic(self.field.p)
        if self.t.is_zero:
            raise ZeroArgument("evaluation point t must be nonzero")
        check_context(self.field, self.uctx)


def _valuation_bounds(n: int, p: int, r: int) -> tuple[int, int]:
    geo = (p**r - 1) // (p - 1)
    return -n * geo, 2 * n * geo


@lru_cache(maxsize=256)  # sized with profile_for: at most one entry per profile
def term_exponents(params: GParams, p: int, r: int) -> tuple[int, np.ndarray, np.ndarray, int, int]:
    """The gamma-free part of every summand, exactly: (D, vals, args, vmin, vmax).

    D = lcm(param denominators, q-1) is the common denominator; vals[j] is
    the (-p)-exponent total v_j of summand j, in [vmin, vmax]; args[:, j]
    holds the numerators over D of the fractional parts <a_i p^k - j p^k/(q-1)>
    and <-b_i p^k + j p^k/(q-1)>, whose gamma values make up summand j: the
    rows x = start + slope j reduced mod D in place, with the floors
    (x - x mod D) / D summed by column.  At j = 0 they are the j-independent
    gamma denominators, and v_0 = 0.
    """
    q = p**r
    D = q - 1
    for x in params.a + params.b:
        D = D * x.denominator // math.gcd(D, x.denominator)
    starts, slopes = [], []
    for i in range(params.n):
        for k in range(r):
            for x, sign in ((params.a[i], 1), (params.b[i], -1)):  # <sign x p^k> over D, in integers
                starts.append(sign * x.numerator * p**k % x.denominator * (D // x.denominator))
                slopes.append(-sign * p**k * (D // (q - 1)))
    args = np.multiply.outer(np.array(slopes, dtype=np.int64), np.arange(q - 1, dtype=np.int64))
    args += np.array(starts, dtype=np.int64)[:, None]
    total = args.sum(axis=0)
    vals = (np.remainder(args, D, out=args).sum(axis=0) - total) // D
    vmin, vmax = int(vals.min()), int(vals.max())
    lo, hi = _valuation_bounds(params.n, p, r)
    if vmin < lo or vmax > hi:
        raise AssertionError(f"term valuations [{vmin}, {vmax}] escape [{lo}, {hi}]")
    vals.flags.writeable = args.flags.writeable = False
    return D, vals, args, vmin, vmax


class GProfile:
    """j-indexed exact valuations and unit scalars for one (params, field
    model, context).

    The gamma ratios and (-p)-exponents do not depend on the evaluation point,
    so one profile serves every t.  Built from ``term_exponents`` and the
    shared gamma table over its common denominator; it holds neither the
    field nor its power table.
    """

    def __init__(self, params: GParams, model: tuple[int, int, int], uctx: UnramifiedContext):
        p, r, _ = model
        params.check_padic(p)
        self.params = params
        self.model = model
        self.uctx = uctx
        q = self.q = p**r
        m = uctx.modulus
        D, vals, args, self.vmin, self.vmax = term_exponents(params, p, r)
        gtab = gamma_cache(p, uctx.K).rational_table(D)
        num = np.ones(q - 1, dtype=gtab.dtype)
        for row in args:
            num = num * gtab[row] % m
        units = num * pow(int(num[0]), -1, m) % m
        # (-1)^(jn) times the sign of (-p)^(v_j)
        odd = (np.arange(q - 1) * params.n + vals) % 2 == 1
        units[odd] = -units[odd] % m
        self.vals, self.units = vals, units
        self._minus_j = -np.arange(q - 1, dtype=np.int64)
        # c_j p^(v_j - vmin) (-1/(q-1)) mod p^K; p^e vanishes mod p^K from e = K on
        p_pow = np.array([p**e for e in range(uctx.K)] + [0], dtype=gtab.dtype)
        column = units * p_pow[np.minimum(vals - self.vmin, uctx.K)] % m
        self.column = (column * (-pow(q - 1, -1, m) % m) % m)[:, None]
        self.units.flags.writeable = self.column.flags.writeable = self._minus_j.flags.writeable = False

    def _twist_index(self, t: FqElement) -> int:
        """dlog t, for a point of the field the profile's tables index."""
        if t.field.model != self.model:
            raise ValueError("element belongs to another field")
        return t.dlog()

    def _sum(self, s: np.ndarray, shift: int) -> np.ndarray:
        """p^shift * G mod p^K at each point g^s, for an array ``s`` of dlog
        indices: a (len(s), r) residue array.  Needs v_j + shift >= 0.

        The twists omega-bar(g^s)^j = T[-j s] of a chunk of points are one
        gather and are dotted with ``column``, -c_j p^(v_j - vmin) / (q-1),
        each product reduced before the sum, so int64 stays exact.  That is
        p^(-vmin) * G, scaled by p^(shift + vmin) when that is nonzero.
        """
        ctx, q1 = self.uctx, self.q - 1
        m, powers = ctx.modulus, teichmueller_powers(self.model, ctx)

        def chunk_sum(lo, hi):
            return (self.column * powers[s[lo:hi, None] * self._minus_j % q1] % m).sum(axis=1) % m

        budget = GATHER_ELEMENTS // (8 if powers.dtype == object else 1)
        out = row_chunks(len(s), q1, budget, chunk_sum)
        if shift + self.vmin:
            out = out * pow(ctx.p, shift + self.vmin, m) % m
        return out

    @cached_property
    def qg_table(self) -> np.ndarray:
        """q * G at every t of the field: row s holds the residues mod p^K of
        q * G(g^s), the vector ``eval_qg`` renormalises, as a read-only
        (q-1, r) array of ``residue_dtype``, built on first read.

        With Tri(n) = n(n-1)/2, js = Tri(j + s) - Tri(j) - Tri(s), so
        sum_j col_j omega^(-js) = omega^Tri(s) sum_j (col_j omega^Tri(j)) omega^(-Tri(j+s)):
        a chirp-z transform with triangular exponents, which needs no root of
        unity of order 2(q-1), and one correlation of q-1 against 2q-3 Z_q
        elements (``digit_correlation``).  Each output is reduced by the
        lifted polynomial, twisted by omega^Tri(s) and scaled by p^(r + vmin)
        as in ``_sum``.
        """
        uctx = self.uctx
        shift, m = self._qg_shift() + self.vmin, uctx.modulus
        q1 = self.q - 1
        powers = teichmueller_powers(self.model, uctx)
        n = np.arange(2 * q1 - 1, dtype=np.int64)
        tri = n * (n - 1) // 2 % q1
        chirp = powers[tri[:q1]]
        corr = digit_correlation(self.column * chirp % m, powers[-tri % q1], m)
        table = poly_mul_rows(poly_reduce_rows(corr, uctx.poly, m), chirp, uctx.poly, m)
        if shift:
            table = table * pow(uctx.p, shift, m) % m
        table.flags.writeable = False
        return table

    def qg_rows(self, s: np.ndarray) -> np.ndarray:
        """q * G mod p^K at each point g^s, as ``_sum``'s residue rows."""
        return self._sum(np.asarray(s, dtype=np.int64), self._qg_shift())

    def eval_qg(self, t: FqElement) -> PadicNumber:
        """q * G at t to absolute precision K, a batch of one point.  Needs
        every term of q*G p-integral (r + v_j >= 0), as in every family of the
        identity suite; g_eval is the general path, with guard digits."""
        value = self.qg_rows([self._twist_index(t)])[0]
        return renormalize(value.tolist(), self.uctx, 0, self.uctx.K)

    def _qg_shift(self) -> int:
        """r, after checking that every term of q*G = p^r G is p-integral."""
        r = self.uctx.r
        if self.vmin + r < 0:
            raise PrecisionExhausted(
                "q*G has terms below valuation 0; evaluate via g_eval with guard digits"
            )
        return r

    def term(self, t: FqElement, j: int) -> PadicNumber:
        """The j-th summand (without the -1/(q-1) prefactor)."""
        q = self.q
        if not 0 <= j <= q - 2:
            raise ValueError("j out of range")
        row = teichmueller_powers(self.model, self.uctx)[-j * self._twist_index(t) % (q - 1)]
        unit = self.uctx.element(row.tolist()).scale(self.units.item(j))
        return PadicNumber(self.vals.item(j), unit, self.vals.item(j) + self.uctx.K)


# keyed by params, the field's model and the context (K and the lifted polynomial)
profile_for = lru_cache(maxsize=256)(GProfile)


def digit_width(na: int, n: int) -> int:
    """The widest k whose all-ones k-bit planes of lengths na and n pass ``fft_bound``."""
    k = 1
    while fft_bound(n, math.sqrt(na * (2 ** (k + 1) - 1) ** 2) * math.sqrt(n * (2 ** (k + 1) - 1) ** 2)) < 0.25:
        k += 1
    return k


def digit_correlation(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """c[s] = sum_j a[j] b[j + s] mod m, s in [0, len(b) - len(a)], rows of r
    residues multiplied as polynomials (2r - 1 unreduced ``residue_dtype(m)``
    coefficients).  Weight g of the D planes of k = ``digit_width`` bits, zero-padded
    to n >= len(b) so no shift wraps, is one stacked correlation of the plane pairs
    x + y = g and coordinate pairs, summed in int64; weights fold by Horner's rule
    in 2^k mod m.  From n = 3 ``fft_bound`` exceeds 420u sqrt(n) |a|_2 |b|_2, so a
    value, at most len(a) (2^k - 1)^2, is below 2^42, a weight's r D values sum
    below 2^63 for m < 2^(2^21 / r), and int64 Horner multiplies residues < 2^31."""
    (na, r), n = a.shape, len(b)
    while pow(30, n.bit_length(), n):  # numpy transforms 5-smooth lengths fastest
        n += 1
    k = digit_width(na, n)
    digits = -(-(m - 1).bit_length() // k)
    A, B = (np.stack([rows.T >> k * x & 2**k - 1 for x in range(digits)]).astype(float) for rows in (a, b))
    out = np.zeros((len(b) - na + 1, 2 * r - 1), dtype=residue_dtype(m))
    for g in range(2 * digits - 2, -1, -1):
        xs = np.arange(max(0, g - digits + 1), min(g, digits - 1) + 1)
        pairs = cyclic_correlation(A[xs, :, None], B[g - xs, None, :], n)[..., : len(out)].sum(axis=0)
        group = np.zeros((2 * r - 1, len(out)), dtype=np.int64)
        for i in range(r):
            group[i : i + r] += pairs[i]
        out = (out * pow(2, k, m) + group.T.astype(out.dtype) % m) % m
    return out


def g_term(inst: GInstance, j: int) -> PadicNumber:
    """The j-th summand of the series (prefactor excluded): (-1)^{jn} times
    the inverse-Teichmueller twist times the signed p-power and gamma ratios."""
    return profile_for(inst.params, inst.field.model, inst.uctx).term(inst.t, j)


def g_eval(inst: GInstance) -> PadicNumber:
    """Full series value as a PadicNumber, at absolute precision K + v_max >= K.

    Follows the guard rule.  The term valuations v_j come first: their range
    is read from the gamma-free ``term_exponents``; the profile at
    K + (v_max - v_min) then sums c_j p^(v_j - v_min) omega-bar(t)^j with the
    -1/(q-1) prefactor, and the result is that sum times p^(v_min).
    """
    vmin, vmax = term_exponents(inst.params, inst.field.p, inst.field.r)[3:]
    uctx = inst.uctx
    if vmax > vmin:  # the guard context keeps the instance's lifted polynomial
        uctx = unramified_context(uctx.p, uctx.K + vmax - vmin, uctx.r, uctx.poly)
    prof = profile_for(inst.params, inst.field.model, uctx)
    value = prof._sum(np.array([prof._twist_index(inst.t)]), -vmin)[0]
    return renormalize(value.tolist(), uctx, vmin, uctx.K + vmin)


# the error of each value that ``_lift`` does not recover, by its code
RECOVERY_ERRORS = (None, BoundTooLargeForPrecision, NotAnInteger, NoRepresentativeInBound)


def _lift(n0, not_integral, modulus: int, bound: int):
    """The one symmetric-lift rule, on Python ints or on arrays of them: the
    representative of n0 mod ``modulus`` = p^A in [-bound, bound], and the
    code in ``RECOVERY_ERRORS`` of the first of these that holds:
    BoundTooLargeForPrecision (p^A <= 2 bound, so no lift is unique),
    NotAnInteger (``not_integral``: a nonzero coordinate past the first) and
    NoRepresentativeInBound; 0 where the integer is recovered."""
    values = (n0 + bound) % modulus - bound
    errors = np.where(not_integral, 2, 3 * (values > bound))
    return values, errors if modulus > 2 * bound else np.ones_like(errors)


def recover_rows(res: np.ndarray, modulus: int, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """``_lift`` at every row of an (n, r) array of residues mod ``modulus``,
    each the coordinates of a value claimed to be an integer in
    [-bound, bound]: the rows' integers and error codes, in one array step,
    on int64 and on Python-int (object) residues alike."""
    return _lift(res[:, 0], (res[:, 1:] != 0).any(axis=1), modulus, bound)


def recover_integer(x: PadicNumber, bound: int, p: int | None = None) -> int:
    """Symmetric lift of a p-adic value claimed to be an integer in [-B, B]:
    ``_lift`` of its coordinates p^valuation * unit mod p^A, for A the lesser
    of abs_prec and valuation + K, raising the error it finds.

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
        A, row = int(x.abs_prec), [0]
    else:
        if x.valuation < 0:
            raise NotAnInteger(f"valuation {x.valuation} is negative")
        p, K = x.unit.context.p, x.unit.context.K
        A = int(min(x.abs_prec, x.valuation + K))
        row = [c * p**x.valuation % p**A for c in x.unit.coeffs]
    value, error = _lift(row[0], any(row[1:]), p**A, bound)
    if error:
        messages = (None, f"p^{A} <= 2*{bound}", "nonzero coordinates outside the prime subring",
                    f"no representative of size <= {bound}")
        raise RECOVERY_ERRORS[int(error)](messages[int(error)])
    return value
