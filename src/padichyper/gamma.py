"""Morita's p-adic gamma function at rational arguments with p-free
denominator, to precision p^K, plus both sides of the gamma product and
floor identities, which the verification suite's records compare.

The continuity estimate Gamma_p(x) = Gamma_p(n) mod p^K for any integer
n = x mod p^K reduces every evaluation to Gamma_p(n) = (-1)^n f(n), where
f(n) is the product of the p-free integers 0 < j < n, mod p^K.

f is computed in time polynomial in p and K from digit-block polynomials.
For a level L < K and a digit d <= p, C_{L,d}(y) is the product of the p-free
j in [y p^(L+1), y p^(L+1) + d p^L), as a polynomial in y:

    C_{0,d}(y) = prod_{0<i<d} (p y + i)
    C_{L,d}(y) = prod_{c<d} C_{L-1,p}(p y + c)

Its y^k coefficient is divisible by p^k, so truncation to degree below K is
exact mod p^K.  Splitting [0, n) by the base-p digits d_L of n gives
f(n) = prod_L C_{L,d_L}(n // p^(L+1)): K Horner evaluations per value, after
O(K^3 p) multiplications mod p^K to build the polynomials of one (p, K).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from .errors import DenominatorDivisibleByP
from .padic import UnramifiedContext, frac_floor, odd_prime_modulus


def _mul(a: list[int], b: list[int], m: int) -> list[int]:
    """a * b mod m, truncated to len(a) coefficients."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) % m for k in range(len(a))]


def _shift(a: list[int], c: int, p: int, m: int) -> list[int]:
    """a(p y + c) mod m by Horner; the y^K term it drops is 0 mod p^K."""
    out = [0] * len(a)
    for coeff in reversed(a):
        for k in range(len(out) - 1, 0, -1):
            out[k] = (out[k] * c + out[k - 1] * p) % m
        out[0] = (out[0] * c + coeff) % m
    return out


def _digit_blocks(p: int, K: int) -> list[list[list[int]]]:
    """blocks[L][d] = coefficients of C_{L,d}(y), for L < K and d <= p."""
    m = p**K
    one = [1] + [0] * (K - 1)
    level = [one, one]
    for i in range(1, p):  # times p y + i, as K coefficients
        level.append(_mul(level[-1], ([i, p] + [0] * K)[:K], m))
    blocks = [level]
    for _ in range(1, K):
        full = blocks[-1][p]
        level = [one]
        for c in range(p):
            level.append(_mul(level[-1], _shift(full, c, p, m), m))
        blocks.append(level)
    return blocks


class GammaCache:
    """Gamma_p mod p^K for one odd prime p and K >= 1.

    ``table[n]`` memoizes f(n), the product of all p-free 0 < j < n mod p^K,
    at every point evaluated so far; ``blocks`` holds the digit-block
    polynomials every new point is evaluated from.
    """

    def __init__(self, p: int, K: int):
        self.modulus = odd_prime_modulus(p, K)
        self.p = p
        self.K = K
        self.table: dict[int, int] = {0: 1}

    @cached_property
    def blocks(self) -> list[list[list[int]]]:
        return _digit_blocks(self.p, self.K)

    def _f(self, n: int) -> int:
        """f(n) for 0 <= n < p^K, one block per base-p digit of n."""
        f = self.table.get(n)
        if f is None:
            p, m = self.p, self.modulus
            f, y = 1, n
            for level in self.blocks:
                y, d = divmod(y, p)
                if d:
                    acc = 0
                    for coeff in reversed(level[d]):
                        acc = (acc * y + coeff) % m
                    f = f * acc % m
            self.table[n] = f
        return f

    # -- gamma values ---------------------------------------------------------

    def _reduce(self, num: int, den: int) -> int:
        """num/den mod p^K, the integer whose Gamma_p value num/den shares."""
        if den % self.p == 0:
            raise DenominatorDivisibleByP(f"{num}/{den} has denominator divisible by {self.p}")
        m = self.modulus
        return num * pow(den, -1, m) % m

    def _gamma_of_n(self, n: int) -> int:
        f = self._f(n)
        return f if n % 2 == 0 else -f % self.modulus

    def gamma(self, x) -> int:
        x = Fraction(x)
        return self._gamma_of_n(self._reduce(x.numerator, x.denominator))

    @lru_cache(maxsize=64)
    def rational_table(self, denominator: int) -> list[int]:
        """Gamma_p(c/denominator) for every c in [0, denominator), as a list."""
        inv = self._reduce(1, denominator)
        m = self.modulus
        return [self._gamma_of_n(c * inv % m) for c in range(denominator)]


gamma_cache = lru_cache(maxsize=64)(GammaCache)


def verify_reflection(x, cache: GammaCache) -> bool:
    """Gamma_p(x) * Gamma_p(1-x) must be the sign (-1)^{x0}, where x0 is the
    representative of x mod p in {1, ..., p}."""
    x = Fraction(x)
    m, p = cache.modulus, cache.p
    prod = cache.gamma(x) * cache.gamma(1 - x) % m
    r0 = x.numerator * pow(x.denominator, -1, p) % p
    x0 = p if r0 == 0 else r0
    expected = (m - 1) if x0 % 2 else 1
    return prod == expected


def _omega_power(t_int: int, exponent: int, uctx: UnramifiedContext):
    """omega(t)^exponent for an integer t coprime to p.  omega(t) lies in Z_p,
    equals t^(p^(K-1)) mod p^K and has order dividing p-1."""
    p, K = uctx.p, uctx.K
    return uctx.from_int(pow(t_int, p ** (K - 1) * (exponent % (p - 1)), uctx.modulus))


def lemma31_sides(t: int, j: int, uctx: UnramifiedContext):
    """Both sides of the two gamma multiplication identities over a
    denominator-t grid shifted by j/(q-1), as Z_q values mod p^K.

    Returns ((lhs1, rhs1), (lhs2, rhs2)).
    """
    p, r, q = uctx.p, uctx.r, uctx.q
    if t <= 0 or t % p == 0:
        raise ValueError("t must be a positive integer coprime to p")
    if not 0 <= j <= q - 2:
        raise ValueError("j out of range")
    cache = gamma_cache(p, uctx.K)
    m = uctx.modulus

    def gv(x: Fraction) -> int:
        return cache.gamma(frac_floor(x)[0])

    lhs1 = rhs1 = lhs2 = rhs2 = 1
    for i in range(r):
        pi = p**i
        lhs1 = lhs1 * gv(Fraction(t * pi * j, q - 1)) % m
        lhs2 = lhs2 * gv(Fraction(-t * pi * j, q - 1)) % m
        for h in range(1, t):
            base = gv(Fraction(h * pi, t))
            lhs1 = lhs1 * base % m
            lhs2 = lhs2 * base % m
        for h in range(t):
            rhs1 = rhs1 * gv(Fraction(h * pi, t) + Fraction(pi * j, q - 1)) % m
            rhs2 = rhs2 * gv(Fraction((1 + h) * pi, t) - Fraction(pi * j, q - 1)) % m

    left1 = _omega_power(t, t * j, uctx).scale(lhs1)
    left2 = _omega_power(t, -t * j, uctx).scale(lhs2)
    return (left1, uctx.from_int(rhs1)), (left2, uctx.from_int(rhs2))


def eq29_sides(l: int, uctx: UnramifiedContext):
    """(gamma product over Frobenius twists, (-1)^r omega-bar^l(-1)) mod p^K."""
    p, r, q = uctx.p, uctx.r, uctx.q
    if not 0 < l < q - 1:
        raise ValueError("l must satisfy 0 < l < q-1")
    cache = gamma_cache(p, uctx.K)
    m = uctx.modulus
    lhs = 1
    for i in range(r):
        pi = p**i
        lhs = lhs * cache.gamma(frac_floor(Fraction((q - 1 - l) * pi, q - 1))[0]) % m
        lhs = lhs * cache.gamma(frac_floor(Fraction(l * pi, q - 1))[0]) % m
    # omega-bar(-1) = -1 for odd p
    return uctx.from_int(lhs), uctx.from_int((-1) ** (r + l))


def lemma5_sides(l: int, i: int, p: int, r: int) -> tuple[int, int]:
    """The two signed floor sums built from l p^i/(q-1) and the fractional
    parts of p^i/2, -p^i/6, -5 p^i/6."""
    q = p**r
    if not 1 <= l <= q - 2:
        raise ValueError("l out of range")
    if 2 * l == q - 1:
        raise ValueError("l = (q-1)/2 is excluded")
    if not 0 <= i <= r - 1:
        raise ValueError("i out of range")
    if p in (2, 3):
        raise ValueError("p must be coprime to 6")
    pi = p**i
    s = Fraction(l * pi, q - 1)

    def fl(x) -> int:
        return frac_floor(x)[1]

    lhs = fl(3 * s) + 3 * fl(-s) - 3 * fl(-2 * s) - fl(6 * s)
    half = frac_floor(Fraction(pi, 2))[0]
    sixth = frac_floor(Fraction(-pi, 6))[0]
    five_sixth = frac_floor(Fraction(-5 * pi, 6))[0]
    rhs = -2 * fl(half - s) - fl(sixth + s) - fl(five_sixth + s)
    return lhs, rhs
