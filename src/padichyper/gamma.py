"""Morita's p-adic gamma function at rational arguments with p-free
denominator, to precision p^K, and the reflection check.  The gamma product
identities are rows in ``verify``.

The continuity estimate Gamma_p(x) = Gamma_p(n) mod p^K for any integer
n = x mod p^K reduces every evaluation to Gamma_p(n) = (-1)^n f(n), where
f(n) is the product of the p-free integers 0 < j < n, mod p^K.

f is computed in time polynomial in p and K from digit-block polynomials.
For a level L < K and a digit d <= p, C_{L,d}(y) is the product of the p-free
j in [y p^(L+1), y p^(L+1) + d p^L), as a polynomial in y:

    C_{0,d}(y) = prod_{0<i<d} (p y + i)
    C_{L,d}(y) = prod_{c<d} C_{L-1,p}(p y + c)

Its y^k coefficient is divisible by p^(k(L+1)): so it is at level 0, the
substitution p y + c adds k more factors of p, and products keep it.  Level L
therefore keeps only its first ceil(K/(L+1)) coefficients (5, 3, 2, 2, 1 for
K = 5), every later one being 0 mod p^K, and the blocks of one (p, K) cost
about sum_L ceil(K/(L+1))^2 p multiplications mod p^K.  Splitting [0, n) by
the base-p digits d_L of n gives f(n) = prod_L C_{L,d_L}(n // p^(L+1)): one
short Horner evaluation per level.  ``GammaCache.values`` runs them for an
array of points c/D at once, as numpy arrays; ``rational_table`` is its table
of every c < D, and ``gamma`` is ``values`` at one point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import DenominatorDivisibleByP
from .fields import residue_dtype
from .padic import odd_prime_modulus


def _mul(a: list[int], b: list[int], m: int) -> list[int]:
    """a * b mod m, truncated to len(a) coefficients."""
    n = len(a)
    out = [ai * b[0] for ai in a]
    for j in range(1, n):
        bj = b[j]
        for k in range(j, n):
            out[k] += a[k - j] * bj
    return [c % m for c in out]


def _shifts(a: list[int], p: int, m: int, n: int) -> list[list[int]]:
    """Row c: the first n coefficients of a(p y + c) mod m, for every c < p,
    by one Horner pass over the array of c."""
    c = np.arange(p, dtype=object)
    out = [0] * n
    for coeff in reversed(a):
        out = [(out[0] * c + coeff) % m] + [(out[k] * c + out[k - 1] * p) % m for k in range(1, n)]
    return np.stack(out, axis=1).tolist()


def _digit_blocks(p: int, K: int) -> list[list[list[int]]]:
    """blocks[L][d] = the first ceil(K/(L+1)) coefficients of C_{L,d}(y),
    for L < K and d <= p; the coefficients after them are 0 mod p^K."""
    m = p**K
    one = [1] + [0] * (K - 1)
    level = [one, one]
    for i in range(1, p):  # times p y + i
        a = level[-1]
        level.append([i * a[0] % m] + [(i * a[k] + p * a[k - 1]) % m for k in range(1, K)])
    blocks = [level]
    for L in range(1, K):
        n = -(-K // (L + 1))
        level = [[1] + [0] * (n - 1)]
        for factor in _shifts(blocks[-1][p], p, m, n):
            level.append(_mul(level[-1], factor, m))
        blocks.append(level)
    return blocks


class GammaCache:
    """Gamma_p mod p^K for one odd prime p and K >= 1.

    ``blocks[L]`` holds the digit-block polynomials of level L as a
    (p + 1, ceil(K/(L+1))) array of ``residue_dtype``, row d the
    coefficients of C_{L,d}; ``values`` gathers from them for all its points
    at once, and ``table[n]`` memoizes Gamma_p(n) = (-1)^n f(n) at every
    residue n that ``gamma`` evaluated so far.
    """

    def __init__(self, p: int, K: int):
        self.modulus = odd_prime_modulus(p, K)
        self.p = p
        self.K = K
        self.table: dict[int, int] = {0: 1}

    @cached_property
    def blocks(self) -> list[np.ndarray]:
        dtype = residue_dtype(self.modulus)
        return [np.array(level, dtype=dtype) for level in _digit_blocks(self.p, self.K)]

    # -- gamma values ---------------------------------------------------------

    def _reduce(self, num: int, den: int) -> int:
        """num/den mod p^K, the integer whose Gamma_p value num/den shares."""
        if den % self.p == 0:
            raise DenominatorDivisibleByP(f"{num}/{den} has denominator divisible by {self.p}")
        m = self.modulus
        return num * pow(den, -1, m) % m

    def gamma(self, x) -> int:
        """Gamma_p(x): ``values`` at the one residue n = x mod p^K."""
        x = Fraction(x)
        n = self._reduce(x.numerator, x.denominator)
        value = self.table.get(n)
        if value is None:
            value = self.table[n] = int(self.values([n], 1)[0])
        return value

    def values(self, c: np.ndarray, denominator: int) -> np.ndarray:
        """Gamma_p(c/denominator) at each integer c of an array, as residues
        of ``residue_dtype``: (-1)^n f(n) at every n = c/denominator mod p^K
        at once, one gather and Horner pass per level.  While p^K < 2^31 the
        points are int64 and need |c| < 2^32; above it they are Python ints
        of any size."""
        inv = self._reduce(1, denominator)
        p, m = self.p, self.modulus
        n = np.asarray(c, dtype=residue_dtype(m)) * inv % m
        f, y = 1, n
        for level in self.blocks:
            coeffs = level[(y % p).astype(np.int64)]
            y = y // p
            acc = coeffs[:, -1]
            for k in range(level.shape[1] - 2, -1, -1):
                acc = (acc * y + coeffs[:, k]) % m
            f = f * acc % m
        return np.where(n % 2 == 1, -f % m, f)

    @lru_cache(maxsize=64)
    def rational_table(self, denominator: int) -> list[int]:
        """Gamma_p(c/denominator) for every c in [0, denominator), as a list."""
        return self.values(np.arange(denominator), denominator).tolist()


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

