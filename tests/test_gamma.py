import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padichyper.errors import CompositeP, DenominatorDivisibleByP, PreconditionFailed
from padichyper.fields import build_field, residue_dtype
from padichyper.gamma import (
    GammaCache,
    gamma_cache,
    verify_reflection,
)
from padichyper.padic import (
    default_precision,
    frac_floor,
    is_prime,
    teichmueller,
    unramified_context,
    zq_inv,
    zq_pow,
)
from padichyper import verify
from padichyper.verify import (
    RangeSpec,
    _eq29_row,
    _omega_powers,
    run_suite,
    verify_eq29_record,
    verify_lemma31_record,
    verify_lemma5_record,
)

from padic_oracle import gamma_horner, zq_neg


def gamma_brute(n: int, p: int, K: int) -> int:
    """Literal product definition, the independent oracle."""
    m = p**K
    acc = 1
    for j in range(1, n):
        if j % p:
            acc = acc * j % m
    return acc if n % 2 == 0 else -acc % m


def _forward_differences(samples: list[int], m: int) -> list[int]:
    """Delta^k of the samples at 0, mod m, for k < len(samples)."""
    out = []
    while samples:
        out.append(samples[0] % m)
        samples = [b - a for a, b in zip(samples, samples[1:])]
    return out


def gamma_oracle_table(ns, p: int, K: int) -> dict[int, int]:
    """Gamma_p(n) for each n in [0, p^K): one sorted running product up to
    p^K/2, and the generalized Wilson theorem (the units of Z/p^K multiply
    to -1) for the points above it.

    The product crosses an aligned run [S y, S y + S) of S = p^e integers in
    one step.  Its p-free part R_e(y) = prod_{0<j<S, p∤j} (S y + j) has its
    y^k coefficient divisible by S^k, so mod p^K it is an integer polynomial
    of degree below n = ceil(K/e), and Newton's forward formula gives it
    from n samples: R_e(y) = sum_k Delta^k R_e(0) binom(y, k).  R_1 is
    sampled by plain products, R_(e+1)(i) as prod_{c<p} R_e(p i + c)."""
    m = p**K
    diffs: dict[int, list[int]] = {}

    def run(e: int, y: int) -> int:
        return sum(d * math.comb(y, k) for k, d in enumerate(diffs[e])) % m

    for e in range(1, K):
        n = -(-K // e)
        if e == 1:
            samples = [math.prod(p * i + j for j in range(1, p)) for i in range(n)]
        else:
            samples = [math.prod(run(e - 1, p * i + c) for c in range(p)) for i in range(n)]
        diffs[e] = _forward_differences(samples, m)

    half = (m + 1) // 2
    # f(n) = -(-1)^c / f(m - n + 1) for n > half, with c the p-free count in [1, m - n]
    stops = sorted({n if n <= half else m - n + 1 for n in ns})
    f, acc, j = {}, 1, 1
    for stop in stops:
        while j < stop:
            e = next((e for e in range(K - 1, 0, -1) if j % p**e == 0 and j + p**e <= stop), 0)
            if e:
                acc = acc * run(e, j // p**e) % m
                j += p**e
            else:
                if j % p:
                    acc = acc * j % m
                j += 1
        f[stop] = acc
    out = {}
    for n in ns:
        if n <= half:
            val = f[n]
        else:
            c = (m - n) - (m - n) // p
            val = (1 if c % 2 else -1) * pow(f[m - n + 1], -1, m) % m
        out[n] = val if n % 2 == 0 else -val % m
    return out


def _mul_untrimmed(a: list[int], b: list[int], m: int) -> list[int]:
    return [sum(a[i] * b[k - i] for i in range(k + 1)) % m for k in range(len(a))]


def _shift_untrimmed(a: list[int], c: int, p: int, m: int) -> list[int]:
    out = [0] * len(a)
    for coeff in reversed(a):
        for k in range(len(out) - 1, 0, -1):
            out[k] = (out[k] * c + out[k - 1] * p) % m
        out[0] = (out[0] * c + coeff) % m
    return out


def digit_blocks_untrimmed(p: int, K: int) -> list[list[list[int]]]:
    """The digit-block builder before trimming: every C_{L,d} as K
    coefficients, built with full-length multiplies and shifts."""
    m = p**K
    one = [1] + [0] * (K - 1)
    level = [one, one]
    for i in range(1, p):  # times p y + i, as K coefficients
        level.append(_mul_untrimmed(level[-1], ([i, p] + [0] * K)[:K], m))
    blocks = [level]
    for _ in range(1, K):
        full = blocks[-1][p]
        level = [one]
        for c in range(p):
            level.append(_mul_untrimmed(level[-1], _shift_untrimmed(full, c, p, m), m))
        blocks.append(level)
    return blocks


class TestGammaValues:
    def test_at_zero(self):
        cache = gamma_cache(7, 4)
        assert cache.gamma(Fraction(0)) == 1

    def test_at_one(self):
        cache = gamma_cache(7, 4)
        assert cache.gamma(Fraction(1)) == 7**4 - 1

    def test_half_mod_25_is_gamma_of_13(self):
        # 1/2 = 13 mod 25; independent product oracle
        cache = gamma_cache(5, 2)
        assert cache.gamma(Fraction(1, 2)) == gamma_brute(13, 5, 2)

    def test_small_integers_match_product_definition(self):
        cache = gamma_cache(11, 3)
        for n in range(20):
            assert cache.gamma(Fraction(n)) == (1 if n == 0 else gamma_brute(n, 11, 3))

    @pytest.mark.parametrize("p,K", [(5, 4), (7, 3), (13, 3), (29, 2)])
    def test_random_residues_match_brute_force(self, p, K):
        rng = random.Random(p * 1000 + K)
        cache = gamma_cache(p, K)
        for _ in range(25):
            n = rng.randrange(p**K)
            assert cache.gamma(Fraction(n)) == (1 if n == 0 else gamma_brute(n, p, K))

    def test_batched_equals_single(self):
        # a cache warmed by every argument against a fresh cache per argument
        args = [Fraction(a, b) for a in range(-6, 7) for b in (1, 2, 3, 4, 6)]
        warm = GammaCache(7, 4)
        values = [warm.gamma(x) for x in args]
        for x, value in zip(args, values):
            assert warm.gamma(x) == value == GammaCache(7, 4).gamma(x), x

    def test_rational_table(self):
        cache = gamma_cache(7, 5)
        tab = cache.rational_table(12)
        for c in range(12):
            assert tab[c] == cache.gamma(Fraction(c, 12))

    @pytest.mark.parametrize("p,K,D", [(5, 6, 24), (7, 4, 12), (11, 5, 30), (13, 3, 168)])
    def test_rational_table_matches_fraction_batch(self, p, K, D):
        # the former batch path: Gamma_p at each reduced Fraction(c, D),
        # collected in a Fraction-keyed dict and read back in order of c
        fresh = GammaCache(p, K)
        batch = {x: fresh.gamma(x) for x in (Fraction(c, D) for c in range(D))}
        assert GammaCache(p, K).rational_table(D) == [batch[Fraction(c, D)] for c in range(D)]

    def test_rational_table_rejects_denominator_divisible_by_p(self):
        with pytest.raises(DenominatorDivisibleByP):
            GammaCache(7, 3).rational_table(14)

    def test_denominator_divisible_by_p(self):
        cache = gamma_cache(7, 3)
        with pytest.raises(DenominatorDivisibleByP):
            cache.gamma(Fraction(1, 14))

    def test_cache_rejects_bad_p_and_K(self):
        with pytest.raises(CompositeP):
            GammaCache(9, 5)
        with pytest.raises(CompositeP):
            GammaCache(2, 5)
        with pytest.raises(ValueError):
            GammaCache(5, 0)
        cache = GammaCache(5, 3)
        assert (cache.p, cache.K, cache.modulus) == (5, 3, 125)

    def test_segment_product_beyond_int64_direct_range(self):
        # plain product of a segment at 11^9 (between 2^31 and 2^32), read back
        # from the public API as f(hi) / f(lo) with f(n) = (-1)^n Gamma_p(n)
        cache = gamma_cache(11, 9)
        m = 11**9
        lo, hi = 5_000_000, 5_130_000
        acc = 1
        for j in range(lo, hi):
            if j % 11:
                acc = acc * j % m

        def f(n: int) -> int:
            return (-1) ** n * cache.gamma(Fraction(n)) % m

        assert f(hi) * pow(f(lo), -1, m) % m == acc


class TestContinuity:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_digit_agreement(self, p):
        # x = x' mod p^m implies gamma(x) = gamma(x') mod p^m
        K = 5
        cache = gamma_cache(p, K)
        rng = random.Random(p)
        for _ in range(40):
            den = rng.choice([1, 2, 3, 4, 6, 12])
            num = rng.randrange(-200, 200)
            x = Fraction(num, den)
            if x.denominator % p == 0:
                continue
            m = rng.randrange(1, K + 1)
            shift = rng.randrange(1, 5) * p**m
            y = x + shift
            gx, gy = cache.gamma(x), cache.gamma(y)
            assert (gx - gy) % p**m == 0


class TestReflection:
    def test_half(self):
        for p in (5, 7, 11):
            assert verify_reflection(Fraction(1, 2), gamma_cache(p, 4))

    def test_zero(self):
        # Gamma(0) * Gamma(1) = -1
        cache = gamma_cache(7, 3)
        assert cache.gamma(Fraction(0)) * cache.gamma(Fraction(1)) % 7**3 == 7**3 - 1
        assert verify_reflection(Fraction(0), cache)

    def test_third_at_p7(self):
        assert verify_reflection(Fraction(1, 3), gamma_cache(7, 3))

    def test_many(self):
        cache = gamma_cache(13, 4)
        for num in range(-15, 16):
            for den in (1, 2, 3, 4, 6, 7):
                assert verify_reflection(Fraction(num, den), cache)


class TestProductIdentities:
    @pytest.mark.parametrize("p,r", [(7, 1), (13, 1), (5, 2)])
    def test_lemma31_exhaustive(self, p, r):
        q = p**r
        for t in (2, 3, 6):
            if t % p == 0:
                continue
            for j in range(q - 1):
                assert verify_lemma31_record(p, r, t, j, K=5).passed, (p, r, t, j)

    def test_lemma31_j_zero_collapses(self):
        for t in (2, 3, 6):
            assert verify_lemma31_record(11, 1, t, 0, K=5).passed

    @pytest.mark.parametrize("p,r", [(7, 1), (13, 1), (5, 2)])
    def test_eq29_exhaustive(self, p, r):
        for l in range(1, p**r - 1):
            assert verify_eq29_record(p, r, l, K=5).passed, (p, r, l)

    def test_eq29_at_half_point(self):
        assert verify_eq29_record(7, 1, 3, K=5).passed

    @pytest.mark.parametrize("p,r", [(7, 1), (11, 1), (13, 1), (5, 2), (7, 2), (11, 2), (13, 2)])
    def test_floor_identity_exhaustive(self, p, r):
        q = p**r
        for l in range(1, q - 1):
            if 2 * l == q - 1:
                continue
            for i in range(r):
                assert verify_lemma5_record(p, r, l, i).passed, (p, r, l, i)

    def test_floor_identity_rejects_midpoint(self):
        with pytest.raises(ValueError):
            verify_lemma5_record(7, 1, 3, 0)


class TestOracles:
    """The digit-block Gamma_p against oracles that share none of its code."""

    @pytest.mark.parametrize("p,K", [(3, 7), (5, 6), (7, 5), (11, 4), (13, 4)])
    def test_running_product_exhaustive(self, p, K):
        # every n < p^K in one call of the evaluator that ``gamma`` reads at
        # one point
        m = p**K
        values = GammaCache(p, K).values(np.arange(m), 1).tolist()
        acc = 1
        for n in range(m):
            expected = acc if n % 2 == 0 else -acc % m
            assert values[n] == expected, (p, K, n)
            if n % p:
                acc = acc * n % m

    @pytest.mark.parametrize("p", [11, 13])
    def test_rational_tables_against_sorted_sweep(self, p):
        self._check_rational_tables(p, 5)

    @pytest.mark.parametrize("p,K", [(5, 1), (7, 1), (89, 1), (5, 2), (13, 2), (89, 2)])
    def test_rational_tables_at_low_precision(self, p, K):
        self._check_rational_tables(p, K)

    @staticmethod
    def _check_rational_tables(p, K):
        m = p**K
        assert residue_dtype(m) is np.int64
        cache = GammaCache(p, K)
        for den in (1, p - 1, p + 1, 12 * (p - 1)):
            ns = [c * pow(den, -1, m) % m for c in range(den)]
            oracle = gamma_oracle_table(ns, p, K)
            assert cache.rational_table(den) == [oracle[n] for n in ns], (p, den)

    @pytest.mark.parametrize("p,K", [(3, 9), (5, 6), (7, 5), (13, 4)])
    def test_sorted_sweep_runs_match_plain_products(self, p, K):
        # the oracle's run polynomials against the plain product, at points
        # sparse enough that the sweep crosses runs of every length
        m = p**K
        ns = random.Random(p).sample(range(m), 40) + [1, 2, p, p**2, m // 2, m - 1]
        oracle = gamma_oracle_table(ns, p, K)
        acc, plain = 1, []
        for n in range(m):
            plain.append(acc if n % 2 == 0 else -acc % m)
            if n % p:
                acc = acc * n % m
        assert {n: plain[n] for n in ns} == oracle

    @pytest.mark.parametrize("p", [89, 199])
    def test_rational_tables_beyond_2_31(self, p):
        # 89^5 and 199^5 exceed 2^31, so the tables run on Python-int arrays;
        # the points c/(p-1) are among the c/(4(p-1))
        K = 5
        m = p**K
        assert residue_dtype(m) is object
        cache = GammaCache(p, K)
        points = {den: [c * pow(den, -1, m) % m for c in range(den)] for den in (p - 1, 4 * (p - 1))}
        oracle = gamma_oracle_table(points[4 * (p - 1)], p, K)
        for den, ns in points.items():
            assert cache.rational_table(den) == [oracle[n] for n in ns], (p, den)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([3, 5, 7, 11, 13]),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=400),
    )
    def test_rational_table_property(self, p, K, den):
        if den % p == 0:
            den += 1
        m = p**K
        ns = [c * pow(den, -1, m) % m for c in range(den)]
        oracle = gamma_oracle_table(ns, p, K)
        assert GammaCache(p, K).rational_table(den) == [oracle[n] for n in ns]

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 89])
    @pytest.mark.parametrize("K", range(1, 10))
    def test_trimmed_blocks_are_the_untrimmed_ones(self, p, K):
        # level L keeps ceil(K/(L+1)) coefficients; the untrimmed builder's
        # later ones are all 0 mod p^K
        full = digit_blocks_untrimmed(p, K)
        blocks = GammaCache(p, K).blocks
        assert len(blocks) == K
        for L, level in enumerate(blocks):
            n = -(-K // (L + 1))
            assert level.shape == (p + 1, n), (p, K, L)
            padded = [row + [0] * (K - n) for row in level.tolist()]
            assert padded == full[L], (p, K, L)

    @pytest.mark.parametrize("p", [89, 199])
    def test_reflection_beyond_2_32(self, p):
        # 89^5 and 199^5 exceed 2^32
        cache = gamma_cache(p, 5)
        for c in range(p - 1):
            assert verify_reflection(Fraction(c, p - 1), cache), (p, c)

    def test_lemma31_at_89(self):
        for t in (2, 3):
            for j in range(88):
                assert verify_lemma31_record(89, 1, t, j, K=5).passed, (t, j)

    def test_mc_sweep_at_p_89_to_97(self):
        report = run_suite(RangeSpec(theorems=("mc",), pmin=89, pmax=97, r_values=(1,), sample=3))
        assert report.records
        assert all(rec.passed for rec in report.records)


class TestTeichmuellerIntegerForm:
    """omega on integers and omega-bar(-1) as integers, against the Z_q lift."""

    @pytest.mark.parametrize("p,K,r", [(5, 4, 1), (7, 3, 2), (5, 3, 3), (11, 5, 1), (3, 4, 2)])
    def test_omega_power_matches_lift(self, p, K, r):
        # LEMMA31's rows take omega(t)^e as one integer in Z_p
        u = unramified_context(p, K, r)
        q, zero = p**r, (0,) * (r - 1)
        exponents = [0, 2, -1, q - 2, 3 * q]
        for a in range(1, p):
            lift = teichmueller(a, u)
            assert (*_omega_powers(a, np.array([1]), p, K).tolist(), *zero) == lift.coeffs, (p, K, r, a)
            powers = _omega_powers(a + p, np.array(exponents), p, K).tolist()
            for e, power in zip(exponents, powers):
                expected = zq_pow(lift, e % (q - 1))
                assert (power, *zero) == expected.coeffs, (a, e)

    @pytest.mark.parametrize("p,K,r", [(5, 4, 1), (7, 3, 2), (5, 3, 3)])
    def test_eq29_sign_matches_lift(self, p, K, r):
        # the right side of EQ29's rows, (-1)^(r+l), against omega-bar(-1)^l (-1)^r
        u = unramified_context(p, K, r)
        q = p**r
        bar = zq_inv(teichmueller(p - 1, u))
        records, _ = _eq29_row(build_field(p, r), K, np.arange(1, min(q - 1, 40)))
        for l, rec in enumerate(records, start=1):
            expected = zq_pow(bar, l)
            if r % 2:
                expected = zq_neg(expected)
            assert rec.rhs == ".".join(map(str, expected.coeffs)), (p, r, l)


def oracle_lemma31_sides(t: int, j: int, p: int, r: int, K: int):
    """Both sides of LEMMA31's two multiplication identities as integers mod
    p^K, one scalar Gamma_p value at a time: ((lhs1, rhs1), (lhs2, rhs2))."""
    q, m, cache = p**r, p**K, gamma_cache(p, K)

    def gv(x: Fraction) -> int:
        return cache.gamma(frac_floor(x)[0])

    lhs1 = pow(t, p ** (K - 1) * (t * j % (p - 1)), m)  # omega(t)^(tj)
    lhs2 = pow(t, p ** (K - 1) * (-t * j % (p - 1)), m)
    rhs1 = rhs2 = 1
    for i in range(r):
        pi = p**i
        lhs1 = lhs1 * gv(Fraction(t * pi * j, q - 1)) % m
        lhs2 = lhs2 * gv(Fraction(-t * pi * j, q - 1)) % m
        for h in range(1, t):
            lhs1 = lhs1 * gv(Fraction(h * pi, t)) % m
            lhs2 = lhs2 * gv(Fraction(h * pi, t)) % m
        for h in range(t):
            rhs1 = rhs1 * gv(Fraction(h * pi, t) + Fraction(pi * j, q - 1)) % m
            rhs2 = rhs2 * gv(Fraction((1 + h) * pi, t) - Fraction(pi * j, q - 1)) % m
    return (lhs1, rhs1), (lhs2, rhs2)


def oracle_eq29_sides(l: int, p: int, r: int, K: int):
    """EQ29's product over Frobenius twists and its sign (-1)^(r+l), as
    integers mod p^K, one scalar Gamma_p value at a time."""
    q, m, cache = p**r, p**K, gamma_cache(p, K)
    lhs = 1
    for i in range(r):
        pi = p**i
        lhs = lhs * cache.gamma(frac_floor(Fraction((q - 1 - l) * pi, q - 1))[0]) % m
        lhs = lhs * cache.gamma(frac_floor(Fraction(l * pi, q - 1))[0]) % m
    return lhs, (-1) ** (r + l) % m


# The scalar floor sides the LEMMA5 row replaced, kept verbatim as its oracle.
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


def _zq(values, r: int) -> str:
    """Integers of Z_p as the records write them: ';'-joined Z_q coordinates."""
    return ";".join(f"{v}" + ".0" * (r - 1) for v in values)


def _sweep(theorem: str, p: int, r: int, sample=None):
    return run_suite(RangeSpec(theorems=(theorem,), pmin=p, pmax=p, r_values=(r,), qmax=p**r, sample=sample)).records


ROW_FIELDS = [(7, 1), (13, 1), (5, 2), (7, 2), (5, 3), (89, 1)]  # F_7, F_13, F_25, F_49, F_125, F_89


class TestProductIdentityRows:
    """LEMMA31 and EQ29 rows against the per-point formulas over scalar
    Gamma_p, at every record of a whole field."""

    @pytest.mark.parametrize("p, r", ROW_FIELDS)
    def test_lemma31_row_matches_oracle(self, p, r):
        K, records = default_precision(p, r), _sweep("lemma31", p, r)
        listed = [(t, j) for t in (2, 3, 6) if t % p for j in range(p**r - 1)]
        assert [(rec.params["t"], rec.params["j"]) for rec in records] == listed
        for rec in records:
            (l1, r1), (l2, r2) = oracle_lemma31_sides(rec.params["t"], rec.params["j"], p, r, K)
            assert (rec.lhs, rec.rhs, rec.passed) == (_zq((l1, l2), r), _zq((r1, r2), r), True), rec.params
            assert rec.K == K

    @pytest.mark.parametrize("p, r", ROW_FIELDS)
    def test_eq29_row_matches_oracle(self, p, r):
        K, records = default_precision(p, r), _sweep("eq29", p, r)
        assert [rec.params["l"] for rec in records] == list(range(1, p**r - 1))
        for rec in records:
            lhs, rhs = oracle_eq29_sides(rec.params["l"], p, r, K)
            assert (rec.lhs, rec.rhs, rec.passed) == (_zq((lhs,), r), _zq((rhs,), r), lhs == rhs), rec.params

    @pytest.mark.parametrize("p, r", [(7, 1), (5, 2), (89, 1)])
    def test_lone_records_equal_row_records(self, p, r):
        strip = lambda rec: {**rec.to_dict(), "elapsed_ms": 0}  # noqa: E731
        for rec in _sweep("lemma31", p, r, sample=12):
            assert strip(verify_lemma31_record(p, r, rec.params["t"], rec.params["j"])) == strip(rec)
        for rec in _sweep("eq29", p, r, sample=12):
            assert strip(verify_eq29_record(p, r, rec.params["l"])) == strip(rec)

    @pytest.mark.parametrize("p, K", [(7, 4), (89, 5)])
    def test_lone_records_at_t_one_and_low_precision(self, p, K):
        # t = 1 is outside the listing; its grid is {0} alone
        for t, j in [(1, 0), (1, 5), (4, 5), (5, 1)]:
            rec = verify_lemma31_record(p, 1, t, j, K=K)
            (l1, r1), (l2, r2) = oracle_lemma31_sides(t, j, p, 1, K)
            assert (rec.lhs, rec.rhs, rec.passed) == (_zq((l1, l2), 1), _zq((r1, r2), 1), True)

    def test_lone_record_rejections(self):
        with pytest.raises(PreconditionFailed, match="t_divisible_by_p"):
            verify_lemma31_record(7, 1, 14, 99)
        with pytest.raises(ValueError, match="t must be"):
            verify_lemma31_record(7, 1, -2, 0)
        for j in (-1, 6):
            with pytest.raises(ValueError, match="j out of range"):
                verify_lemma31_record(7, 1, 2, j)
        for l in (0, 6, -1):
            with pytest.raises(ValueError, match="0 < l < q-1"):
                verify_eq29_record(7, 1, l)


# every field with q <= 500, r <= 3 and p prime to 6
LEMMA5_FIELDS = [(p, r) for r in (1, 2, 3) for p in range(5, 500) if is_prime(p) and p**r <= 500]


def _lemma5_listing(q: int, r: int) -> list[dict]:
    return [{"l": l, "i": i} for l in range(1, q - 1) if 2 * l != q - 1 for i in range(r)]


class TestLemma5Row:
    """The LEMMA5 row's integer floor sums against the ``Fraction`` sides
    they replaced: both integer sides and the verdict of every record."""

    @staticmethod
    def _check(records, p, r):
        for rec in records:
            lhs, rhs = lemma5_sides(rec.params["l"], rec.params["i"], p, r)
            assert (rec.lhs, rec.rhs, rec.passed) == (str(lhs), str(rhs), lhs == rhs), rec.params
            assert (rec.theorem, rec.p, rec.r, rec.K) == ("LEMMA5", p, r, default_precision(p, r))

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_every_argument_of_every_small_field(self, r):
        for p, rr in LEMMA5_FIELDS:
            if rr == r:
                records = _sweep("lemma5", p, r)
                assert [rec.params for rec in records] == _lemma5_listing(p**r, r), (p, r)
                self._check(records, p, r)

    @pytest.mark.parametrize("p, r, sample, seed", [(9973, 1, 60, 0), (101, 2, 40, 1), (23, 3, 40, 2)])
    def test_sampled_positions_of_large_fields(self, p, r, sample, seed):
        spec = RangeSpec(theorems=("lemma5",), pmin=p, pmax=p, r_values=(r,), qmax=p**r, sample=sample, seed=seed)
        records, listing = run_suite(spec).records, _lemma5_listing(p**r, r)
        picked = random.Random(f"{seed}:lemma5:{p}:{r}").sample(range(len(listing)), sample)
        assert [rec.params for rec in records] == [listing[k] for k in picked]
        self._check(records, p, r)

    def test_lone_records_equal_row_records(self):
        strip = lambda rec: {**rec.to_dict(), "elapsed_ms": 0}  # noqa: E731
        for p, r in ((5, 1), (7, 2), (5, 3)):
            for rec in _sweep("lemma5", p, r, sample=10):
                assert strip(verify_lemma5_record(p, r, rec.params["l"], rec.params["i"])) == strip(rec)

    def test_lone_record_rejections(self):
        # the midpoint l = (q-1)/2, l and i out of range, and p = 2, 3
        for p, r, l, i in ((7, 1, 3, 0), (5, 2, 12, 1), (7, 1, 0, 0), (7, 1, 6, 0), (7, 1, 1, 1),
                           (7, 2, 1, -1), (3, 2, 1, 0), (2, 3, 1, 0)):
            with pytest.raises(ValueError):
                verify_lemma5_record(p, r, l, i)
            with pytest.raises(ValueError):
                lemma5_sides(l, i, p, r)

    def test_empty_row(self):
        assert verify._lemma5_row(7, 1, np.zeros((0, 2), dtype=np.int64)) == ([], [])


class TestArrayEvaluator:
    """``GammaCache.values`` at arbitrary integer points c/D against scalar
    Gamma_p(c/D)."""

    @pytest.mark.parametrize("p, K", [(7, 5), (13, 4), (89, 5), (199, 5)])
    @pytest.mark.parametrize("D", [1, 12, 60])
    def test_points_against_scalar(self, p, K, D):
        cache = gamma_cache(p, K)
        rng = random.Random(p * D + K)
        c = [0, -1, -D, D, 2 * D + 1, 5, 5, -7, -7, 3 * D - 1] + [rng.randrange(-5 * D, 5 * D) for _ in range(30)]
        values = cache.values(np.array(c), D)
        assert values.dtype == residue_dtype(p**K)
        assert values.tolist() == [cache.gamma(Fraction(x, D)) for x in c], (p, K, D)

    def test_rejects_denominator_divisible_by_p(self):
        with pytest.raises(DenominatorDivisibleByP):
            GammaCache(7, 3).values(np.arange(3), 21)


class TestSingleEvaluator:
    """``GammaCache.gamma``, ``values`` at one residue, against the scalar
    Horner evaluator it replaced: int64 residues, Python-int residues, and
    p^K > 2^63 at p = 99,991."""

    @pytest.mark.parametrize("p,K", [(3, 1), (5, 5), (13, 5), (89, 5), (99991, 5)])
    def test_every_point_matches_the_horner_oracle(self, p, K):
        cache = gamma_cache(p, K)
        for D in (1, 2, 4, 7, 12, 60, 210):
            if D % p == 0:
                continue
            for c in range(D):
                x = Fraction(c, D)
                assert cache.gamma(x) == gamma_horner(cache, x), (p, K, x)
        for x in (Fraction(-3, 4), Fraction(p**K - 1), Fraction(-1, p**K + 1)):
            assert cache.gamma(x) == gamma_horner(cache, x), (p, K, x)

    def test_residues_above_int64(self):
        cache = gamma_cache(99991, 5)
        n = np.array([99991**5 - 1, 2**63 + 5, 3], dtype=object)
        assert cache.values(n, 1).tolist() == [gamma_horner(cache, Fraction(int(x))) for x in n]

    def test_table_memoizes_by_residue(self):
        cache = GammaCache(7, 4)
        value = cache.gamma(Fraction(1, 2))
        assert cache.table == {0: 1, 1201: value}
        assert cache.gamma(Fraction(1201)) == value and len(cache.table) == 2
