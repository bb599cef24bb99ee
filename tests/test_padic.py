import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padichyper.errors import (
    CompositeP,
    ContextMismatch,
    NotAUnit,
    PrecisionExhausted,
    ZeroArgument,
)
from padichyper.padic import (
    PadicNumber,
    UnramifiedContext,
    _is_admissible,
    _poly_powmod,
    default_precision,
    find_defining_poly,
    frac_floor,
    is_prime,
    padic_sum,
    prime_factors,
    renormalize,
    teichmueller,
    unramified_context,
    zq_inv,
    zq_pow,
)

from padic_oracle import agrees_to, from_rational, padic_add, padic_mul, padic_neg, zq_add, zq_neg, zq_sub

rationals = st.fractions(max_denominator=10_000)


# The two-test admissibility check that the order test replaced, kept as its
# oracle with its own F_p[x] arithmetic: Rabin's irreducibility test (x^(p^r)
# = x and gcd(x^(p^(r/l)) - x, f) = 1 for every prime l | r), then x^((q-1)/l)
# != 1 for every prime l | q-1.  At r = 1 it also requires a nonzero root.


def _oracle_deg(f):
    d = len(f) - 1
    while d >= 0 and f[d] == 0:
        d -= 1
    return d


def _oracle_rem(a, f, p):
    """a mod the monic f, over F_p."""
    a = list(a)
    r = len(f) - 1
    for d in range(len(a) - 1, r - 1, -1):
        c = a[d]
        if c:
            for i in range(r + 1):
                a[d - r + i] = (a[d - r + i] - c * f[i]) % p
    return (a + [0] * r)[:r]


def _oracle_mulmod(a, b, f, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    return _oracle_rem(prod, f, p)


def _oracle_powmod(a, e, f, p):
    result, base = _oracle_rem([1], f, p), list(a)
    while e:
        if e & 1:
            result = _oracle_mulmod(result, base, f, p)
        base = _oracle_mulmod(base, base, f, p)
        e >>= 1
    return result


def _oracle_gcd(a, b, p):
    a, b = list(a), list(b)
    while _oracle_deg(b) >= 0:
        if _oracle_deg(a) < _oracle_deg(b):
            a, b = b, a
            continue
        db = _oracle_deg(b)
        inv = pow(b[db], -1, p)
        while _oracle_deg(a) >= db:
            da = _oracle_deg(a)
            c = a[da] * inv % p
            for j in range(db + 1):
                a[da - db + j] = (a[da - db + j] - c * b[j]) % p
        a, b = b, a
    return a[: _oracle_deg(a) + 1]


def _oracle_is_irreducible(poly, p):
    r = len(poly)
    f = list(poly) + [1]
    x = _oracle_rem([0, 1], f, p)

    def frob(k):
        z = x
        for _ in range(k):
            z = _oracle_powmod(z, p, f, p)
        return z

    if frob(r) != x:
        return False
    for ell in prime_factors(r) if r > 1 else []:
        diff = [(a - b) % p for a, b in zip(frob(r // ell), x)]
        if _oracle_deg(_oracle_gcd(diff, f, p)) != 0:
            return False
    return True


def _oracle_root_is_primitive(poly, p):
    f = list(poly) + [1]
    q = p ** len(poly)
    x = _oracle_rem([0, 1], f, p)
    one = _oracle_rem([1], f, p)
    if not any(x):
        return False
    return all(_oracle_powmod(x, (q - 1) // ell, f, p) != one for ell in prime_factors(q - 1))


def _oracle_hensel_inv(x):
    """The Hensel inverse that the closed form replaced: invert mod p in
    F_p[x]/(f), then z <- z (2 - x z) doubles the correct digits."""
    u = x.context
    f = list(u.poly_mod_p) + [1]
    z = u.element(_oracle_powmod([c % u.p for c in x.coeffs], u.q - 2, f, u.p))
    two = u.from_int(2)
    for _ in range(u.K.bit_length() + 1):
        z = z * zq_sub(two, x * z)
    if (x * z).coeffs != u.one.coeffs:
        raise AssertionError("Hensel inversion failed to converge")
    return z


def _oracle_admissible(poly, p):
    return _oracle_is_irreducible(poly, p) and _oracle_root_is_primitive(poly, p)


def _oracle_uncached_admissible(poly, p):
    """The order test as it stood before its verdicts were cached, copied
    verbatim: at r = 1 it powers the root after the norm test too."""
    r = len(poly)
    norm = (-1) ** r * poly[0] % p
    if norm == 0 or any(pow(norm, (p - 1) // ell, p) == 1 for ell in prime_factors(p - 1)):
        return False
    q = p**r
    one = [1] + [0] * (r - 1)
    x = ([0, 1] + [0] * (r - 2)) if r > 1 else [(-poly[0]) % p]
    if _poly_powmod(x, q - 1, poly, p) != one:
        return False
    return all(_poly_powmod(x, (q - 1) // ell, poly, p) != one for ell in prime_factors(q - 1))


def _oracle_zq_lift(coeffs, u):
    """The Teichmueller lift as a chain of ZqElement multiplies, the way it
    was computed before it moved onto coefficient lists."""
    return zq_pow(u.element(tuple(c % u.p for c in coeffs)), u.q ** (u.K - 1))


class TestFracFloor:
    def test_positive(self):
        assert frac_floor(Fraction(7, 3)) == (Fraction(1, 3), 2)

    def test_negative_wraps(self):
        assert frac_floor(Fraction(-1, 6)) == (Fraction(5, 6), -1)

    def test_zero(self):
        assert frac_floor(Fraction(0)) == (Fraction(0), 0)

    @given(rationals)
    def test_reconstructs(self, x):
        frac, fl = frac_floor(x)
        assert frac + fl == x
        assert 0 <= frac < 1

    @given(rationals, st.integers(min_value=-50, max_value=50))
    def test_integer_shift_invariance(self, x, n):
        assert frac_floor(x + n)[0] == frac_floor(x)[0]


class TestZpEmbedding:
    """Z/p^K is the r = 1 context; the oracle from_rational embeds rationals in it."""

    def test_half_mod_25(self):
        x = from_rational(Fraction(1, 2), unramified_context(5, 2, 1))
        assert x.valuation == 0 and x.unit.coeffs == (13,)

    def test_sixth_mod_5(self):
        x = from_rational(Fraction(1, 6), unramified_context(5, 1, 1))
        assert x.valuation == 0 and x.unit.coeffs == (1,)

    def test_denominator_divisible(self):
        # a p in the denominator becomes a negative valuation, not a residue
        ctx = unramified_context(5, 2, 1)
        x = from_rational(Fraction(1, 5), ctx)
        assert x.valuation == -1 and x.unit.coeffs == (1,)
        y = from_rational(Fraction(2, 25), ctx)
        assert y.valuation == -2 and y.unit.coeffs == (2,)

    def test_ring_homomorphism_small_rationals(self):
        # exhaustive over small numerators/denominators with p-free denominator
        ctx = unramified_context(7, 3, 1)
        xs = [
            Fraction(a, b)
            for a in range(-6, 7)
            for b in range(1, 7)
            if b % 7
        ]

        def emb(x):
            return from_rational(x, ctx)

        for x in xs[::3]:
            for y in xs[::5]:
                assert agrees_to(emb(x + y), padic_add(emb(x), emb(y)), ctx.K)
                assert agrees_to(emb(x * y), padic_mul(emb(x), emb(y)), ctx.K)


class TestContexts:
    def test_rejects_even_prime(self):
        with pytest.raises(CompositeP):
            UnramifiedContext(2, 3, 1, (1,))
        with pytest.raises(CompositeP):
            unramified_context(2, 3, 1)

    def test_rejects_composite(self):
        with pytest.raises(CompositeP):
            UnramifiedContext(9, 1, 1, (7,))
        with pytest.raises(CompositeP):
            unramified_context(9, 1, 1)

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            UnramifiedContext(5, 0, 1, (0,))
        with pytest.raises(ValueError):
            unramified_context(5, 0, 1)

    def test_default_precision_rule(self):
        assert default_precision(7, 1) == 5
        assert default_precision(47, 1) == 5
        assert default_precision(13, 2) == 6
        assert default_precision(47, 2) == 5

    def test_poly_reduction_validated(self):
        # x^2 + 1 is reducible mod 5, so it must be rejected
        with pytest.raises(ValueError):
            unramified_context(5, 2, 2, (1, 0))
        # x at r = 1: the root 0 is not a unit
        with pytest.raises(ValueError):
            UnramifiedContext(7, 3, 1, (0,))
        # x - 2 at p = 7: 2 has order 3, not 6
        with pytest.raises(ValueError):
            UnramifiedContext(7, 3, 1, (5,))
        # x^2 + 2 is irreducible mod 5, but its root has order 8, not 24
        assert _oracle_is_irreducible((2, 0), 5) and not _oracle_root_is_primitive((2, 0), 5)
        with pytest.raises(ValueError):
            UnramifiedContext(5, 2, 2, (2, 0))

    def test_cached_order_test_matches_the_uncached_one(self):
        # every candidate of every (p, r) with q <= 1000 and r <= 3
        models = [(p, r) for p in range(3, 1000) if is_prime(p) for r in (1, 2, 3) if p**r <= 1000]
        for p, r in models:
            for n in range(p**r):
                poly = tuple(n // p**i % p for i in range(r))
                assert _is_admissible(poly, p) == _oracle_uncached_admissible(poly, p), (p, poly)

    @pytest.mark.parametrize("p,r", [(7, 1), (5, 2), (3, 3)])
    def test_inadmissible_poly_rejected_after_an_admissible_one(self, p, r):
        # an admissible context of p first, so its verdict is cached; every
        # inadmissible polynomial of the same p still fails, at K = 1 a second
        # time from the cached verdict, and so does a lift differing by p
        good = find_defining_poly(p, r)
        for K in (1, 3):
            UnramifiedContext(p, K, r, good)
        bad = [
            poly for poly in (tuple(n // p**i % p for i in range(r)) for n in range(p**r))
            if not _oracle_admissible(poly, p)
        ]
        assert bad
        for poly in bad:
            for K in (1, 3, 1):
                with pytest.raises(ValueError, match="order q - 1"):
                    UnramifiedContext(p, K, r, poly)
            with pytest.raises(ValueError, match="order q - 1"):
                UnramifiedContext(p, 3, r, (poly[0] + p,) + poly[1:])

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_order_test_matches_irreducible_and_primitive(self, p):
        # every monic polynomial of every degree with q <= 2197
        r = 1
        while p**r <= 2197:
            for n in range(p**r):
                poly = tuple(n // p**i % p for i in range(r))
                assert _is_admissible(poly, p) == _oracle_admissible(poly, p), (p, poly)
            r += 1


class TestZqArithmetic:
    def test_mul_identity(self):
        u = unramified_context(7, 3, 2)
        x = u.element((3, 5))
        assert (x * u.one).coeffs == x.coeffs

    def test_additive_inverse(self):
        u = unramified_context(7, 3, 2)
        x = u.element((3, 5))
        assert zq_add(x, zq_neg(x)).coeffs == (0, 0)

    def test_context_mismatch(self):
        u1 = unramified_context(7, 3, 2)
        u2 = unramified_context(7, 4, 2)
        with pytest.raises(ContextMismatch):
            zq_add(u1.one, u2.one)

    def test_square_of_root_matches_long_division(self):
        # multiply T * T and reduce by the defining polynomial by hand
        u = unramified_context(7, 3, 2)
        c0, c1 = u.poly
        m = u.modulus
        T = u.element((0, 1))
        got = T * T
        # T^2 = -c1 T - c0
        assert got.coeffs == ((-c0) % m, (-c1) % m)

    def test_inverse_examples(self):
        u1 = unramified_context(7, 2, 1)
        assert zq_inv(u1.one).coeffs == (1,)
        assert zq_inv(u1.from_int(3)).coeffs == (33,)
        with pytest.raises(NotAUnit):
            zq_inv(u1.from_int(7))

    def test_inverse_in_extension(self):
        u = unramified_context(5, 4, 2)
        x = u.element((3, 4))
        assert (zq_inv(x) * x).coeffs == u.one.coeffs

    def test_closed_form_inverse_matches_hensel(self):
        # every residue class of units of every odd prime power q <= 121,
        # lifted with seeded higher digits, at K = 1, 2, 5
        rng = random.Random(11)
        for p in range(3, 122, 2):
            if not is_prime(p):
                continue
            r = 1
            while p**r <= 121:
                for K in (1, 2, 5):
                    u = unramified_context(p, K, r)
                    for n in range(1, p**r):
                        x = u.element([n // p**i % p + p * rng.randrange(p ** (K - 1)) for i in range(r)])
                        z = zq_inv(x)
                        assert z.coeffs == _oracle_hensel_inv(x).coeffs
                        assert (x * z).coeffs == u.one.coeffs
                r += 1

    def test_pow_basics(self):
        u = unramified_context(5, 3, 2)
        x = u.element((2, 3))
        assert zq_pow(x, 0).coeffs == u.one.coeffs
        assert zq_pow(x, 1).coeffs == x.coeffs
        assert zq_pow(x, 5).coeffs == (x * x * x * x * x).coeffs


class TestTeichmueller:
    def test_one_maps_to_one(self):
        u = unramified_context(7, 3, 1)
        assert teichmueller(1, u).coeffs == (1,)

    def test_p7_lift_of_two(self):
        # the unique 6th root of unity congruent to 2 mod 7, found exhaustively
        u = unramified_context(7, 3, 1)
        expected = [x for x in range(343) if x % 7 == 2 and pow(x, 6, 343) == 1]
        assert len(expected) == 1
        assert teichmueller(2, u).coeffs == (expected[0],)

    def test_minus_one(self):
        u = unramified_context(11, 4, 1)
        assert teichmueller(-1 % 11, u).coeffs == (11**4 - 1,)

    def test_zero_rejected(self):
        u = unramified_context(7, 3, 1)
        with pytest.raises(ZeroArgument):
            teichmueller(0, u)

    @pytest.mark.parametrize("K", [1, 5, 9])
    def test_coefficient_lift_matches_the_zq_chain(self, K):
        # every unit of every field with q <= 500 and r <= 3, in the field's
        # own model and, for r >= 2, under a second lift of its polynomial;
        # short coefficient lists and integers are padded alike
        models = [(p, r) for p in range(3, 500) if is_prime(p) for r in (1, 2, 3) if p**r <= 500]
        for p, r in models:
            u = unramified_context(p, K, r)
            contexts = [u]
            if r > 1 and K > 1:
                contexts.append(unramified_context(p, K, r, tuple(c + p for c in u.poly)))
            for u in contexts:
                for n in range(1, p**r):
                    coeffs = [n // p**i % p for i in range(r)]
                    want = _oracle_zq_lift(coeffs, u).coeffs
                    got = teichmueller(coeffs, u)
                    assert got.coeffs == want and got.context is u, (p, r, K, n, u.poly)
                    if n < p:
                        assert teichmueller(n, u).coeffs == teichmueller([n], u).coeffs == want

    def test_roots_of_unity_exhaustive(self):
        # lift^(q-1) = 1 and lift = naive lift mod p, for every unit of every
        # odd prime power q <= 121, at precisions up to 4
        from padichyper.padic import is_prime

        for p in range(3, 122, 2):
            if not is_prime(p):
                continue
            r = 1
            while p**r <= 121:
                q = p**r
                for K in (2, 4):
                    u = unramified_context(p, K, r)
                    for idx in range(1, q):
                        coeffs = []
                        n = idx
                        for _ in range(r):
                            n, c = divmod(n, p)
                            coeffs.append(c)
                        z = teichmueller(coeffs, u)
                        assert zq_pow(z, q - 1).coeffs == u.one.coeffs
                        assert tuple(c % p for c in z.coeffs) == tuple(coeffs)
                r += 1

    def test_closed_form_matches_fixpoint(self):
        # the closed form z^(q^(K-1)) against iterating z <- z^q until it is
        # stable, for every unit of every odd prime power q <= 121
        def fixpoint(coeffs, u):
            z = u.element(coeffs)
            for _ in range(u.K + 1):
                nxt = zq_pow(z, u.q)
                if nxt.coeffs == z.coeffs:
                    return z
                z = nxt
            raise AssertionError("q-power iteration did not stabilize")

        for p in range(3, 122, 2):
            if not is_prime(p):
                continue
            r = 1
            while p**r <= 121:
                for K in (1, 2, 5):
                    u = unramified_context(p, K, r)
                    for n in range(1, p**r):
                        coeffs = tuple(n // p**i % p for i in range(r))
                        assert teichmueller(coeffs, u).coeffs == fixpoint(coeffs, u).coeffs
                r += 1

    def test_multiplicative_exhaustive(self):
        # omega(ts) = omega(t) omega(s) over every pair, every q <= 49
        from padichyper.fields import build_field, uctx_for
        from padichyper.padic import is_prime

        for p in range(3, 50, 2):
            if not is_prime(p):
                continue
            r = 1
            while p**r <= 49:
                field = build_field(p, r)
                u = uctx_for(field, 3)
                lifts = [None] + [
                    teichmueller(field.from_index(i), u) for i in range(1, field.q)
                ]
                for i in range(1, field.q):
                    for j in range(i, field.q):
                        prod_idx = (field.from_index(i) * field.from_index(j)).idx
                        assert (lifts[i] * lifts[j]).coeffs == lifts[prod_idx].coeffs
                r += 1


class TestPadicSum:
    def setup_method(self):
        self.u = unramified_context(5, 6, 1)

    def test_singleton(self):
        x = from_rational(12, self.u)
        assert padic_sum([x]) == x

    def test_cancellation_gives_exact_zero(self):
        one = from_rational(1, self.u)
        s = padic_sum([one, padic_neg(one)])
        assert s.exact_zero

    def test_negative_valuation_sum_matches_rational(self):
        # 1/5 + 3 = 16/5
        a = PadicNumber(-1, self.u.one, -1 + 6)
        b = PadicNumber(0, self.u.from_int(3), 6)
        s = padic_sum([a, b])
        expected = from_rational(Fraction(16, 5), self.u)
        assert s.valuation == -1
        assert agrees_to(s, expected, 5 - 1)
        assert s.unit.coeffs[0] % 5 ** (6 - 1) == 16 % 5 ** (6 - 1)

    def test_permutation_invariance(self):
        rng = random.Random(7)
        terms = [
            PadicNumber(rng.randrange(-1, 3), self.u.from_int(rng.choice([1, 2, 3, 4, 6, 7])), 9)
            for _ in range(8)
        ]
        base = padic_sum(terms)
        for _ in range(10):
            rng.shuffle(terms)
            assert padic_sum(terms) == base

    def test_precision_exhausted(self):
        # a zero known only to O(p^-3) cannot absorb a unit at valuation -2
        a = PadicNumber.zero(-3)
        b = PadicNumber(-2, self.u.from_int(3), 6)
        with pytest.raises(PrecisionExhausted):
            padic_sum([a, b])

    def test_constructor_rejects_empty_precision(self):
        with pytest.raises(PrecisionExhausted):
            PadicNumber(2, self.u.one, 1)


def _oracle_renormalize(coeffs, p, K, offset, abs_prec):
    """(valuation, unit coordinates) of p^offset * coeffs known to
    O(p^abs_prec), or None for a zero, read digit by digit: the valuation is
    the first known base-p digit position where some coordinate is nonzero."""
    known = int(min(abs_prec - offset, K))
    digits = [[c // p**i % p for i in range(K)] for c in coeffs]
    for w in range(known):
        if any(d[w] for d in digits):
            return offset + w, tuple(sum(d[i] * p ** (i - w) for i in range(w, K)) for d in digits)
    return None


class TestRenormalize:
    @pytest.mark.parametrize("p,K,r", [(5, 6, 1), (7, 4, 2), (3, 5, 3)])
    def test_matches_digitwise_reference(self, p, K, r):
        # offsets of both signs, known digits below, at and above K, and
        # vectors divisible by p^s for every s up to K
        u = unramified_context(p, K, r)
        rng = random.Random(f"renormalize:{p}:{K}:{r}")
        for _ in range(400):
            offset = rng.randrange(-4, 5)
            abs_prec = offset + rng.randrange(1, K + 3)
            s = rng.randrange(K + 1)
            coeffs = [p**s * rng.randrange(p ** (K - s)) for _ in range(r)]
            got = renormalize(coeffs, u, offset, abs_prec)
            want = _oracle_renormalize(coeffs, p, K, offset, abs_prec)
            assert got.abs_prec == abs_prec
            if want is None:
                assert got.exact_zero
            else:
                assert (got.valuation, got.unit.coeffs) == want

    def test_zero_below_known_digits_is_exact_zero(self):
        # 0 mod p^2 (the known digits) but not mod p^K
        u = unramified_context(5, 6, 2)
        got = renormalize([5**3, 2 * 5**2], u, -1, 1)
        assert got.exact_zero and got.abs_prec == 1
        got = renormalize([5**3, 2 * 5**2], u, -1, 2)
        assert (got.valuation, got.unit.coeffs, got.abs_prec) == (1, (5, 2), 2)

    @pytest.mark.parametrize("rel", [0, -1, -3])
    def test_no_known_digit_is_exhausted(self, rel):
        u = unramified_context(5, 6, 1)
        with pytest.raises(PrecisionExhausted):
            renormalize([1], u, 2, 2 + rel)


class TestPadicNumber:
    def setup_method(self):
        self.u = unramified_context(5, 6, 1)

    def test_from_int_extracts_valuation(self):
        x = from_rational(50, self.u)
        assert x.valuation == 2 and x.unit.coeffs == (2,) and x.abs_prec == 2 + 6

    def test_multiplication_tracks_precision(self):
        x = PadicNumber(1, self.u.from_int(2), 4)
        y = PadicNumber(-1, self.u.from_int(3), 3)
        z = padic_mul(x, y)
        assert z.valuation == 0
        assert z.abs_prec == min(4 + (-1), 3 + 1)

    def test_agrees_to_across_precisions(self):
        u_hi = unramified_context(5, 8, 1)
        x = from_rational(Fraction(7, 3), self.u)
        y = from_rational(Fraction(7, 3), u_hi)
        assert agrees_to(x, y, 6)
        y2 = from_rational(Fraction(7, 3) + 5**4, u_hi)
        assert agrees_to(x, y2, 4)
        assert not agrees_to(x, y2, 5)

    def test_agrees_to_is_symmetric(self):
        xs = [
            from_rational(Fraction(a, b), self.u)
            for a, b in [(7, 3), (7 + 125, 3), (-2, 1), (50, 1)]
        ] + [PadicNumber.zero(6)]
        for x in xs:
            for y in xs:
                assert agrees_to(x, y, 4) == agrees_to(y, x, 4)

    def test_digit_rendering(self):
        x = from_rational(-3, self.u)
        assert x.digits() == "0:2,4,4,4,4,4"
        z = PadicNumber.zero(4)
        assert z.digits() == "zero:O(p^4)"

    def test_scale_by_zero(self):
        x = from_rational(7, self.u)
        assert x.scale_int(0).exact_zero


def test_defining_poly_is_first_admissible_candidate():
    # r = 1: x - g for the smallest primitive roots g; r >= 2: counter order
    for p in (3, 5, 7, 11, 13):
        roots = [g for g in range(2, p) if _oracle_root_is_primitive(((-g) % p,), p)]
        for v, g in enumerate(roots[:3]):
            assert find_defining_poly(p, 1, v) == ((-g) % p,)
        for r in (2, 3):
            polys = (tuple(n // p**i % p for i in range(r)) for n in range(p**r))
            first = [f for f in polys if _oracle_admissible(f, p)][:3]
            assert [find_defining_poly(p, r, v) for v in range(len(first))] == first
    with pytest.raises(CompositeP):
        find_defining_poly(3, 1, 1)


def _plain_is_admissible(poly, p):
    """The order test without the norm pre-check: x^(q-1) = 1 and
    x^((q-1)/l) != 1 for every prime l | q-1, mod (p, x^r + poly)."""
    r = len(poly)
    q = p**r
    f = list(poly) + [1]
    x = _oracle_rem([0, 1], f, p)
    one = _oracle_rem([1], f, p)
    if _oracle_powmod(x, q - 1, f, p) != one:
        return False
    return all(_oracle_powmod(x, (q - 1) // ell, f, p) != one for ell in prime_factors(q - 1))


def _plain_find_defining_poly(p, r, variant):
    """find_defining_poly's candidate loop over the plain order test."""
    if r == 1:
        candidates = (((-g) % p,) for g in range(2, p))
    else:
        candidates = (tuple(n // p**i % p for i in range(r)) for n in range(p**r))
    admissible = (poly for poly in candidates if _plain_is_admissible(poly, p))
    for _ in range(variant):
        next(admissible, None)
    return next(admissible, None)


def test_norm_precheck_keeps_every_defining_poly():
    # every model with q <= 2500 and variants 0-2; None where a field has
    # fewer admissible candidates than the variant asks for
    models = [(p, r) for p in range(3, 2500) if is_prime(p) for r in range(1, 8) if p**r <= 2500]
    for p, r in models:
        for v in range(3):
            expected = _plain_find_defining_poly(p, r, v)
            if expected is None:
                with pytest.raises(CompositeP):
                    find_defining_poly(p, r, v)
            else:
                assert find_defining_poly(p, r, v) == expected, (p, r, v)
                assert _is_admissible(expected, p)
                UnramifiedContext(p, 1, r, expected)


def test_defining_poly_deterministic_and_distinct_variants():
    p0 = find_defining_poly(5, 2, 0)
    p1 = find_defining_poly(5, 2, 1)
    assert p0 == find_defining_poly(5, 2, 0)
    assert p0 != p1


def _oracle_digits(x):
    """The digit rendering as it was first written: every coordinate loses
    one base-p digit per pass."""
    ctx = x.unit.context
    nd = int(min(x.abs_prec - x.valuation, ctx.K))
    cols, coeffs = [], list(x.unit.coeffs)
    for _ in range(nd):
        row = [c % ctx.p for c in coeffs]
        coeffs = [c // ctx.p for c in coeffs]
        cols.append(".".join(str(d) for d in row))
    return f"{x.valuation}:" + ",".join(cols)


@pytest.mark.parametrize("p,r,K", [(7, 1, 5), (5, 2, 6), (3, 3, 4), (101, 2, 9)])
def test_digits_match_the_digit_by_digit_rendering(p, r, K):
    ctx = unramified_context(p, K, r)
    rng = random.Random(p * 100 + r)
    for _ in range(200):
        coeffs = [rng.randrange(ctx.modulus) for _ in range(r)]
        coeffs[0] = coeffs[0] // p * p + rng.randrange(1, p)  # a unit
        v = rng.randrange(-3, 4)
        x = PadicNumber(v, ctx.element(coeffs), v + rng.randrange(1, K + 3))
        assert x.digits() == _oracle_digits(x)
