import math
import pickle
import random

import numpy as np
import pytest

from padichyper.errors import CompositeP, FieldTooLarge, ZeroArgument
from padichyper.fields import (
    FqField,
    build_field,
    check_orthogonality,
    phi,
    trace,
    uctx_for,
)
from padichyper.padic import _poly_mulmod, is_prime

from padic_oracle import char_eval_padic, check_orthogonality_per_character


class TestBuild:
    def test_prime_field_generator_is_least_primitive_root(self):
        assert build_field(7, 1).generator_idx == 3

    def test_quadratic_extension_generator_order(self):
        f = build_field(5, 2)
        g = f.generator
        assert all((g ** k).idx != 1 for k in range(1, 24))
        assert (g**24).idx == 1

    def test_composite_rejected(self):
        with pytest.raises(CompositeP):
            build_field(9, 1)

    def test_too_large_rejected(self):
        with pytest.raises(FieldTooLarge):
            build_field(317, 2)  # q = 100,489, above the table bound

    def test_variant_changes_model(self):
        f0 = build_field(7, 1, variant=0)
        f1 = build_field(7, 1, variant=1)
        assert f0.generator_idx != f1.generator_idx

    def test_one_cache_entry_per_model(self):
        f = build_field(7, 1)
        assert build_field(7, 1, 0) is f and build_field(7, 1, variant=0) is f

    def test_repr_shows_a_nonzero_variant(self):
        assert repr(build_field(7, 1)) == "FqField(p=7, r=1)"
        assert repr(build_field(7, 1, variant=1)) == "FqField(p=7, r=1, variant=1)"


def odd_prime_powers(limit):
    from padichyper.padic import is_prime

    out = []
    for p in range(3, limit + 1, 2):
        if is_prime(p):
            q, r = p, 1
            while q <= limit:
                out.append((p, r))
                q, r = q * p, r + 1
    return out


def oracle_exp_dlog(f):
    """exp and dlog by the sequential walk the doubling build replaced: one
    schoolbook product per power of g, with both of its order checks."""
    p, r, q = f.p, f.r, f.q

    def unpack(i):
        return [i // p**k % p for k in range(r)]

    def pack(cs):
        return sum(c * p**k for k, c in enumerate(cs))

    exp, dlog, cur = [0] * (q - 1), [-1] * q, 1
    for s in range(q - 1):
        exp[s] = cur
        assert dlog[cur] == -1, "generator order below q-1"
        dlog[cur] = s
        cur = pack(_poly_mulmod(unpack(cur), unpack(f.generator_idx), f.poly, p))
    assert cur == 1, "generator order is not q-1"
    return exp, dlog


class TestDlog:
    @pytest.mark.parametrize(
        "p,r,variant",
        [*((p, r, 0) for p, r in odd_prime_powers(400)), (5, 2, 1), (3, 4, 2), (101, 2, 0), (9973, 1, 0)],
    )
    def test_doubling_build_matches_the_sequential_walk(self, p, r, variant):
        f = FqField(p, r, variant)
        exp, dlog = oracle_exp_dlog(f)
        assert (f.exp, f.dlog) == (exp, dlog)
        assert f.exp_np.tolist() == exp + exp and f.dlog_np.tolist() == dlog

    def test_bijection_and_homomorphism_exhaustive(self):
        # every odd prime power q <= 121, every pair of units
        for p, r in odd_prime_powers(121):
            f = build_field(p, r)
            q = f.q
            assert sorted(f.dlog[1:]) == list(range(q - 1))
            dlog = f.dlog
            for i in range(1, q):
                di = dlog[i]
                for j in range(i, q):
                    assert (di + dlog[j]) % (q - 1) == dlog[(f.from_index(i) * f.from_index(j)).idx]

    def test_element_operators(self):
        f = build_field(13, 1)
        x, y = f.element(5), f.element(9)
        assert (x + y).idx == 1
        assert (x * y).idx == 45 % 13
        assert (x / y * y).idx == x.idx
        assert (x ** (f.q - 1)).idx == 1
        assert (-x + x).is_zero


# Digit-wise oracles: an index is the base-p packing of the coefficient
# vector, and F_q addition adds coefficients mod p.


def oracle_add(f, i, j):
    out, scale = 0, 1
    for _ in range(f.r):
        out += scale * ((i % f.p + j % f.p) % f.p)
        i, j, scale = i // f.p, j // f.p, scale * f.p
    return out


def oracle_neg(f, i):
    out, scale = 0, 1
    for _ in range(f.r):
        out += scale * (-(i % f.p) % f.p)
        i, scale = i // f.p, scale * f.p
    return out


def oracle_np_add(f, a, b):
    x, y = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    out = np.zeros(x.shape, dtype=np.int64)
    scale = 1
    for _ in range(f.r):
        out += scale * ((x % f.p + y % f.p) % f.p)
        x, y = x // f.p, y // f.p
        scale *= f.p
    return out


EXTENSIONS_UP_TO_343 = [(p, r) for p, r in odd_prime_powers(343) if r >= 2]


class TestZechAddition:
    @pytest.mark.parametrize("p,r", EXTENSIONS_UP_TO_343, ids=lambda v: str(v))
    def test_every_pair(self, p, r):
        f = build_field(p, r)
        idx = np.arange(f.q)
        neg = [oracle_neg(f, i) for i in range(f.q)]
        assert [(-x).idx for x in f.elements()] == neg
        want_add = oracle_np_add(f, idx[:, None], idx[None, :])
        want_sub = oracle_np_add(f, idx[:, None], np.array(neg)[None, :])
        assert np.array_equal(f.np_add(idx[:, None], idx[None, :]), want_add)
        assert [[(x + y).idx for y in f.elements()] for x in f.elements()] == want_add.tolist()
        assert [[(x - y).idx for y in f.elements()] for x in f.elements()] == want_sub.tolist()

    @pytest.mark.parametrize("p", [47, 101])
    def test_seeded_pairs_at_large_q(self, p):
        f = build_field(p, 2)
        rng = random.Random(f"zech:{p}")
        # zeros and an element with its negative are drawn on purpose
        pairs = [(0, 0), (0, 5), (5, 0), (5, oracle_neg(f, 5))]
        pairs += [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(10_000 - len(pairs))]
        a, b = (np.array(col) for col in zip(*pairs))
        want = [oracle_add(f, i, j) for i, j in pairs]
        assert [(f.from_index(i) + f.from_index(j)).idx for i, j in pairs] == want
        assert f.np_add(a, b).tolist() == want
        assert f.np_add(a, 7).tolist() == [oracle_add(f, i, 7) for i in a.tolist()]
        assert [(f.from_index(i) - f.from_index(j)).idx for i, j in pairs] == [oracle_add(f, i, oracle_neg(f, j)) for i, j in pairs]
        assert [(-f.from_index(i)).idx for i, _ in pairs] == [oracle_neg(f, i) for i, _ in pairs]


# Coefficient-vector oracles for every operator: a vector holds the r
# power-basis coordinates, and products reduce by x^r = -(c_0 + ... +
# c_{r-1} x^(r-1)) with the c_i the field's lower polynomial coefficients.


def vec(f, i):
    return [i // f.p**k % f.p for k in range(f.r)]


def vec_mul(f, a, b):
    prod = [0] * (2 * f.r - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * f.r - 2, f.r - 1, -1):
        for i, c in enumerate(f.poly):
            prod[k - f.r + i] -= prod[k] * c
    return [c % f.p for c in prod[: f.r]]


def vec_pow(f, a, e):
    out = vec(f, 1)
    for _ in range(e):
        out = vec_mul(f, out, a)
    return out


def vec_inverses(f):
    """index -> the vector of its inverse, found by search over the units."""
    one = vec(f, 1)
    return {i: next(vec(f, j) for j in range(1, f.q) if vec_mul(f, vec(f, i), vec(f, j)) == one) for i in range(1, f.q)}


OPERATOR_FIELDS = [(7, 1), (3, 2), (5, 2), (3, 3), (7, 2)]  # q = 7, 9, 25, 27, 49


class TestOperators:
    @pytest.mark.parametrize("p,r", OPERATOR_FIELDS)
    def test_every_pair(self, p, r):
        f = build_field(p, r)
        inv = vec_inverses(f)
        for x in f.elements():
            a = vec(f, x.idx)
            for y in f.elements():
                b = vec(f, y.idx)
                assert vec(f, (x + y).idx) == [(u + v) % p for u, v in zip(a, b)]
                assert vec(f, (x - y).idx) == [(u - v) % p for u, v in zip(a, b)]
                assert vec(f, (x * y).idx) == vec_mul(f, a, b)
                if y.idx:
                    assert vec(f, (x / y).idx) == vec_mul(f, a, inv[y.idx])

    @pytest.mark.parametrize("p,r", OPERATOR_FIELDS)
    def test_powers(self, p, r):
        f = build_field(p, r)
        q, inv = f.q, vec_inverses(f)
        for x in f.units():
            for e in (-2, -1, 0, 1, 2, q - 1, q):
                want = vec_pow(f, vec(f, x.idx), e) if e >= 0 else vec_pow(f, inv[x.idx], -e)
                assert vec(f, (x**e).idx) == want, (x, e)
        for e in (1, 2, q - 1, q):
            assert (f.zero**e).is_zero

    @pytest.mark.parametrize("p,r", OPERATOR_FIELDS)
    def test_array_methods(self, p, r):
        # np_mul, np_div and np_phi on every pair at once, and against one
        # index, with 0 for a zero divisor
        f = build_field(p, r)
        q, inv, idx = f.q, vec_inverses(f), np.arange(f.q)
        prod, quot = f.np_mul(idx[:, None], idx[None, :]), f.np_div(idx[:, None], idx[None, :])
        for i in range(q):
            for j in range(q):
                assert vec(f, int(prod[i, j])) == vec_mul(f, vec(f, i), vec(f, j))
                assert vec(f, int(quot[i, j])) == (vec_mul(f, vec(f, i), inv[j]) if j else vec(f, 0))
        assert np.array_equal(f.np_mul(idx, 3 % p), prod[:, 3 % p])
        squares = {tuple(vec_mul(f, vec(f, i), vec(f, i))) for i in range(1, q)}
        assert f.np_phi(idx).tolist() == [0] + [1 if tuple(vec(f, i)) in squares else -1 for i in range(1, q)]

    def test_prime_field_products_and_characters_at_the_largest_p(self):
        # np_mul multiplies prime-field indices as integers: (p - 1)^2 must not
        # overflow; np_phi against Euler's criterion
        p = 99_991
        f = build_field(p, 1)
        xs = np.array([0, 1, 2, 3, 12_345, p // 2, p - 2, p - 1])
        expected = [[x * y % p for y in xs.tolist()] for x in xs.tolist()]
        assert f.np_mul(xs[:, None], xs[None, :]).tolist() == expected
        euler = [0] + [1 if pow(x, (p - 1) // 2, p) == 1 else -1 for x in xs.tolist()[1:]]
        assert f.np_phi(xs).tolist() == euler

    def test_zero_division_and_zero_powers(self):
        for f in (build_field(7, 1), build_field(5, 2)):
            with pytest.raises(ZeroArgument, match="0 has no inverse"):
                f.one / f.zero
            with pytest.raises(ZeroArgument, match="0 has no inverse"):
                f.zero / f.zero
            with pytest.raises(ZeroArgument, match="0 has no inverse"):
                f.zero**-1
            with pytest.raises(ZeroArgument, match="0 has no inverse"):
                3 / f.zero
            assert f.zero**0 == f.one


class TestElement:
    def test_assignment_raises(self):
        x = build_field(5, 2).from_index(7)
        for name, value in (("idx", 8), ("field", build_field(7, 1)), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(x, name, value)
        assert x.idx == 7

    def test_equality_and_hash(self):
        f = build_field(5, 2)
        x, y = f.from_index(7), f.from_index(7)
        assert x == y and hash(x) == hash(y) and len({x, y}) == 1
        assert x != f.from_index(8)
        assert x != 7 and x != (f, 7)
        # a field is its model (p, r, variant): another object of it is equal
        other = FqField(5, 2)
        assert other is not f and other == f and hash(other) == hash(f)
        z = other.from_index(7)
        assert x == z and hash(x) == hash(z) and len({x, z}) == 1
        assert x + z == f.from_index(7) * 2 and z * x == x * x

    def test_element_of_another_model_rejected(self):
        f = build_field(7, 1)
        assert f.element(FqField(7, 1).element(3)) == f.element(3)
        for other in (build_field(7, 1, variant=1), build_field(11, 1)):
            assert other != f
            with pytest.raises(ValueError, match="another field"):
                f.element(other.element(3))
            with pytest.raises(ValueError, match="another field"):
                f.element(3) + other.element(3)
        assert f.element(f.element(3)) == f.element(3)

    def test_integers_coerce_into_the_prime_field(self):
        f = build_field(5, 2)
        x = f.from_index(7)
        assert x + 6 == x + f.element(1) and 6 + x == x + 1
        assert x * -2 == x * f.element(3) and 3 - x == -(x - 3)

    def test_pickle_round_trip(self):
        x = build_field(5, 2).from_index(7)
        y = pickle.loads(pickle.dumps(x))
        assert (y.field.model, y.idx) == (x.field.model, x.idx)
        assert y == x and hash(y) == hash(x)


class TestQuadraticCharacter:
    def test_zero(self):
        f = build_field(7, 1)
        assert phi(f.zero) == 0

    def test_one(self):
        f = build_field(7, 1)
        assert phi(f.one) == 1

    def test_generator(self):
        f = build_field(7, 1)
        assert phi(f.generator) == -1

    def test_multiplicative_exhaustive(self):
        for p, r in odd_prime_powers(121):
            f = build_field(p, r)
            phis = [0] + [phi(f.from_index(i)) for i in range(1, f.q)]
            for i in range(1, f.q):
                for j in range(i, f.q):
                    assert phis[i] * phis[j] == phis[(f.from_index(i) * f.from_index(j)).idx]

    def test_minus_three_is_square_iff_q_1_mod_3(self):
        for (p, r) in [(5, 1), (7, 1), (11, 1), (13, 1), (31, 1), (37, 1), (5, 2), (7, 2), (11, 2), (13, 2), (97, 1), (229, 1)]:
            f = build_field(p, r)
            if f.q % 3 == 1:
                assert phi(f.element(-3)) == 1, f


class TestTrace:
    def test_identity_on_prime_field(self):
        f = build_field(11, 1)
        assert trace(f.element(4)) == 4

    def test_zero(self):
        f = build_field(5, 2)
        assert trace(f.zero) == 0

    def test_root_of_defining_poly_vieta(self):
        # tr(T) = sum of the two conjugate roots = -(linear coefficient)
        f = build_field(5, 2)
        assert trace(f.from_index(5)) == (-f.poly[1]) % 5

    def test_additive(self):
        f = build_field(7, 2)
        for i in range(0, f.q, 5):
            for j in range(0, f.q, 7):
                x, y = f.from_index(i), f.from_index(j)
                assert trace(x + y) == (trace(x) + trace(y)) % 7


class TestPadicCharacter:
    def test_trivial(self):
        f = build_field(7, 1)
        u = uctx_for(f, 4)
        assert char_eval_padic(0, f.element(5), u).coeffs == (1,)

    def test_full_order(self):
        f = build_field(7, 1)
        u = uctx_for(f, 4)
        assert char_eval_padic(f.q - 1, f.generator, u).coeffs == (1,)

    def test_cubed_generator_gives_minus_one(self):
        f = build_field(7, 1)
        u = uctx_for(f, 4)
        # any integer exponent works; it only matters mod q - 1 = 6
        for m in (3, 9, -3, -9):
            v = char_eval_padic(m, f.element(3), u)
            assert v.coeffs == (7**4 - 1,)

    def test_zero_rejected(self):
        f = build_field(7, 1)
        u = uctx_for(f, 4)
        with pytest.raises(ZeroArgument):
            char_eval_padic(1, f.zero, u)

    @pytest.mark.parametrize("p,r", [(7, 1), (5, 2)])
    def test_reduction_mod_p_matches_power_bookkeeping(self, p, r):
        # omega^m(g^s) = g^{ms} mod p
        f = build_field(p, r)
        u = uctx_for(f, 3)
        g = f.generator
        for m in range(0, f.q - 1, 3):
            for s in range(0, f.q - 1, 5):
                x = g**s
                if x.is_zero:
                    continue
                lifted = char_eval_padic(m, x, u)
                reduced = tuple(c % p for c in lifted.coeffs)
                assert reduced == (g ** (m * s)).coeffs


class TestOrthogonality:
    @pytest.mark.parametrize("p,r", [(7, 1), (3, 2), (5, 2), (13, 1)])
    def test_exact(self, p, r):
        assert check_orthogonality(build_field(p, r))

    def test_matches_the_per_character_oracle(self):
        # every field with q <= 2,500 and r <= 3
        models = [(p, r) for p in range(3, 2501) if is_prime(p) for r in (1, 2, 3) if p**r <= 2500]
        for p, r in models:
            field = build_field(p, r)
            assert check_orthogonality(field) == check_orthogonality_per_character(field) is True, (p, r)

    @pytest.mark.parametrize("p,r", [(17, 1), (7, 2), (3, 3), (9973, 1)])
    def test_one_exponent_count_per_divisor(self, monkeypatch, p, r):
        # m = 0, then one m per divisor d < q-1: the gcd of each counted
        # multiset with q-1 names the class it stands for
        field = build_field(p, r)
        q1 = field.q - 1
        bincount, classes = np.bincount, []

        def spy(x, *args, **kwargs):
            classes.append(math.gcd(q1, *x.tolist()))
            return bincount(x, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", spy)
        assert check_orthogonality(field)
        assert classes == [q1] + [d for d in range(1, q1) if q1 % d == 0]
