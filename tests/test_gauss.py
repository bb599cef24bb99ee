import cmath
import gc
import math
import weakref

import pytest

from padichyper.errors import ModulusMismatch, TrivialCharacter, ZeroArgument
from padichyper.fields import FqField, build_field, trace
from padichyper.gauss import (
    check_davenport_hasse,
    check_gk_product,
    check_theta_expansion,
    default_tolerance,
    gauss_sum,
)

SMALL_FIELDS = [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (5, 2), (7, 2), (11, 2), (3, 4)]


class TestGaussSum:
    @pytest.mark.parametrize("p,r", SMALL_FIELDS)
    def test_trivial_character_sums_to_minus_one(self, p, r):
        f = build_field(p, r)
        assert abs(gauss_sum(0, f) - (-1)) < default_tolerance(f)

    @pytest.mark.parametrize("p,r", SMALL_FIELDS)
    def test_absolute_value_squared_is_q(self, p, r):
        f = build_field(p, r)
        tol = default_tolerance(f)
        for m in range(1, f.q - 1):
            assert abs(abs(gauss_sum(m, f)) ** 2 - f.q) < tol

    def test_direct_four_term_sum(self):
        # q = 5, m = 2: compare against the explicit sum over F_5^x
        f = build_field(5, 1)
        g = f.generator_idx
        z4 = [cmath.exp(2j * cmath.pi * k / 4) for k in range(4)]
        z5 = [cmath.exp(2j * cmath.pi * k / 5) for k in range(5)]
        direct = sum(z4[(2 * s) % 4] * z5[pow(g, s, 5)] for s in range(4))
        assert abs(gauss_sum(2, f) - direct) < 1e-9
        assert abs(abs(direct) ** 2 - 5) < 1e-9

    def test_tables_follow_the_field_not_its_id(self):
        # a freed field's id can be reused by the next field built outside
        # build_field; that field must still get its own tables
        old = FqField(5, 1)
        gauss_sum(1, old)
        old_id = id(old)
        del old
        built = []
        for _ in range(50):
            built.append(FqField(7, 1))
            if id(built[-1]) == old_id:
                break
        f = built[-1]
        q1 = f.q - 1
        for m in range(q1):
            direct = sum(
                cmath.exp(2j * cmath.pi * (m * s / q1 + trace(f.from_index(f.exp[s])) / f.p))
                for s in range(q1)
            )
            assert abs(gauss_sum(m, f) - direct) < 1e-9, m

    def test_tables_do_not_keep_the_field_alive(self):
        f = FqField(5, 1)
        gauss_sum(1, f)
        ref = weakref.ref(f)
        del f
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (5, 2)])
    def test_conjugation_relation(self, p, r):
        # G(-m) = conj(G(m)) * T^m(-1)
        f = build_field(p, r)
        tol = default_tolerance(f)
        for m in range(1, f.q - 1):
            sign = -1 if m % 2 else 1
            lhs = gauss_sum(-m, f)
            rhs = gauss_sum(m, f).conjugate() * sign
            assert abs(lhs - rhs) < tol


class TestGkProduct:
    def test_quadratic_character_case(self):
        f = build_field(11, 1)
        assert check_gk_product((f.q - 1) // 2, f)

    @pytest.mark.parametrize("p,r", SMALL_FIELDS)
    def test_all_nontrivial(self, p, r):
        f = build_field(p, r)
        for k in range(1, f.q - 1):
            assert check_gk_product(k, f)

    def test_trivial_rejected(self):
        with pytest.raises(TrivialCharacter):
            check_gk_product(0, build_field(7, 1))


class TestThetaExpansion:
    def test_alpha_one(self):
        f = build_field(7, 1)
        assert check_theta_expansion(f.one, f)

    @pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (5, 2), (3, 2)])
    def test_all_units(self, p, r):
        f = build_field(p, r)
        for idx in range(1, f.q):
            assert check_theta_expansion(f.from_index(idx), f)

    def test_zero_rejected(self):
        f = build_field(7, 1)
        with pytest.raises(ZeroArgument):
            check_theta_expansion(f.zero, f)


class TestDavenportHasse:
    def test_trivial_psi(self):
        f = build_field(7, 1)
        for m in (2, 3, 6):
            assert check_davenport_hasse(m, 0, f)

    def test_m2_all_psi(self):
        f = build_field(7, 1)
        for e in range(f.q - 1):
            assert check_davenport_hasse(2, e, f)

    def test_m3_needs_q_1_mod_3(self):
        f7 = build_field(7, 1)
        assert check_davenport_hasse(3, 1, f7)
        f5 = build_field(5, 1)
        with pytest.raises(ModulusMismatch):
            check_davenport_hasse(3, 1, f5)

    @pytest.mark.parametrize("p,r", [(7, 1), (13, 1), (5, 2), (7, 2)])
    def test_all_orders_and_characters(self, p, r):
        f = build_field(p, r)
        for m in (2, 3, 6):
            if (f.q - 1) % m:
                continue
            for e in range(0, f.q - 1, 5):
                assert check_davenport_hasse(m, e, f)
