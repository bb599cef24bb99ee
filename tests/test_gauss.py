import cmath
import gc
import math
import weakref

import numpy as np
import pytest

from padichyper.errors import ModulusMismatch, TrivialCharacter, ZeroArgument
from padichyper.fields import FqField, build_field, trace
from padichyper.gauss import (
    davenport_hasse_sides,
    default_tolerance,
    gauss_sum,
    gk_product_sides,
    theta_expansion_sides,
)
from padichyper import verify
from padichyper.verify import (
    verify_gauss_dh_record,
    verify_gauss_gk_record,
    verify_gauss_theta_record,
)

SMALL_FIELDS = [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (5, 2), (7, 2), (11, 2), (3, 4)]
EXTENSION_FIELDS = [(3, 2), (5, 2), (7, 2), (11, 2), (13, 2), (3, 3), (5, 3), (7, 3), (3, 4), (5, 4), (3, 5)]


def direct_gauss_sums(f):
    """Every G(T^m), m = 0..q-2, by the O(q^2) sum over the powers g^s of
    the generator, each with its own Frobenius-power trace."""
    q1 = f.q - 1
    s = np.arange(q1)
    tr = np.array([trace(f.from_index(f.exp[k])) for k in range(q1)])
    return np.exp(2j * np.pi * (np.outer(s, s) % q1 / q1 + tr / f.p)).sum(axis=1)


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

    @pytest.mark.parametrize("p,r", EXTENSION_FIELDS)
    def test_dft_matches_the_direct_sum(self, p, r):
        f = build_field(p, r)
        direct = direct_gauss_sums(f)
        got = np.array([gauss_sum(m, f) for m in range(f.q - 1)])
        assert np.max(np.abs(got - direct)) < 1e-9 * f.q

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
        assert verify_gauss_gk_record(11, 1, (11 - 1) // 2).passed

    @pytest.mark.parametrize("p,r", SMALL_FIELDS)
    def test_all_nontrivial(self, p, r):
        for k in range(1, p**r - 1):
            assert verify_gauss_gk_record(p, r, k).passed

    def test_trivial_rejected(self):
        with pytest.raises(TrivialCharacter):
            gk_product_sides(0, build_field(7, 1))


class TestThetaExpansion:
    def test_alpha_one(self):
        assert verify_gauss_theta_record(7, 1, build_field(7, 1).one.idx).passed

    @pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (5, 2), (3, 2)])
    def test_all_units(self, p, r):
        for idx in range(1, p**r):
            assert verify_gauss_theta_record(p, r, idx).passed

    def test_zero_rejected(self):
        f = build_field(7, 1)
        with pytest.raises(ZeroArgument):
            theta_expansion_sides(f.zero, f)


class TestDavenportHasse:
    def test_trivial_psi(self):
        for m in (2, 3, 6):
            assert verify_gauss_dh_record(7, 1, m, 0).passed

    def test_m2_all_psi(self):
        for e in range(6):
            assert verify_gauss_dh_record(7, 1, 2, e).passed

    def test_m3_needs_q_1_mod_3(self):
        assert verify_gauss_dh_record(7, 1, 3, 1).passed
        with pytest.raises(ModulusMismatch):
            davenport_hasse_sides(3, 1, build_field(5, 1))

    def test_large_products_pass_relative_to_their_size(self):
        # |lhs| is about q^3 = 2.2e10 at q = 2809, m = 6: the sides differ in
        # the last digits by more than an absolute 1e-6 q
        assert verify_gauss_dh_record(53, 2, 6, 351).passed

    def test_a_relative_error_of_1e_4_fails(self, monkeypatch):
        def perturbed(m, psi, field):
            lhs, rhs = davenport_hasse_sides(m, psi, field)
            return lhs * (1 + 1e-4), rhs

        monkeypatch.setattr(verify, "davenport_hasse_sides", perturbed)
        assert not verify_gauss_dh_record(53, 2, 6, 351).passed
        assert not verify_gauss_dh_record(7, 1, 2, 1).passed

    @pytest.mark.parametrize("p,r", [(7, 1), (13, 1), (5, 2), (7, 2)])
    def test_all_orders_and_characters(self, p, r):
        q = p**r
        for m in (2, 3, 6):
            if (q - 1) % m:
                continue
            for e in range(0, q - 1, 5):
                assert verify_gauss_dh_record(p, r, m, e).passed
