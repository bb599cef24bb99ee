import math
from fractions import Fraction

import pytest

from padichyper.curves import WeierstrassCurve, count_weierstrass
from padichyper.errors import (
    BoundTooLargeForPrecision,
    DenominatorDivisibleByP,
    NoRepresentativeInBound,
    NotAnInteger,
    PrecisionExhausted,
    ZeroArgument,
)
from padichyper.fields import build_field, phi, teichmueller_powers, uctx_for
from padichyper.gamma import gamma_cache
from padichyper.hyper import (
    GInstance,
    GParams,
    g_eval,
    g_term,
    gparams,
    profile_for,
    recover_integer,
    term_valuations,
)
from padichyper.padic import PadicNumber, default_precision, frac_floor, teichmueller, zq_inv, zq_pow

QT = GParams(2, (Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 3), Fraction(2, 3)))
HS = GParams(2, (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 6), Fraction(5, 6)))
HS2 = GParams(4, HS.a + HS.a, HS.b + HS.b)  # term valuations reach -2: g_eval needs guard digits


def oracle_qg(prof, t):
    """q*G at t by the plain per-point loop: lift t, invert, then multiply
    the twist up one power of omega-bar(t) per term."""
    ctx = prof.uctx
    wbar = zq_inv(teichmueller(t, ctx))
    w = ctx.one
    acc = ctx.zero_elt
    for j in range(prof.field.q - 1):
        acc = acc + w.scale(prof.qg_scaled[j])
        w = w * wbar
    total = acc.scale(prof.neg_inv_q1)
    if total.is_zero:
        return PadicNumber.zero(ctx.K)
    v = total.valuation()
    return PadicNumber(v, total.unshift(v), ctx.K)


def oracle_term_unit(prof, t, j):
    return zq_pow(zq_inv(teichmueller(t, prof.uctx)), j).scale(prof.units[j])


def make_instance(p, r, params, t, K=None, variant=0):
    field = build_field(p, r, variant=variant)
    K = K if K is not None else default_precision(p, r)
    return GInstance(params, field, uctx_for(field, K), field.element(t))


class TestGParams:
    def test_parse(self):
        g = gparams("1/4,3/4;1/3,2/3")
        assert g == QT

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gparams("1/2;1/3,2/3")

    def test_p_divisible_denominator(self):
        bad = GParams(1, (Fraction(1, 7),), (Fraction(1, 3),))
        with pytest.raises(DenominatorDivisibleByP):
            bad.check_padic(7)

    def test_instance_requires_nonzero_t(self):
        field = build_field(7, 1)
        with pytest.raises(ZeroArgument):
            GInstance(QT, field, uctx_for(field, 5), field.zero)


class TestTerms:
    def test_j_zero_is_unit_one(self):
        inst = make_instance(7, 1, QT, 3)
        t0 = g_term(inst, 0)
        assert t0.valuation == 0 and t0.unit.coeffs == (1,)

    def test_hand_computed_term(self):
        # j = 1, t = 1 at p = 7: assemble the summand symbol by symbol with
        # independent Fraction floors and direct gamma calls
        p, K, j = 7, 5, 1
        inst = make_instance(p, 1, QT, 1, K=K)
        cache = gamma_cache(p, K)
        m = p**K
        q1 = p - 1
        num = 1
        den = 1
        e_tot = 0
        for a_i, b_i in zip(QT.a, QT.b):
            fa = frac_floor(a_i)[0]
            fb = frac_floor(-b_i)[0]
            e_tot -= frac_floor(fa - Fraction(j, q1))[1] + frac_floor(fb + Fraction(j, q1))[1]
            num = num * cache.gamma(frac_floor(a_i - Fraction(j, q1))[0]) % m
            num = num * cache.gamma(frac_floor(-b_i + Fraction(j, q1))[0]) % m
            den = den * cache.gamma(fa) % m * cache.gamma(fb) % m
        unit = num * pow(den, -1, m) % m
        if (j * QT.n + e_tot) % 2:
            unit = -unit % m
        # omega-bar^j(1) = 1
        got = g_term(inst, j)
        assert got.valuation == e_tot
        assert got.unit.coeffs == (unit,)

    def test_exponent_bounds_r1(self):
        vals = term_valuations(QT, 7, 1)
        assert all(-QT.n <= v <= 2 * QT.n for v in vals)

    def test_exponent_bounds_r2(self):
        p, r = 5, 2
        geo = (p**r - 1) // (p - 1)
        vals = term_valuations(HS, p, r)
        assert all(-HS.n * geo <= v <= 2 * HS.n * geo for v in vals)

    def test_j_out_of_range(self):
        inst = make_instance(7, 1, QT, 3)
        with pytest.raises(ValueError):
            g_term(inst, 7)


class TestEval:
    def test_trace_formula_oracle_p7(self):
        # q phi(b) G at -27b^2/4a^3 equals the enumerated trace for y^2=x^3+x+1
        field = build_field(7, 1)
        a = field.element(1)
        b = field.element(1)
        tr = count_weierstrass(WeierstrassCurve(a, b), field).trace
        inst = make_instance(7, 1, QT, (-27 * b * b / (4 * a**3)).idx)
        val = g_eval(inst).scale_int(7 * phi(b))
        assert recover_integer(val, math.isqrt(4 * 7), p=7) == tr

    def test_hessian_oracle_p11(self):
        # the [1/2,1/2;1/6,5/6] value at 1/d^3 is pinned by the affine count
        from padichyper.curves import HessianCurve, count_hessian
        from padichyper.verify import AlphaValue

        field = build_field(11, 1)
        d = field.element(2)
        count = count_hessian(HessianCurve(d), field)
        alpha = AlphaValue.for_field(field).value
        inst = make_instance(11, 1, HS, (1 / d**3).idx)
        X = recover_integer(
            g_eval(inst).scale_int(11 * phi(-3 * d)), 11 + 6 * math.isqrt(11) + 6, p=11
        )
        assert count == alpha - 1 + 11 - X

    @pytest.mark.parametrize("p,r,t", [(7, 1, 2), (13, 1, 3), (5, 2, 2)])
    def test_model_independence(self, p, r, t):
        # same series under a different deterministic polynomial/generator pair
        K = default_precision(p, r)
        v0 = g_eval(make_instance(p, r, QT, t, variant=0))
        v1 = g_eval(make_instance(p, r, QT, t, variant=1))
        assert v0.agrees_to(v1, K - r)

    @pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (5, 2)])
    def test_precision_independence(self, p, r):
        # evaluating at K and K+2 then truncating must agree exactly
        K = default_precision(p, r)
        lo = g_eval(make_instance(p, r, QT, 2, K=K))
        hi = g_eval(make_instance(p, r, QT, 2, K=K + 2))
        assert lo.agrees_to(hi, int(min(lo.abs_prec, hi.abs_prec)))

    def test_profile_agrees_with_g_eval(self):
        field = build_field(11, 1)
        K = default_precision(11, 1)
        uctx = uctx_for(field, K)
        prof = profile_for(QT, field, uctx)
        for t_idx in (1, 2, 5):
            t = field.from_index(t_idx)
            a = prof.eval_g(t)
            b = g_eval(GInstance(QT, field, uctx, t))
            assert a.agrees_to(b, K - 1)

    def test_qg_integrality_over_theorem_instances(self):
        # q * G must recover as an integer for every trace-formula instance
        field = build_field(13, 1)
        K = default_precision(13, 1)
        prof = profile_for(QT, field, uctx_for(field, K))
        for ai in range(1, 13):
            for bi in range(1, 13):
                a, b = field.from_index(ai), field.from_index(bi)
                if (4 * a**3 + 27 * b * b).is_zero:
                    continue
                H = prof.eval_qg(-27 * b * b / (4 * a**3))
                recover_integer(H, math.isqrt(4 * 13), p=13)

    def test_profile_rejects_non_integral_qg(self):
        # stacking the half/sixth family twice pushes term valuations below -r
        params = GParams(4, HS.a + HS.a, HS.b + HS.b)
        field = build_field(11, 1)
        prof = profile_for(params, field, uctx_for(field, 5))
        with pytest.raises(PrecisionExhausted):
            prof.eval_qg(field.element(2))

    def test_g_eval_handles_deep_terms_with_guard(self):
        params = GParams(4, HS.a + HS.a, HS.b + HS.b)
        field = build_field(11, 1)
        inst = GInstance(params, field, uctx_for(field, 5), field.element(2))
        val = g_eval(inst)
        assert val.abs_prec >= 5 - 2  # vmin = -2 for the stacked family


class TestTwistTable:
    """The Teichmueller power table and the gathers that read it, against
    per-point lifts.  The 11^9 cases reuse the gamma table the deep-guard
    test above builds (same p, K and denominator 30)."""

    @pytest.mark.parametrize("p,r,K", [(7, 1, 4), (5, 2, 3), (3, 3, 4), (13, 1, 9), (5, 2, 14)])
    def test_table_is_teichmueller_of_generator_powers(self, p, r, K):
        # (13, 1, 9) and (5, 2, 14) have p^K >= 2^31: the Python-int array
        field = build_field(p, r)
        table = teichmueller_powers(field, uctx_for(field, K))
        g = field.generator
        for s in range(field.q - 1):
            want = teichmueller(g**s, table.uctx).coeffs
            assert table.powers[s].coeffs == want
            assert tuple(int(c) for c in table.array[s]) == want

    def test_table_rejects_foreign_context(self):
        f0, f1 = build_field(5, 2, variant=0), build_field(5, 2, variant=1)
        assert f0.poly != f1.poly
        with pytest.raises(ValueError):
            teichmueller_powers(f0, uctx_for(f1, 3))
        with pytest.raises(ValueError):
            teichmueller_powers(build_field(7, 1), uctx_for(build_field(5, 1), 3))

    # 11^9 >= 2^31 takes the Python-int gather; the others the int64 one
    @pytest.mark.parametrize("p,r,params,K", [(5, 1, QT, 5), (7, 2, QT, 6), (5, 3, QT, 8), (11, 1, HS, 9)])
    def test_eval_qg_matches_per_point_loop(self, p, r, params, K):
        field = build_field(p, r)
        prof = profile_for(params, field, uctx_for(field, K))
        for t in field.units():
            assert prof.eval_qg(t) == oracle_qg(prof, t)

    @pytest.mark.parametrize("p,r,params,K", [(7, 1, QT, 5), (5, 2, QT, 6), (11, 1, HS2, 9)])
    def test_g_term_matches_lifted_power(self, p, r, params, K):
        field = build_field(p, r)
        for t in (field.from_index(2), field.generator, -field.one):
            inst = GInstance(params, field, uctx_for(field, K), t)
            prof = profile_for(params, field, inst.uctx)
            for j in range(field.q - 1):
                assert g_term(inst, j).unit == oracle_term_unit(prof, t, j)


class TestRecoverInteger:
    def setup_method(self):
        self.u = uctx_for(build_field(7, 1), 5)

    def test_small_negative(self):
        assert recover_integer(PadicNumber.from_int(-3, self.u), 10) == -3

    def test_symmetric_lift(self):
        x = PadicNumber(0, self.u.from_int(7**5 - 1), 5)
        assert recover_integer(x, 1) == -1

    def test_zero(self):
        assert recover_integer(PadicNumber.zero(), 5) == 0

    def test_zero_to_finite_precision_needs_p(self):
        with pytest.raises(ValueError):
            recover_integer(PadicNumber.zero(3), 5)
        assert recover_integer(PadicNumber.zero(3), 5, p=7) == 0
        with pytest.raises(BoundTooLargeForPrecision):
            recover_integer(PadicNumber.zero(3), 7**3, p=7)

    def test_negative_valuation_rejected(self):
        x = PadicNumber(-1, self.u.from_int(3), 4)
        with pytest.raises(NotAnInteger):
            recover_integer(x, 10)

    def test_nonconstant_coordinates_rejected(self):
        u2 = uctx_for(build_field(5, 2), 5)
        x = PadicNumber(0, u2.element((2, 1)), 5)
        with pytest.raises(NotAnInteger):
            recover_integer(x, 10)

    def test_bound_too_large(self):
        x = PadicNumber(0, self.u.from_int(3), 2)
        with pytest.raises(BoundTooLargeForPrecision):
            recover_integer(x, 7**3)

    def test_no_representative(self):
        x = PadicNumber(0, self.u.from_int(1000), 5)
        with pytest.raises(NoRepresentativeInBound):
            recover_integer(x, 10)
