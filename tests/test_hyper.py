import gc
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padichyper import hyper
from padichyper.curves import HessianCurve, WeierstrassCurve, count_hessian, count_weierstrass, hessian_kernel
from padichyper.errors import (
    BoundTooLargeForPrecision,
    DenominatorDivisibleByP,
    NoRepresentativeInBound,
    NotAnInteger,
    PrecisionExhausted,
    ZeroArgument,
)
from padichyper.fields import (
    DEFAULT_MAX_Q,
    FqField,
    build_field,
    cyclic_correlation,
    fft_bound,
    field_cubes,
    field_for,
    phi,
    poly_mul_rows,
    residue_dtype,
    row_chunks,
    teichmueller_powers,
    uctx_for,
)
from padichyper.gamma import digit_blocks, gamma_cache
from padichyper.gauss import gauss_sum, gauss_tables
from padichyper.hyper import (
    GATHER_ELEMENTS,
    GInstance,
    GParams,
    GProfile,
    digit_correlation,
    digit_width,
    g_eval,
    g_term,
    gparams,
    profile_for,
    recover_integer,
    term_exponents,
)
from padichyper.padic import (
    PadicNumber,
    default_precision,
    is_prime,
    padic_sum,
    renormalize,
    teichmueller,
    unramified_context,
    zq_inv,
    zq_pow,
)
from padichyper.verify import (
    PARAMS_HALF_QUARTER,
    PARAMS_HALF_SIXTH,
    PARAMS_HALF_THIRD,
    PARAMS_QUARTER_THIRD,
    _alpha,
)

from padic_oracle import agrees_to, char_eval_padic, frac_floor, from_rational, recover_integer_scalar, zq_add

QT = GParams(2, (Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 3), Fraction(2, 3)))
HS = GParams(2, (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 6), Fraction(5, 6)))
HS2 = GParams(4, HS.a + HS.a, HS.b + HS.b)  # term valuations reach -2: g_eval needs guard digits
H3 = gparams("1/2,1/2,1/2;1,1,1")  # negative term valuations as well


def oracle_normal_form(z, offset, abs_prec):
    """p^offset * z, known to O(p^abs_prec) with abs_prec - offset = K, in
    valuation/unit form: divide every coordinate by p while all allow it."""
    p = z.context.p
    coeffs, v = list(z.coeffs), offset
    while v < abs_prec and all(c % p == 0 for c in coeffs):
        coeffs, v = [c // p for c in coeffs], v + 1
    if v == abs_prec:
        return PadicNumber.zero(abs_prec)
    return PadicNumber(v, z.context.element(coeffs), abs_prec)


def oracle_qg(prof, t):
    """q*G at t by the plain per-point loop: lift t, invert, then multiply
    the twist up one power of omega-bar(t) per term."""
    ctx = prof.uctx
    p, r, m = ctx.p, ctx.r, ctx.modulus
    wbar = zq_inv(teichmueller(t, ctx))
    w = ctx.one
    acc = ctx.from_int(0)
    for j in range(prof.q - 1):
        acc = zq_add(acc, w.scale(int(prof.units[j]) * p ** (r + int(prof.vals[j]))))
        w = w * wbar
    return oracle_normal_form(acc.scale(-pow(prof.q - 1, -1, m)), 0, ctx.K)


def oracle_g_eval(inst):
    """G at t from every summand: the valuations at K fix the guard, then
    the terms at K + guard are rescaled to the least valuation, added
    coordinate-wise and multiplied by -1/(q-1)."""
    q = inst.field.q
    vals = [g_term(inst, j).valuation for j in range(q - 1)]
    vmin = min(vals)
    work = uctx_for(inst.field, inst.uctx.K + max(vals) - vmin)
    deep = GInstance(inst.params, inst.field, work, inst.t)
    acc = work.from_int(0)
    for j in range(q - 1):
        term = g_term(deep, j)
        acc = zq_add(acc, term.unit.scale(work.p ** (term.valuation - vmin)))
    return oracle_normal_form(acc.scale(-pow(q - 1, -1, work.modulus)), vmin, vmin + work.K)


def oracle_term_exponents(params, p, r):
    """(D, vals, args) of ``term_exponents`` one Fraction at a time: row by
    row, each start <a_i p^k> or <-b_i p^k> plus j times -p^k/(q-1) or
    p^k/(q-1) is split into its floor, which v_j subtracts, and its
    fractional part, kept as a numerator over D."""
    q = p**r
    D = math.lcm(q - 1, *(x.denominator for x in params.a + params.b))
    vals, args = [0] * (q - 1), []
    for i in range(params.n):
        for k in range(r):
            step = Fraction(p**k, q - 1)
            for x, slope in ((params.a[i] * p**k, -step), (-params.b[i] * p**k, step)):
                start, row = x - math.floor(x), []
                for j in range(q - 1):
                    y = start + j * slope
                    vals[j] -= math.floor(y)
                    num = (y - math.floor(y)) * D
                    assert num.denominator == 1
                    row.append(int(num))
                args.append(row)
    return D, vals, args


def oracle_teichmueller_powers(field, uctx):
    """omega(g)^s for s in [0, q-1) by the sequential product the doubling
    build replaced: one lift, then q-2 ring multiplies."""
    g = teichmueller(field.generator, uctx)
    z, rows = uctx.one, []
    for _ in range(field.q - 1):
        rows.append(z.coeffs)
        z = z * g
    return rows


def oracle_zq_power_table(field, uctx):
    """The doubling build of the power table as it stood when omega^n was a
    ZqElement, lifted and squared by ring multiplies."""
    m, n, q1 = uctx.modulus, 1, field.q - 1
    array = np.zeros((q1, uctx.r), dtype=residue_dtype(m))
    array[0, 0] = 1
    wn = zq_pow(uctx.element(field.generator.coeffs), uctx.q ** (uctx.K - 1))
    while n < q1:
        k = min(n, q1 - n)
        array[n : n + k] = poly_mul_rows(array[:k], np.array(wn.coeffs, dtype=array.dtype), uctx.poly, m)
        wn, n = wn * wn, n + k
    return array


def oracle_correlation(a, b, m):
    """c[s][d] = sum over j and i + k = d of a[j][i] b[j + s][k], mod m, in
    Python ints."""
    na, r = len(a), len(a[0])
    out = []
    for s in range(len(b) - na + 1):
        c = [0] * (2 * r - 1)
        for j in range(na):
            for i in range(r):
                for k in range(r):
                    c[i + k] += int(a[j][i]) * int(b[j + s][k])
        out.append([x % m for x in c])
    return out


def oracle_term_unit(prof, t, j):
    return zq_pow(zq_inv(teichmueller(t, prof.uctx)), j).scale(int(prof.units[j]))


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

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="1/0"):
            gparams("1/0;1/2")

    def test_p_divisible_denominator(self):
        bad = GParams(1, (Fraction(1, 7),), (Fraction(1, 3),))
        with pytest.raises(DenominatorDivisibleByP):
            bad.check_padic(7)

    def test_instance_requires_nonzero_t(self):
        field = build_field(7, 1)
        with pytest.raises(ZeroArgument):
            GInstance(QT, field, uctx_for(field, 5), field.zero)

    def test_instance_rejects_a_point_of_another_prime_field(self):
        field = build_field(7, 1)
        with pytest.raises(ValueError, match="element belongs to another field"):
            GInstance(QT, field, uctx_for(field, 5), build_field(13, 1).element(5))

    def test_instance_accepts_a_point_of_the_same_model(self):
        # fields match by model (p, r, variant), as in the profile, not by object
        field, shared = FqField(7, 1), build_field(7, 1)
        uctx = uctx_for(shared, 5)
        inst = GInstance(QT, field, uctx, shared.element(3))
        assert g_eval(inst).digits() == g_eval(GInstance(QT, shared, uctx, shared.element(3))).digits()
        with pytest.raises(ValueError, match="element belongs to another field"):
            GInstance(QT, field, uctx, build_field(13, 1).element(3))

    def test_instance_rejects_a_point_of_another_model(self):
        field = build_field(5, 2)
        t = build_field(5, 2, variant=1).element([1, 1])
        with pytest.raises(ValueError, match="element belongs to another field"):
            GInstance(QT, field, uctx_for(field, 4), t)

    def test_profile_rejects_a_point_of_another_prime_field(self):
        field = build_field(7, 1)
        prof = profile_for(QT, field.model, uctx_for(field, 5))
        t = build_field(13, 1).element(5)
        for read in (prof.eval_qg, lambda t: prof.term(t, 1)):
            with pytest.raises(ValueError, match="element belongs to another field"):
                read(t)

    def test_profile_rejects_a_point_of_another_model(self):
        field = build_field(5, 2)
        prof = profile_for(QT, field.model, uctx_for(field, 4))
        t = build_field(5, 2, variant=1).element([1, 1])
        for read in (prof.eval_qg, lambda t: prof.term(t, 1)):
            with pytest.raises(ValueError, match="element belongs to another field"):
                read(t)

    def test_same_spec_returns_the_same_object(self):
        spec = "1/2,1/2,1/2,1/2;1/6,5/6,1/6,5/6"
        first = gparams(spec)
        assert gparams(spec) is first
        assert first == HS2

    @pytest.mark.parametrize("spec", ["1/0;1/2", "1/2;1/3,2/3", "1/2;x", "1/2", "1/2;1/3;1"])
    def test_bad_spec_raises_on_every_call_and_is_not_stored(self, spec):
        size = gparams.cache_info().currsize
        for _ in range(3):
            with pytest.raises(ValueError):
                gparams(spec)
        assert gparams.cache_info().currsize == size

    def test_ints_strings_and_fractions_build_equal_params(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        from_fractions = GParams(2, (half, Fraction(1)), (third, Fraction(2, 3)))
        from_ints = GParams(2, (Fraction(1, 2), 1), (Fraction(1, 3), Fraction(2, 3)))
        from_strings = GParams(2, ("1/2", "1"), ("1/3", "2/3"))
        mixed = GParams(2, [half, "1"], (third, "4/6"))
        assert from_fractions == from_ints == from_strings == mixed == gparams("1/2,1;1/3,2/3")
        assert len({hash(x) for x in (from_fractions, from_ints, from_strings, mixed)}) == 1
        assert all(type(x) is Fraction for g in (from_ints, from_strings, mixed) for x in g.a + g.b)
        assert isinstance(mixed.a, tuple)
        # a Fraction entry is kept as it is, not rebuilt
        assert from_fractions.a[0] is half and from_fractions.b[0] is third
        assert mixed.a[0] is half and mixed.b[0] is third

    @pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (7, 2), (11, 2), (5, 3), (7, 3)])
    def test_cached_term_range_is_the_valuation_range(self, p, r):
        for params in FAMILIES + _GUARD_FAMILIES:
            D, vals, args, vmin, vmax = term_exponents(params, p, r)
            assert (vmin, vmax) == (int(vals.min()), int(vals.max())), (params, p, r)
            assert type(vmin) is int and type(vmax) is int
            want_D, want_vals, want_args = oracle_term_exponents(params, p, r)
            assert D == want_D and vals.tolist() == want_vals and args.tolist() == want_args, (params, p, r)
            assert not vals.flags.writeable and not args.flags.writeable
        # the guard families have spread valuations, so the range is a real one
        assert all(term_exponents(params, p, r)[3] < term_exponents(params, p, r)[4] for params in _GUARD_FAMILIES)

    def test_equal_spellings_hash_alike_and_share_a_profile(self):
        parsed = gparams("1/2,1/2;1/6,5/6")
        mixed = GParams(2, (Fraction(1, 2), Fraction(2, 4)), ("1/6", Fraction(5, 6)))
        assert parsed == HS == mixed
        assert hash(parsed) == hash(HS) == hash(mixed) == hash((HS.n, HS.a, HS.b))
        assert len({parsed, HS, mixed}) == 1
        assert parsed != QT and hash(parsed) != hash(QT)
        field = build_field(7, 1)
        uctx = uctx_for(field, 5)
        assert profile_for(parsed, field.model, uctx) is profile_for(HS, field.model, uctx) is profile_for(mixed, field.model, uctx)


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

    @pytest.mark.parametrize(
        "p,r,params,K", [(7, 1, QT, 5), (5, 2, HS, 6), (13, 1, H3, 5), (5, 3, QT, 8), (11, 1, HS2, 9)]
    )
    def test_profile_matches_fraction_loop(self, p, r, params, K):
        # every v_j and unit c_j against a per-j loop over Fraction floors and
        # single gamma calls; 11^9 >= 2^31 takes the Python-int product
        field = build_field(p, r)
        prof = profile_for(params, field.model, uctx_for(field, K))
        cache = gamma_cache(p, K)
        q, m = field.q, p**K
        for j in range(q - 1):
            num = den = 1
            e_tot = 0
            for a_i, b_i in zip(params.a, params.b):
                for k in range(r):
                    s = Fraction(j * p**k, q - 1)
                    fa, fb = frac_floor(a_i * p**k)[0], frac_floor(-b_i * p**k)[0]
                    e_tot -= frac_floor(fa - s)[1] + frac_floor(fb + s)[1]
                    num = num * cache.gamma(frac_floor(fa - s)[0]) * cache.gamma(frac_floor(fb + s)[0]) % m
                    den = den * cache.gamma(fa) * cache.gamma(fb) % m
            unit = num * pow(den, -1, m) % m
            if (j * params.n + e_tot) % 2:
                unit = -unit % m
            assert (prof.vals[j], prof.units[j]) == (e_tot, unit), j

    def test_exponent_bounds_r1(self):
        vals = term_exponents(QT, 7, 1)[1]
        assert all(-QT.n <= v <= 2 * QT.n for v in vals)

    def test_exponent_bounds_r2(self):
        p, r = 5, 2
        geo = (p**r - 1) // (p - 1)
        vals = term_exponents(HS, p, r)[1]
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
        tr = count_weierstrass(WeierstrassCurve(a, b)).trace
        inst = make_instance(7, 1, QT, (-27 * b * b / (4 * a**3)).idx)
        val = g_eval(inst).scale_int(7 * phi(b))
        assert recover_integer(val, math.isqrt(4 * 7), p=7) == tr

    def test_hessian_oracle_p11(self):
        # the [1/2,1/2;1/6,5/6] value at 1/d^3 is pinned by the affine count
        field = build_field(11, 1)
        d = field.element(2)
        count = count_hessian(HessianCurve(d))
        alpha = _alpha(field)
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
        assert agrees_to(v0, v1, K - r)

    @pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (5, 2)])
    def test_precision_independence(self, p, r):
        # evaluating at K and K+2 then truncating must agree exactly; HS2
        # takes the guard-digit path
        K = default_precision(p, r)
        for params in (QT, HS2):
            lo = g_eval(make_instance(p, r, params, 2, K=K))
            hi = g_eval(make_instance(p, r, params, 2, K=K + 2))
            assert agrees_to(lo, hi, int(min(lo.abs_prec, hi.abs_prec)))

    def test_profile_agrees_with_g_eval(self):
        field = build_field(11, 1)
        K = default_precision(11, 1)
        uctx = uctx_for(field, K)
        prof = profile_for(QT, field.model, uctx)
        for t_idx in (1, 2, 5):
            t = field.from_index(t_idx)
            a = prof.eval_qg(t)
            b = g_eval(GInstance(QT, field, uctx, t)).scale_int(field.q)
            assert agrees_to(a, b, K)

    def test_qg_integrality_over_theorem_instances(self):
        # q * G must recover as an integer for every trace-formula instance
        field = build_field(13, 1)
        K = default_precision(13, 1)
        prof = profile_for(QT, field.model, uctx_for(field, K))
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
        prof = profile_for(params, field.model, uctx_for(field, 5))
        with pytest.raises(PrecisionExhausted):
            prof.eval_qg(field.element(2))

    @pytest.mark.parametrize("p,r", [(11, 1), (13, 1), (5, 2)])
    @pytest.mark.parametrize("params", [QT, H3, HS2], ids=["trace", "guard3", "guard4"])
    def test_g_eval_matches_term_sum(self, p, r, params):
        # the dot product at K + guard against the summed PadicNumber terms
        field = build_field(p, r)
        K = default_precision(p, r)
        for t in map(field.from_index, range(1, field.q)):
            inst = GInstance(params, field, uctx_for(field, K), t)
            got, want = g_eval(inst), oracle_g_eval(inst)
            assert (got.digits(), got.valuation, got.abs_prec) == (want.digits(), want.valuation, want.abs_prec)

    def test_g_eval_keeps_the_instance_lift(self):
        # u1 lifts F_25's polynomial differently; the guard digits must be
        # taken in u1's coordinates, not in the canonical lift's
        field, K = build_field(5, 2), 6
        u1 = unramified_context(5, K, 2, tuple(c + 5 for c in uctx_for(field, K).poly))
        params = gparams("1/3;1/2")
        for t in map(field.from_index, range(1, field.q)):
            inst = GInstance(params, field, u1, t)
            vals = [g_term(inst, j).valuation for j in range(field.q - 1)]
            vmin = min(vals)
            assert max(vals) > vmin
            work = unramified_context(5, K + max(vals) - vmin, 2, u1.poly)
            deep = GInstance(params, field, work, t)
            acc = work.from_int(0)
            for j in range(field.q - 1):
                term = g_term(deep, j)
                acc = zq_add(acc, term.unit.scale(5 ** (term.valuation - vmin)))
            want = oracle_normal_form(acc.scale(-pow(field.q - 1, -1, work.modulus)), vmin, vmin + work.K)
            got = g_eval(inst)
            assert got.exact_zero or got.unit.context == work
            assert (got.digits(), got.valuation, got.abs_prec) == (want.digits(), want.valuation, want.abs_prec), t

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
        uctx = uctx_for(field, K)
        table = teichmueller_powers(field.model, uctx)
        assert table.shape == (field.q - 1, r) and table.dtype == residue_dtype(uctx.modulus)
        g = field.generator
        for s in range(field.q - 1):
            want = teichmueller(g**s, uctx).coeffs
            assert uctx.element(table[s].tolist()).coeffs == want
            assert tuple(int(c) for c in table[s]) == want

    @pytest.mark.parametrize("p,r,K", [(7, 1, 4), (5, 2, 3), (3, 3, 4), (13, 1, 9), (5, 2, 14), (11, 2, 6)])
    def test_table_matches_the_zq_chain_build(self, p, r, K):
        # the field's own lift, and one whose coefficients differ from it mod p^K
        field = build_field(p, r)
        own = uctx_for(field, K)
        for uctx in (own, unramified_context(p, K, r, tuple(c + p for c in own.poly))):
            table = teichmueller_powers(field.model, uctx)
            want = oracle_zq_power_table(field, uctx)
            assert table.dtype == want.dtype and np.array_equal(table, want), uctx.poly

    def test_table_rejects_foreign_context(self):
        f0, f1 = build_field(5, 2, variant=0), build_field(5, 2, variant=1)
        assert f0.poly != f1.poly
        with pytest.raises(ValueError):
            teichmueller_powers(f0.model, uctx_for(f1, 3))
        with pytest.raises(ValueError):
            teichmueller_powers(build_field(7, 1).model, uctx_for(build_field(5, 1), 3))

    def test_profile_is_keyed_by_the_lift(self):
        # u1 lifts F_25's polynomial differently, so its coordinates differ
        field, K = build_field(5, 2), 6
        u0 = uctx_for(field, K)
        u1 = unramified_context(5, K, 2, tuple(c + 5 for c in u0.poly))
        assert u1 != u0 and u1.poly_mod_p == u0.poly_mod_p
        t = field.element([1, 2])
        assert profile_for(HS, field.model, u0).eval_qg(t).unit.context == u0
        got, fresh = profile_for(HS, field.model, u1).eval_qg(t), GProfile(HS, field.model, u1).eval_qg(t)
        assert got.unit.context == u1
        assert (got.digits(), got.valuation, got.abs_prec) == (fresh.digits(), fresh.valuation, fresh.abs_prec)
        assert padic_sum([got, fresh]).unit.context == u1

    # 11^9 >= 2^31 takes the Python-int gather; the others the int64 one
    @pytest.mark.parametrize("p,r,params,K", [(5, 1, QT, 5), (7, 2, QT, 6), (5, 3, QT, 8), (11, 1, HS, 9)])
    def test_eval_qg_matches_per_point_loop(self, p, r, params, K):
        field = build_field(p, r)
        prof = profile_for(params, field.model, uctx_for(field, K))
        for t in map(field.from_index, range(1, field.q)):
            assert prof.eval_qg(t) == oracle_qg(prof, t)

    @pytest.mark.parametrize("p,r,params,K", [(7, 1, QT, 5), (5, 2, QT, 6), (11, 1, HS2, 9)])
    def test_g_term_matches_lifted_power(self, p, r, params, K):
        field = build_field(p, r)
        for t in (field.from_index(2), field.generator, -field.one):
            inst = GInstance(params, field, uctx_for(field, K), t)
            prof = profile_for(params, field.model, inst.uctx)
            for j in range(field.q - 1):
                assert g_term(inst, j).unit == oracle_term_unit(prof, t, j)


    # the last six sit on both sides of the int64 edge: 3^19 < 2^31 <= 3^20, 7^11 < 2^31 <= 7^12
    @pytest.mark.parametrize("p,r,K", [(7, 1, 4), (5, 2, 3), (3, 3, 4), (13, 1, 9), (5, 2, 14), (101, 1, 5),
                                       (3, 4, 1), (3, 4, 11), (3, 4, 19), (3, 4, 20), (7, 2, 11), (7, 2, 12)])
    def test_doubling_matches_the_sequential_product(self, p, r, K):
        field = build_field(p, r)
        uctx = uctx_for(field, K)
        table = teichmueller_powers(field.model, uctx)
        assert table.dtype == residue_dtype(p**K)
        assert [tuple(int(c) for c in row) for row in table] == oracle_teichmueller_powers(field, uctx)


FAMILIES = [PARAMS_QUARTER_THIRD, PARAMS_HALF_SIXTH, PARAMS_HALF_THIRD, PARAMS_HALF_QUARTER]


class TestWholeFieldTable:
    """``GProfile.qg_table``, the chirp transform of every t at once, against
    the batched point sum ``GProfile._sum`` for the four families of the
    identity suite."""

    @staticmethod
    def assert_rows_match(params, field, uctx, dlogs):
        prof = profile_for(params, field.model, uctx)
        table = prof.qg_table
        assert table.shape == (field.q - 1, field.r) and not table.flags.writeable
        sums = prof._sum(np.array(dlogs, dtype=np.int64), uctx.r)
        for s, row in zip(dlogs, sums):
            got = renormalize(table[s].tolist(), uctx, 0, uctx.K)
            want = renormalize(row.tolist(), uctx, 0, uctx.K)
            assert (got.digits(), got.valuation, got.abs_prec) == (want.digits(), want.valuation, want.abs_prec)

    # r = 1, 2 and 3 at the default K; (5, 2, 14) and (7, 3, 12) have
    # p^K >= 2^31, the Python-int path, and 13^18 > 2^64 two-word residues
    @pytest.mark.parametrize(
        "p,r,K",
        [(5, 1, None), (7, 1, None), (11, 1, None), (13, 1, None), (5, 2, None), (7, 2, None),
         (11, 2, None), (5, 3, None), (7, 3, None), (5, 2, 14), (7, 3, 12), (13, 1, 18)],
    )
    @pytest.mark.parametrize("params", FAMILIES, ids=["qt", "hs", "ht", "hq"])
    def test_every_t_matches_the_point_sum(self, p, r, K, params):
        field = build_field(p, r)
        uctx = uctx_for(field, K or default_precision(p, r))
        self.assert_rows_match(params, field, uctx, range(field.q - 1))

    @pytest.mark.parametrize("params", FAMILIES, ids=["qt", "hs", "ht", "hq"])
    def test_multiword_slots_at_q_1009(self, params):
        # p^K = 1009^5 is near 2^50: Python-int residues of several digits
        field = build_field(1009, 1)
        uctx = uctx_for(field, default_precision(1009, 1))
        assert residue_dtype(uctx.modulus) is object and uctx.modulus.bit_length() > 2 * digit_width(1008, 2025)
        self.assert_rows_match(params, field, uctx, range(0, 1008, 21))

    def test_keyed_by_the_lift(self):
        field, K = build_field(5, 2), 6
        u0 = uctx_for(field, K)
        u1 = unramified_context(5, K, 2, tuple(c + 5 for c in u0.poly))
        assert profile_for(HS, field.model, u0).qg_table is not profile_for(HS, field.model, u1).qg_table
        self.assert_rows_match(HS, field, u1, range(field.q - 1))

    def test_a_profile_builds_its_table_once(self, qg_tables):
        reads, builds = qg_tables
        field = build_field(7, 2)
        prof = GProfile(QT, field.model, uctx_for(field, 5))
        table = prof.qg_table
        assert all(prof.qg_table is table for _ in range(3))
        assert reads[QT, field.model] == 4 and builds[QT, field.model] == 1

    def test_a_rebuilt_profile_builds_a_new_equal_table(self, qg_tables):
        # the table lives and dies with its profile
        _, builds = qg_tables
        field = build_field(7, 2)
        uctx = uctx_for(field, 5)
        profile_for.cache_clear()
        prof = profile_for(QT, field.model, uctx)
        table = prof.qg_table
        profile_for.cache_clear()
        rebuilt = profile_for(QT, field.model, uctx)
        assert rebuilt is not prof and rebuilt.qg_table is not table
        assert np.array_equal(rebuilt.qg_table, table) and builds[QT, field.model] == 2
        ref = weakref.ref(table)
        del prof, table
        gc.collect()
        assert ref() is None

    def test_rejects_non_integral_qg(self):
        field = build_field(11, 1)
        prof = profile_for(HS2, field.model, uctx_for(field, 5))
        for _ in range(2):  # a failed build stores nothing, so it fails again
            with pytest.raises(PrecisionExhausted):
                prof.qg_table

    # (m, r, len(a)): int64 residues of one digit and of several, Python-int
    # residues below 2^64 and above it
    @pytest.mark.parametrize(
        "m,r,na",
        [(11**5, 1, 10), (5**8, 3, 124), (7**11, 1, 48), (7**11, 2, 48), (1009**5, 1, 1008), (9973**5, 1, 30)],
    )
    def test_slots_hold_the_largest_sums(self, m, r, na):
        # every residue m - 1, the largest, through every digit weight
        nb = 2 * na - 1
        dtype = np.int64 if m < 2**31 else object
        a = np.full((na, r), m - 1, dtype=dtype)
        b = np.full((nb, r), m - 1, dtype=dtype)
        got = digit_correlation(a, b, m)
        per_d = [na * (min(d, 2 * r - 2 - d) + 1) * (m - 1) ** 2 % m for d in range(2 * r - 1)]
        assert got.shape == (na, 2 * r - 1) and got.dtype == dtype
        assert got.tolist() == [per_d] * na
        # and seeded residues, position by position
        rng = random.Random(m)
        na = min(na, 12)
        a = np.array([[rng.randrange(m) for _ in range(r)] for _ in range(na)], dtype=dtype)
        b = np.array([[rng.randrange(m) for _ in range(r)] for _ in range(2 * na + 3)], dtype=dtype)
        assert digit_correlation(a, b, m).tolist() == oracle_correlation(a, b, m)

    # (len(a), digits): k = 15 bits in one digit, k = 13 in two (m = 2^26,
    # int64 residues) and k = 15 in five (m = 2^75, Python ints); 2 len(a) - 1
    # is 5-smooth, so the correlation's length is that of ``b``
    @pytest.mark.parametrize("na,digits", [(41, 1), (313, 2), (63, 5)], ids=["one", "several", "pyint"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_every_digit_at_the_bound_s_worst_case(self, na, digits, r):
        # m = 2^(k D), so every residue m - 1 is D digits 2^k - 1: all-ones
        # planes, the largest norms the width allows
        nb = 2 * na - 1
        assert pow(30, nb.bit_length(), nb) == 0
        m = 2 ** (digit_width(na, nb) * digits)
        dtype = residue_dtype(m)
        a = np.full((na, r), m - 1, dtype=dtype)
        b = np.full((nb, r), m - 1, dtype=dtype)
        per_d = [na * (min(d, 2 * r - 2 - d) + 1) * (m - 1) ** 2 % m for d in range(2 * r - 1)]
        assert digit_correlation(a, b, m).tolist() == [per_d] * na
        rng = random.Random(na * r)
        a = np.array([[rng.randrange(m) for _ in range(r)] for _ in range(12)], dtype=dtype)
        b = np.array([[rng.randrange(m) for _ in range(r)] for _ in range(27)], dtype=dtype)
        assert digit_correlation(a, b, m).tolist() == oracle_correlation(a, b, m)

    def test_every_admissible_field_s_width_passes_the_bound(self):
        # for every q = p^r <= 100,000 (odd p, so r <= 10), the table's
        # correlation of q - 1 against 2q - 3 rows, padded to the next
        # 5-smooth length n: all-ones planes of k = digit_width bits pass
        # the FFT bound and of k + 1 bits do not
        def smooth(n):
            for f in (2, 3, 5):
                while n % f == 0:
                    n //= f
            return n == 1

        qs = [p**r for p in range(3, DEFAULT_MAX_Q + 1, 2) if is_prime(p) for r in range(1, 11) if p**r <= DEFAULT_MAX_Q]
        assert len(qs) == 9684 and max(r for r in range(1, 11) if 3**r <= DEFAULT_MAX_Q) == 10
        for q in qs:
            na, n = q - 1, 2 * q - 3
            while not smooth(n):
                n += 1
            k = digit_width(na, n)
            ones, wider = 2**k - 1, 2 ** (k + 1) - 1
            assert fft_bound(n, math.sqrt(na * ones**2) * math.sqrt(n * ones**2)) < 0.25, q
            assert not fft_bound(n, math.sqrt(na * wider**2) * math.sqrt(n * wider**2)) < 0.25, q
            assert k >= 6, q
        # and at the largest, q = 99,991, one correlation of all-ones planes
        # runs exactly: its norms are the exact ones the bound above took
        assert q == max(qs) == 99991 and (n, k) == (200000, 6)
        got = cyclic_correlation(np.full(na, ones), np.full(n, ones), n)
        assert (got == na * ones**2).all()


class TestRecoverInteger:
    def setup_method(self):
        self.u = uctx_for(build_field(7, 1), 5)

    def test_small_negative(self):
        assert recover_integer(from_rational(-3, self.u), 10) == -3

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

    @pytest.mark.parametrize("p, r, K", [(7, 1, 5), (5, 2, 4), (89, 1, 5)])
    def test_matches_the_scalar_lift(self, p, r, K):
        # valuations 0..3 and every precision from valuation + 1 past
        # valuation + K, so the lift works mod p^A for A < K too
        u, rng = uctx_for(build_field(p, r), K), random.Random(f"{p}:{r}:{K}")
        values = [PadicNumber.zero(A) for A in range(4)]
        for _ in range(200):
            v = rng.randrange(4)
            unit = [rng.randrange(1, p) + p * rng.randrange(p ** (K - 1))] + [
                rng.choice([0, 0, rng.randrange(u.modulus)]) for _ in range(r - 1)]
            A = rng.choice([math.inf, *range(v + 1, v + K + 2)])
            values.append(PadicNumber(v, u.element(unit), A))
        for x in values:
            for bound in (0, 1, 10, p**2, p**K // 2, rng.randrange(p**K)):
                outcomes = []
                for lift in (recover_integer, recover_integer_scalar):
                    try:
                        outcomes.append(lift(x, bound, p=p))
                    except (BoundTooLargeForPrecision, NotAnInteger, NoRepresentativeInBound) as exc:
                        outcomes.append(type(exc))
                assert outcomes[0] == outcomes[1], (x, bound)


class TestCacheEviction:
    def test_clearing_every_builder_strands_nothing(self):
        # each cache is bounded, so any of them may drop an entry mid-sweep
        def read(v):
            return v.digits(), v.valuation, v.abs_prec

        field = build_field(7, 2)
        t, s = field.element([2, 3]), field.element([1, 1])
        inst = GInstance(HS2, field, uctx_for(field, 5), t)
        g_before, qg_before = read(g_eval(inst)), read(profile_for(QT, field.model, inst.uctx).eval_qg(t))
        for cached in (field_for, profile_for, teichmueller_powers, field_cubes, hessian_kernel, gauss_tables, gamma_cache,
                       digit_blocks):
            cached.cache_clear()
        rebuilt = build_field(7, 2)
        assert rebuilt is not field and rebuilt == field
        u = rebuilt.element([1, 1])
        assert u == s and t + u == t + s and rebuilt.element(t) is t
        assert read(g_eval(inst)) == g_before
        assert read(g_eval(GInstance(HS2, rebuilt, uctx_for(rebuilt, 5), t))) == g_before
        assert read(profile_for(QT, rebuilt.model, uctx_for(rebuilt, 5)).eval_qg(t)) == qg_before

    def test_only_the_field_cache_holds_a_field(self):
        # the per-field tables are cached by model, so a field field_for
        # drops is freed and is not kept twice when it is built again
        field = build_field(13, 2)
        t = field.element([2, 3])
        uctx = uctx_for(field, 4)
        g_eval(GInstance(HS2, field, uctx, t))
        profile_for(QT, field.model, uctx).eval_qg(t)
        char_eval_padic(1, t, uctx)
        gauss_sum(1, field)
        count_weierstrass(WeierstrassCurve(field.element(1), field.element(1)))
        count_hessian(HessianCurve(field.element(2)))
        ref = weakref.ref(field)
        del field, t
        field_for.cache_clear()
        gc.collect()
        assert ref() is None


class TestSharedTablesAreReadOnly:
    """Every array that an lru_cache shares refuses an in-place write: one
    caller's write would otherwise change every later record that reads it."""

    @pytest.mark.parametrize("p,r", [(13, 1), (5, 2), (89, 1)])
    def test_writes_raise(self, p, r):
        field = build_field(p, r)
        uctx = uctx_for(field, default_precision(p, r))
        prof = profile_for(QT, field.model, uctx)
        gauss = gauss_tables(field.model)
        tables = {
            "exp_np": field.exp_np,
            "dlog_np": field.dlog_np,
            "phi_np": field.phi_np,
            "teichmueller": teichmueller_powers(field.model, uctx),
            "zeta_q1": gauss.zeta_q1,
            "zeta_p": gauss.zeta_p,
            "trace": gauss.trace,
            "G": gauss.G,
            "rational_table": gamma_cache(p, uctx.K).rational_table(term_exponents(QT, p, r)[0]),
            "digit_blocks": digit_blocks(p, uctx.K)[0],
            "vals": term_exponents(QT, p, r)[1],
            "args": term_exponents(QT, p, r)[2],
            "qg_table": prof.qg_table,
            "units": prof.units,
            "column": prof.column,
            "xs": field_cubes(field.model)[0],
            "cubes": field_cubes(field.model)[1],
            "at_shift": hessian_kernel(field.model).at_shift,
        }
        if r > 1:
            tables["zech_np"] = field.zech_np
        for name, table in tables.items():
            before = table.copy()
            with pytest.raises(ValueError, match="read-only"):
                table[1] = table[0]
            assert np.array_equal(table, before), name


class TestBatchedSum:
    """``GProfile._sum`` over arrays of points, the one point sum, against
    the per-point loop ``oracle_qg`` and against ``GProfile.qg_table`` at
    every t."""

    # r = 1, 2 and 3 up to q = 343 at the default K; F_25 at K = 14 and
    # F_89 at K = 5 have p^K >= 2^31, the Python-int residues
    @pytest.mark.parametrize(
        "p,r,K", [(5, 1, None), (7, 1, None), (13, 1, None), (5, 2, None), (7, 2, None), (5, 3, None),
                  (7, 3, None), (5, 2, 14), (89, 1, 5)],
    )
    @pytest.mark.parametrize("params", FAMILIES, ids=["qt", "hs", "ht", "hq"])
    def test_rows_match_the_table_and_the_loop(self, p, r, K, params):
        field = build_field(p, r)
        uctx = uctx_for(field, K or default_precision(p, r))
        prof = profile_for(params, field.model, uctx)
        dlogs = np.arange(field.q - 1)
        rows = prof.qg_rows(dlogs)
        assert rows.shape == (field.q - 1, r) and rows.dtype == prof.qg_table.dtype
        assert np.array_equal(rows, prof.qg_table)
        for s in random.Random(f"{p}:{r}:{K}").sample(range(field.q - 1), min(field.q - 1, 6)):
            got = renormalize(rows[s].tolist(), uctx, 0, uctx.K)
            assert got == oracle_qg(prof, field.from_index(int(field.exp_np[s])))

    # 1,100 points at q = 1,009 take two int64 chunks of 2^20 // 1,008 =
    # 1,040; at K = 5 the Python-int chunks are an eighth as long: 300
    # points take three of 130
    @pytest.mark.parametrize("K, n", [(3, 1100), (5, 300)])
    def test_a_row_longer_than_one_chunk(self, monkeypatch, K, n):
        field = build_field(1009, 1)
        uctx = uctx_for(field, K)
        budget = GATHER_ELEMENTS // (8 if uctx.modulus >= 2**31 else 1)
        assert budget // 1008 < n
        budgets = []

        def spy(n, width, cap, chunk):
            budgets.append(cap)
            return row_chunks(n, width, cap, chunk)

        monkeypatch.setattr(hyper, "row_chunks", spy)
        dlogs = np.random.default_rng(K).integers(0, 1008, n)  # repeated points, in no order
        for params in FAMILIES if K == 3 else FAMILIES[:1]:
            prof = profile_for(params, field.model, uctx)
            assert np.array_equal(prof.qg_rows(dlogs), prof.qg_table[dlogs])
        assert set(budgets) == {budget}

    def test_an_empty_row(self):
        field = build_field(7, 2)
        for K in (5, 14):
            uctx = uctx_for(field, K)
            rows = profile_for(QT, field.model, uctx).qg_rows(np.zeros(0, dtype=np.int64))
            assert rows.shape == (0, 2) and rows.dtype == residue_dtype(uctx.modulus)


# the fields with q <= 343, as (p, r)
_SMALL_FIELDS = [(p, r) for r in (1, 2, 3) for p in range(5, 344) if is_prime(p) and p**r <= 343]
_GUARD_FAMILIES = [gparams("1/2,1/2,1/2;1,1,1"), gparams("1/2,1/2,1/2,1/2;1/6,5/6,1/6,5/6")]


@settings(max_examples=40, deadline=None)
@given(
    field_pr=st.sampled_from(_SMALL_FIELDS),
    family=st.sampled_from(FAMILIES + _GUARD_FAMILIES),
    t_seed=st.integers(0, 2**32),
)
def test_values_at_K_and_K_plus_3_agree_to_K_digits(field_pr, family, t_seed):
    # the four families of the identity suite and the benchmark's two guard
    # families, whose terms have negative valuations and need g_eval
    p, r = field_pr
    field = build_field(p, r)
    K = default_precision(p, r)
    t = field.from_index(random.Random(t_seed).randrange(1, field.q))
    lo, hi = (GInstance(family, field, uctx_for(field, k), t) for k in (K, K + 3))
    assert agrees_to(g_eval(lo), g_eval(hi), K)
    if family in FAMILIES:
        a, b = (profile_for(family, field.model, inst.uctx).eval_qg(t) for inst in (lo, hi))
        assert agrees_to(a, b, K)
