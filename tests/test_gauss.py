import cmath
import gc
import math
import random
import weakref

import numpy as np
import pytest

from padichyper.errors import ModulusMismatch, TrivialCharacter, ZeroArgument
from padichyper.fields import FqElement, FqField, build_field, trace
from padichyper.gauss import ComplexVal, default_tolerance, gauss_sum, gauss_tables
from padichyper.padic import is_prime
from padichyper import verify
from padichyper.verify import (
    RangeSpec,
    run_suite,
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
    tr = np.array([trace(f.from_index(int(f.exp_np[k]))) for k in range(q1)])
    return np.exp(2j * np.pi * (np.outer(s, s) % q1 / q1 + tr / f.p)).sum(axis=1)


# The scalar sides the rows in ``verify`` replaced, kept verbatim as oracles:
# one Gauss-sum product, expansion or Davenport-Hasse relation at a time.


def _char_value(e: int, x: FqElement) -> ComplexVal:
    """T^e(x) for nonzero x, as an exact table root of unity."""
    tab = gauss_tables(x.field.model)
    return complex(tab.zeta_q1[e * x.dlog() % (x.field.q - 1)])


def gk_product_sides(k: int, field: FqField) -> tuple[ComplexVal, ComplexVal]:
    """(G_k G_{-k}, q T^k(-1)) for a nontrivial character index k."""
    q1 = field.q - 1
    e = k % q1
    if e == 0:
        raise TrivialCharacter("k must be nonzero mod q-1")
    tab = gauss_tables(field.model)
    lhs = complex(tab.G[e] * tab.G[(-e) % q1])
    # T^k(-1) = zeta^{k (q-1)/2} = (-1)^k exactly
    rhs = complex(field.q * (-1 if e % 2 else 1))
    return lhs, rhs


def theta_expansion_sides(alpha: FqElement, field: FqField) -> tuple[ComplexVal, ComplexVal]:
    """(theta(alpha), its expansion (1/(q-1)) sum_m G_{-m} T^m(alpha))."""
    if alpha.is_zero:
        raise ZeroArgument("alpha must be nonzero")
    tab = gauss_tables(field.model)
    q1 = field.q - 1
    lhs = complex(tab.zeta_p[trace(alpha)])
    s = alpha.dlog()
    ms = np.arange(q1)
    rhs = complex(np.sum(tab.G[(-ms) % q1] * tab.zeta_q1[(ms * s) % q1]) / q1)
    return lhs, rhs


def davenport_hasse_sides(m: int, psi: int, field: FqField) -> tuple[ComplexVal, ComplexVal]:
    """(product of G over the m-torsion characters twisted by psi,
    -G(psi^m) psi(m^-m) times the untwisted product): Davenport-Hasse."""
    q1 = field.q - 1
    if m <= 0 or q1 % m != 0:
        raise ModulusMismatch(f"q = {field.q} is not 1 mod {m}")
    e = psi % q1
    tab = gauss_tables(field.model)
    step = q1 // m
    lhs = 1 + 0j
    base = 1 + 0j
    for k in range(m):
        lhs *= tab.G[(k * step + e) % q1]
        base *= tab.G[k * step]
    m_elt = field.element(m) ** (-m)
    rhs = -tab.G[(m * e) % q1] * _char_value(e, m_elt) * base
    if not (cmath.isfinite(lhs) and cmath.isfinite(rhs)):
        raise ArithmeticError("non-finite product")
    return complex(lhs), complex(rhs)


def _cplx(z: complex) -> str:
    return f"{z.real:.12e}{z.imag:+.12e}j"


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
                cmath.exp(2j * cmath.pi * (m * s / q1 + trace(f.from_index(int(f.exp_np[s]))) / f.p))
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
        for k in (0, 6, -12):
            with pytest.raises(TrivialCharacter):
                verify_gauss_gk_record(7, 1, k)


class TestThetaExpansion:
    def test_alpha_one(self):
        assert verify_gauss_theta_record(7, 1, build_field(7, 1).one.idx).passed

    @pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (5, 2), (3, 2)])
    def test_all_units(self, p, r):
        for idx in range(1, p**r):
            assert verify_gauss_theta_record(p, r, idx).passed

    def test_zero_rejected(self):
        for p, r in ((7, 1), (5, 2)):
            with pytest.raises(ZeroArgument):
                verify_gauss_theta_record(p, r, 0)


class TestDavenportHasse:
    def test_trivial_psi(self):
        for m in (2, 3, 6):
            assert verify_gauss_dh_record(7, 1, m, 0).passed

    def test_m2_all_psi(self):
        for e in range(6):
            assert verify_gauss_dh_record(7, 1, 2, e).passed

    def test_m3_needs_q_1_mod_3(self):
        assert verify_gauss_dh_record(7, 1, 3, 1).passed
        for p, r, m in ((5, 1, 3), (11, 1, 3), (7, 1, 4), (7, 1, 0), (7, 1, -2), (5, 2, 5)):
            with pytest.raises(ModulusMismatch):
                verify_gauss_dh_record(p, r, m, 1)

    def test_large_products_pass_relative_to_their_size(self):
        # |lhs| is about q^3 = 2.2e10 at q = 2809, m = 6: the sides differ in
        # the last digits by more than an absolute 1e-6 q
        assert verify_gauss_dh_record(53, 2, 6, 351).passed

    def test_a_relative_error_of_1e_4_fails(self, monkeypatch):
        records = verify._float_records

        def perturbed(theorem, field, params, lhs, rhs, t0):
            return records(theorem, field, params, lhs * (1 + 1e-4), rhs, t0)

        monkeypatch.setattr(verify, "_float_records", perturbed)
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


# every field with q <= 500 and r <= 3
ORACLE_FIELDS = [(p, r) for r in (1, 2, 3) for p in range(3, 500) if is_prime(p) and p**r <= 500]


def _oracle_args(rec, field):
    """The oracle call of a GAUSS_* record: (sides function, arguments)."""
    params = rec.params
    if rec.theorem == "GAUSS_GK":
        return gk_product_sides, (params["k"], field)
    if rec.theorem == "GAUSS_THETA":
        return theta_expansion_sides, (field.element(params["alpha"]), field)
    return davenport_hasse_sides, (params["m"], params["psi"], field)


def _check_against_oracles(records, field):
    for rec in records:
        sides, args = _oracle_args(rec, field)
        lhs, rhs = sides(*args)
        expected = (_cplx(lhs), _cplx(rhs), abs(lhs - rhs) < 1e-6 * max(field.q, abs(rhs)))
        assert (rec.lhs, rec.rhs, rec.passed) == expected, (rec.theorem, rec.params)
        assert (rec.p, rec.r, rec.K) == (field.p, field.r, 0)


def _gauss_sweep(p, r, sample=None, seed=0):
    spec = RangeSpec(theorems=("gauss",), pmin=p, pmax=p, r_values=(r,), qmax=p**r, sample=sample, seed=seed)
    return run_suite(spec).records


class TestRowsAgainstOracles:
    """The GAUSS_* rows against the scalar sides they replaced: the
    ``_cplx`` strings of both sides and the verdict, at every argument of
    every small field and at sampled positions of large ones."""

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_every_argument_of_every_small_field(self, r):
        for p, rr in ORACLE_FIELDS:
            if rr != r:
                continue
            field, records = build_field(p, r), _gauss_sweep(p, r)
            q1 = field.q - 1
            dh = [(m, psi) for m in (2, 3, 6) if q1 % m == 0 for psi in range(q1)]
            assert len(records) == 2 * q1 - 1 + len(dh), (p, r)
            assert [rec.params["k"] for rec in records[: q1 - 1]] == list(range(1, q1))
            assert [rec.params for rec in records[2 * q1 - 1:]] == [{"m": m, "psi": psi} for m, psi in dh]
            _check_against_oracles(records, field)

    @pytest.mark.parametrize("p, r, sample, seed", [(9973, 1, 40, 0), (53, 2, 30, 1), (101, 2, 5, 2), (13, 3, 25, 3)])
    def test_sampled_positions_of_large_fields(self, p, r, sample, seed):
        field, records = build_field(p, r), _gauss_sweep(p, r, sample, seed)
        q1 = field.q - 1
        pick = lambda tag, n: random.Random(f"{seed}:{tag}").sample(range(n), sample)  # noqa: E731
        gk = [rec.params["k"] for rec in records if rec.theorem == "GAUSS_GK"]
        assert gk == [i + 1 for i in pick(f"gauss_gk:{p}:{r}", q1 - 1)]
        theta = [rec.params["alpha"] for rec in records if rec.theorem == "GAUSS_THETA"]
        units = [field.from_index(i + 1) for i in pick(f"gauss_theta:{p}:{r}", q1)]
        assert theta == [a.idx if r == 1 else list(a.coeffs) for a in units]
        dh = [(rec.params["m"], rec.params["psi"]) for rec in records if rec.theorem == "GAUSS_DH"]
        assert dh == [(m, psi) for m in (2, 3, 6) if q1 % m == 0 for psi in pick(f"gauss_dh:{p}:{r}:{m}", q1)]
        _check_against_oracles(records, field)

    def test_a_row_of_mixed_orders(self):
        field = build_field(13, 1)
        x = np.array([[2, 1], [3, 4], [6, 5], [2, 0], [6, 11], [3, 7]])
        records, skipped = verify._gauss_dh_row(field, x)
        assert skipped == [] and [[rec.params["m"], rec.params["psi"]] for rec in records] == x.tolist()
        _check_against_oracles(records, field)

    @pytest.mark.parametrize("p, r", [(7, 1), (5, 2), (3, 3)])
    def test_lone_records_equal_row_records(self, p, r):
        strip = lambda rec: {**rec.to_dict(), "elapsed_ms": 0}  # noqa: E731
        field = build_field(p, r)
        for rec in _gauss_sweep(p, r, sample=6):
            params = rec.params
            if rec.theorem == "GAUSS_GK":
                lone = verify_gauss_gk_record(p, r, params["k"])
            elif rec.theorem == "GAUSS_THETA":
                lone = verify_gauss_theta_record(p, r, field.element(params["alpha"]).idx)
            else:
                lone = verify_gauss_dh_record(p, r, params["m"], params["psi"])
            assert strip(lone) == strip(rec)

    def test_empty_rows(self):
        field = build_field(7, 1)
        empty = np.zeros(0, dtype=np.int64)
        for row in (verify._gauss_gk_row(field, empty), verify._gauss_theta_row(field, empty),
                    verify._gauss_dh_row(field, empty.reshape(0, 2))):
            assert row == ([], [])

    def test_tolerance_takes_arrays(self):
        field = build_field(53, 2)
        rhs = np.array([0, 1j, -field.q, 3e6 + 4e6j, gauss_sum(5, field) ** 3])
        assert default_tolerance(field, rhs).tolist() == [default_tolerance(field, z) for z in rhs.tolist()]
        assert default_tolerance(field, 3e6 + 4e6j) == 1e-6 * max(field.q, abs(3e6 + 4e6j))
