import random
from collections import Counter

import numpy as np
import pytest

from padichyper import curves
from padichyper.curves import (
    CurveCount,
    HessianCurve,
    WeierstrassCurve,
    check_count_relation,
    count_hessian,
    count_weierstrass,
    hessian_bridge,
    hessian_counts,
    j_invariant,
    weierstrass_traces,
)
from padichyper.errors import PreconditionFailed, SingularCurve, SingularHessian
from padichyper.fields import FqField, build_field, phi
from padichyper.verify import verify_mc


def cubic_values(a, b) -> np.ndarray:
    """x^3 + a x + b at every x of the field, as element indices in index order."""
    f = a.field
    xs = np.arange(f.q, dtype=np.int64)
    return f.np_add(f.np_add(f.np_pow(xs, 3), f.np_mul(xs, a.idx)), b.idx)


def count_weierstrass_enumerate(E: WeierstrassCurve, f: FqField) -> CurveCount:
    """Oracle: direct (x, y) enumeration."""
    affine = 0
    for x in f.elements():
        rhs = x**3 + E.a * x + E.b
        for y in f.elements():
            if y * y == rhs:
                affine += 1
    return CurveCount(affine=affine, projective=affine + 1, trace=f.q - affine)


def count_hessian_enumerate(C: HessianCurve, f: FqField) -> int:
    """Oracle: plain double loop."""
    three_d = f.element(3) * C.d
    total = 0
    for x in f.elements():
        x3 = x**3
        for y in f.elements():
            if x3 + y**3 + 1 == three_d * x * y:
                total += 1
    return total


# cells of the (x, y) grid that count_hessian_grid evaluates per block of rows
GRID_CELLS = 2**16


def count_hessian_grid(C: HessianCurve, f: FqField) -> int:
    """Oracle: x^3 + y^3 + 1 against 3dxy at every cell of the q-by-q grid of
    element indices, a block of x rows at a time.  The row term x^3 + 1 and
    the column term y^3 come from the field's tables; their sum at a cell
    adds the two indices, less p^(k+1) for each base-p digit k whose two
    digits carry.  3dxy reads the exp table at log(3dx) + log(y), where a log
    of 0 points past both copies of the table, into zeros."""
    q, p = f.q, f.p
    ys = np.arange(q, dtype=np.int64)
    cube, zero = f.np_pow(ys, 3), 2 * (q - 1)
    row = f.np_add(cube, 1)
    three_dx = f.np_mul(ys, (f.element(3) * C.d).idx)
    log_y = np.where(ys == 0, zero, f.dlog_np).astype(np.int32)
    log_row = np.where(three_dx == 0, zero, f.dlog_np[three_dx]).astype(np.int32)
    exp = np.concatenate([f.exp_np, np.zeros(2 * q, dtype=np.int64)]).astype(np.int32)
    place = p ** np.arange(f.r)
    row_digits, cube_digits = ((v[:, None] // place % p).astype(np.int32) for v in (row, cube))
    row, cube = row.astype(np.int32), cube.astype(np.int32)
    step, total = max(1, GRID_CELLS // q), 0
    for lo in range(0, q, step):
        rows = slice(lo, lo + step)
        lhs = row[rows, None] + cube
        for k in range(f.r):
            lhs -= ((row_digits[rows, k, None] + cube_digits[:, k]) >= p) * np.int32(p ** (k + 1))
        total += int(np.count_nonzero(lhs == exp[log_row[rows, None] + log_y]))
    return total


def smooth_hessians(f: FqField):
    for di in range(f.q):
        d = f.from_index(di)
        if not (d**3 - 1).is_zero:
            yield HessianCurve(d)


class TestWeierstrassCount:
    def test_singular_rejected(self):
        f = build_field(7, 1)
        with pytest.raises(SingularCurve):
            WeierstrassCurve(f.zero, f.zero)

    @pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (3, 2), (5, 2)])
    def test_two_counting_strategies_agree(self, p, r):
        f = build_field(p, r)
        for ai in range(f.q):
            for bi in range(1, f.q, 2):
                try:
                    E = WeierstrassCurve(f.from_index(ai), f.from_index(bi))
                except SingularCurve:
                    continue
                assert count_weierstrass(E) == count_weierstrass_enumerate(E, f)

    def test_trace_is_negative_phi_sum(self):
        f = build_field(11, 1)
        E = WeierstrassCurve(f.element(2), f.element(5))
        s = sum(phi(x**3 + E.a * x + E.b) for x in f.elements())
        assert count_weierstrass(E).trace == -s

    def test_hasse_bound(self):
        f = build_field(7, 1)
        cc = count_weierstrass(WeierstrassCurve(f.element(1), f.element(1)))
        assert cc.trace**2 <= 4 * 7
        assert cc.projective == cc.affine + 1

    def test_quadratic_twist_by_square_preserves_trace(self):
        f = build_field(13, 1)
        for ci in range(1, 13):
            c = f.from_index(ci)
            if phi(c) != 1:
                continue
            for (ai, bi) in [(1, 1), (2, 3), (5, 1)]:
                a, b = f.element(ai), f.element(bi)
                E1 = WeierstrassCurve(a, b)
                E2 = WeierstrassCurve(a * c * c, b * c**3)
                assert count_weierstrass(E1).trace == count_weierstrass(E2).trace


class TestHessianCount:
    def test_singular_rejected(self):
        f = build_field(7, 1)
        with pytest.raises(SingularHessian):
            HessianCurve(f.one)

    def test_d_zero_fermat_like(self):
        f = build_field(7, 1)
        direct = sum(
            1
            for x in f.elements()
            for y in f.elements()
            if (x**3 + y**3 + 1).is_zero
        )
        assert count_hessian(HessianCurve(f.zero)) == direct

    @pytest.mark.parametrize("p,r", [(7, 1), (11, 1), (13, 1), (5, 2)])
    def test_numpy_matches_enumeration(self, p, r):
        f = build_field(p, r)
        for di in range(0, f.q, 3):
            d = f.from_index(di)
            if (d**3 - 1).is_zero:
                continue
            C = HessianCurve(d)
            assert count_hessian(C) == count_hessian_enumerate(C, f)

    @pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (3, 3)])
    def test_characteristic_three_is_a_line(self, p, r):
        # (x + y + 1)^3 = 0: the count is q for every smooth d, in a row too
        f = build_field(p, r)
        row = hessian_counts(f, np.array([C.d.idx for C in smooth_hessians(f)])).tolist()
        assert row == [f.q] * len(row)
        for C in smooth_hessians(f):
            assert count_hessian(C) == count_hessian_enumerate(C, f) == f.q

    @pytest.mark.parametrize(
        "p,r",
        [(5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1), (17, 1), (19, 1),
         (23, 1), (29, 1), (31, 1), (37, 1), (41, 1), (43, 1), (47, 1)],
    )
    def test_every_d_matches_enumeration(self, p, r):
        # with the p = 3 fields above, every field with q <= 49, d = 0 included:
        # each d alone, and every d in one row
        f = build_field(p, r)
        hessians = list(smooth_hessians(f))
        row = hessian_counts(f, np.array([C.d.idx for C in hessians])).tolist()
        for C, in_row in zip(hessians, row):
            expected = count_hessian_enumerate(C, f)
            assert count_hessian(C) == in_row == expected, (p, r, C.d)

    @pytest.mark.parametrize("p,r", [(5, 3), (13, 2)])
    def test_every_d_matches_grid(self, p, r):
        f = build_field(p, r)
        for C in smooth_hessians(f):
            assert count_hessian(C) == count_hessian_grid(C, f), (p, r, C.d)

    def test_row_oracle_above_the_grid_limit(self):
        f = build_field(59, 2)
        for di in random.Random(0).sample(range(f.q), 3):
            C = HessianCurve(f.from_index(di))
            assert count_hessian(C) == count_hessian_grid(C, f), di


def weierstrass_oracle_traces(f: FqField) -> dict:
    """count_weierstrass_enumerate's trace at every nonsingular (a, b) of f,
    enumerated once per class (a, b) ~ (u^4 a, u^6 b): (x, y) -> (u^2 x, u^3 y)
    carries one curve onto the other, so both have the same count."""
    traces = {}
    for ai in range(f.q):
        for bi in range(f.q):
            a, b = f.from_index(ai), f.from_index(bi)
            if (ai, bi) in traces or (4 * a**3 + 27 * b * b).is_zero:
                continue
            trace = count_weierstrass_enumerate(WeierstrassCurve(a, b), f).trace
            for u in f.units():
                traces[((u**4 * a).idx, (u**6 * b).idx)] = trace
    return traces


def _small_fields():
    """Every field with q <= 49 and r <= 2."""
    return [(p, 1) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)] + [(3, 2), (5, 2), (7, 2)]


class TestCountKernels:
    """The row kernels against the enumeration and grid oracles, which share
    no code with them."""

    @pytest.mark.parametrize("p,r", _small_fields())
    def test_every_curve_in_one_row(self, p, r):
        f = build_field(p, r)
        expected = weierstrass_oracle_traces(f)
        a, b = np.array(sorted(expected), dtype=np.int64).T
        assert weierstrass_traces(f, a, b).tolist() == [expected[ab] for ab in zip(a.tolist(), b.tolist())]

    def test_empty_rows(self):
        none = np.zeros(0, dtype=np.int64)
        for p, r in ((3, 1), (5, 1), (7, 2)):
            f = build_field(p, r)
            assert weierstrass_traces(f, none, none).shape == (0,)
            assert hessian_counts(f, none).shape == (0,)

    @pytest.mark.parametrize("p,r", [(13, 1), (5, 2)])
    def test_rows_split_unevenly_across_chunks(self, monkeypatch, p, r):
        f = build_field(p, r)
        expected = weierstrass_oracle_traces(f)
        a, b = np.array(sorted(expected), dtype=np.int64).T
        traces = [expected[ab] for ab in zip(a.tolist(), b.tolist())]
        hessians = list(smooth_hessians(f))
        d = np.array([C.d.idx for C in hessians])
        counts = [count_hessian_grid(C, f) for C in hessians]
        for chunk in (1, f.q - 1, f.q, 2 * f.q + 1, 3 * f.q - 1, 7 * f.q + 3):
            monkeypatch.setattr(curves, "COUNT_ELEMENTS", chunk)
            assert weierstrass_traces(f, a, b).tolist() == traces, chunk
            assert hessian_counts(f, d).tolist() == counts, chunk

    @pytest.mark.parametrize("p,r", [(9973, 1), (101, 2)])
    def test_seeded_d_on_large_fields(self, p, r):
        # seven d, whose last one falls in a second chunk of the row; the grid
        # oracle evaluates q^2 ~ 10^8 cells a d at this size, so it checks that one
        f = build_field(p, r)
        hessians = [HessianCurve(f.from_index(i)) for i in random.Random(p).sample(range(f.q), 7)]
        counts = hessian_counts(f, np.array([C.d.idx for C in hessians])).tolist()
        assert counts == [count_hessian(C) for C in hessians]
        assert counts[-1] == count_hessian_grid(hessians[-1], f)

    def test_hasse_bound_is_checked(self, monkeypatch):
        f = build_field(7, 1)
        monkeypatch.setattr(f, "np_phi", lambda arr: np.ones_like(arr))
        with pytest.raises(AssertionError, match="Hasse bound"):
            weierstrass_traces(f, np.array([1, 2]), np.array([1, 1]))


class TestBridge:
    def test_d_zero(self):
        f = build_field(101, 1)
        m, n = hessian_bridge(f.zero)
        assert m.is_zero
        assert n == f.element(-432)

    def test_d_one(self):
        f = build_field(101, 1)
        m, n = hessian_bridge(f.one)
        assert m == f.element(-27 * 9)
        assert n == f.element(54 * -27)

    def test_p11_d2_reduced(self):
        f = build_field(11, 1)
        m, n = hessian_bridge(f.element(2))
        assert m == f.element(-27 * 2 * 16)
        assert n == f.element(54 * (64 - 160 - 8))

    @pytest.mark.parametrize(
        "p,r",
        [(5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1), (29, 1),
         (31, 1), (37, 1), (41, 1), (43, 1), (47, 1), (5, 2), (7, 2)],
    )
    def test_count_relation_exhaustive(self, p, r):
        # every q <= 49 with p > 3, plus both quadratic extensions
        f = build_field(p, r)
        checked = 0
        for di in range(f.q):
            d = f.from_index(di)
            if (d**3 - 1).is_zero:
                continue
            try:
                assert check_count_relation(d), (p, r, di)
                checked += 1
            except SingularCurve:
                continue
        assert checked > 0

    @pytest.mark.parametrize("p,r", [(101, 2), (99_991, 1)])
    def test_count_relation_large_q(self, p, r):
        f = build_field(p, r)
        rng = random.Random(p)
        checked = 0
        while checked < 3:
            d = f.from_index(rng.randrange(f.q))
            if (d**3 - 1).is_zero:
                continue
            try:
                assert check_count_relation(d), (p, r, d)
                checked += 1
            except SingularCurve:
                continue

    @pytest.mark.parametrize("p, r", [(11, 1), (31, 1), (101, 1), (1009, 1), (5, 2), (7, 2), (11, 2), (5, 3)])
    def test_two_torsion_gives_the_roots_of_the_bridged_cubic(self, p, r):
        # The 2-torsion of x^3 + y^3 + 1 = 3dxy lies on x = y, where
        # 2x^3 - 3dx^2 + 1 = 0: each unit x is such a point for one d, and
        # the bridge's substitution at y = x carries it to a root h of
        # x^3 + mx + n.  Every root arises so, once.
        f = build_field(p, r)
        found = Counter()
        for x in f.units():
            d = (2 * x**3 + 1) / (3 * x * x)
            if (d**3 - 1).is_zero:
                continue
            h = -(36 - 9 * d**3 + 54 * d * d * x) / (3 * (2 * x + d))
            assert cubic_values(*hessian_bridge(d))[h.idx] == 0, (p, r, x)
            found[d.idx] += 1
        for d in f.elements():
            if not (d**3 - 1).is_zero:
                assert found[d.idx] == np.count_nonzero(cubic_values(*hessian_bridge(d)) == 0), (p, r, d)

    def test_half_scaled_bridge_admits_counterexamples(self):
        # the relation pins the 54-coefficient: halving it yields a genuinely
        # different curve whose count breaks the relation for many d (any
        # single counterexample falsifies that variant; the bridged model
        # passes exhaustively above)
        failures = 0
        total = 0
        for p in (11, 13, 19, 23):
            f = build_field(p, 1)
            for di in range(1, p):
                d = f.from_index(di)
                if (d**3 - 1).is_zero:
                    continue
                d3 = d**3
                m = -27 * d * (d3 + 8)
                n_half = 27 * (d3 * d3 - 20 * d3 - 8)
                try:
                    E = WeierstrassCurve(m, n_half)
                except SingularCurve:
                    continue
                total += 1
                lhs = count_weierstrass(E).projective
                rhs = count_hessian(HessianCurve(d)) + 2 + phi(f.element(-3))
                failures += lhs != rhs
        assert total > 20
        assert failures > total // 2

    def test_d_varying_character_cannot_correct_the_count(self):
        # at q = 19 every admissible d gives identical counts on both curves,
        # while phi(-3(8+92d^3+35d^6)) takes both signs: no relation can
        # involve that character nontrivially
        f = build_field(19, 1)
        counts = set()
        signs = set()
        for di in range(1, 19):
            d = f.from_index(di)
            if (d**3 - 1).is_zero:
                continue
            m, n = hessian_bridge(d)
            if m.is_zero or n.is_zero:
                continue
            E = WeierstrassCurve(m, n)
            counts.add(
                (count_weierstrass(E).projective, count_hessian(HessianCurve(d)))
            )
            d3 = d**3
            signs.add(phi(-3 * (8 + 92 * d3 + 35 * d3 * d3)))
        assert len(counts) == 1
        assert signs == {-1, 1}


class TestJInvariant:
    def test_b_zero_gives_1728(self):
        f = build_field(13, 1)
        E = WeierstrassCurve(f.element(2), f.zero)
        assert j_invariant(E) == f.element(1728)
        # MC's gate for this curve
        with pytest.raises(PreconditionFailed, match="j_is_1728"):
            verify_mc(13, 1, 2, 0)

    def test_a_zero_gives_zero(self):
        f = build_field(13, 1)
        E = WeierstrassCurve(f.zero, f.element(2))
        assert j_invariant(E).is_zero
        with pytest.raises(PreconditionFailed, match="j_is_zero"):
            verify_mc(13, 1, 0, 2)

    def test_generic_curve(self):
        f = build_field(7, 1)
        E = WeierstrassCurve(f.element(1), f.element(1))
        j = j_invariant(E)
        assert j == 1728 * 4 * E.a**3 / (4 * E.a**3 + 27 * E.b**2)
        assert not j.is_zero and j != f.element(1728)
        assert verify_mc(7, 1, 1, 1).passed
