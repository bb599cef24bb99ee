import hashlib
import json
import random
import subprocess
import sys
from collections import Counter
from itertools import islice

import numpy as np
import pytest

import padichyper.verify as verify_module
from padichyper.errors import BoundTooLargeForPrecision, NoRepresentativeInBound, NotAnInteger, PreconditionFailed
from padichyper.fields import DEFAULT_MAX_Q, build_field, phi, residue_dtype, uctx_for
from padichyper.hyper import GATHER_ELEMENTS, RECOVERY_ERRORS, GProfile, profile_for, recover_integer, recover_rows
from padichyper.padic import default_precision, is_prime, renormalize
from padichyper.verify import (
    PARAMS_HALF_QUARTER,
    PARAMS_HALF_SIXTH,
    PARAMS_HALF_THIRD,
    RangeSpec,
    run_suite,
    verify_bs1,
    verify_cor2,
    verify_gauss_dh_record,
    verify_gauss_gk_record,
    verify_gauss_theta_record,
    verify_hessian,
    verify_mc,
    verify_mt1,
    _alpha,
)

from padic_oracle import (
    agrees_to,
    recover_integer_scalar,
    verify_eq29_record,
    verify_lemma5_record,
    verify_lemma31_record,
    verify_ortho_record,
)


class TestAlpha:
    def test_branches(self):
        assert _alpha(build_field(11, 1)) == 1
        assert _alpha(build_field(13, 1)) == -1

    def test_verbatim_formula_equals_minus_one_when_q_1_mod_3(self):
        # 5 - 6 phi(-3) with phi(-3) forced to +1
        for (p, r) in [(7, 1), (13, 1), (31, 1), (5, 2), (11, 2)]:
            f = build_field(p, r)
            if f.q % 3 == 1:
                assert _alpha(f) == -1


class TestMT1:
    def test_passes_at_p11(self):
        for d in (2, 3, 4, 5, 8, 10):
            rec = verify_mt1(11, 1, d)
            assert rec.passed and rec.theorem == "MT1"

    def test_passes_at_r2(self):
        rec = verify_mt1(5, 2, [2, 1])
        assert rec.passed

    def test_gate_d_cubed(self):
        with pytest.raises(PreconditionFailed) as e:
            verify_mt1(11, 1, 1)
        assert e.value.gate == "d_cubed_is_one"

    def test_gate_d_zero(self):
        with pytest.raises(PreconditionFailed) as e:
            verify_mt1(11, 1, 0)
        assert e.value.gate == "d_is_zero"

    def test_gate_m_zero(self):
        # at p = 7 every d with d^3 != 1 has d^3 = -1, so m = -27d(d^3+8) = 0
        with pytest.raises(PreconditionFailed) as e:
            verify_mt1(7, 1, 3)
        assert e.value.gate == "m_is_zero"

    def test_gate_small_p(self):
        with pytest.raises(PreconditionFailed) as e:
            verify_mt1(3, 1, 2)
        assert e.value.gate == "p_too_small"

    def test_symmetric_verdict(self):
        # the comparison is an equality of p-adic numbers: swapping the
        # rendered sides cannot change the verdict
        rec = verify_mt1(11, 1, 2)
        assert rec.passed == (rec.lhs == rec.rhs)

    def test_reproducible_records(self):
        a = verify_mt1(13, 2, [5, 1])
        b = verify_mt1(13, 2, [5, 1])
        assert (a.theorem, a.params, a.lhs, a.rhs, a.passed) == (
            b.theorem,
            b.params,
            b.lhs,
            b.rhs,
            b.passed,
        )


class TestCOR2:
    def find_branch1_instance(self, p):
        field = build_field(p, 1)
        from padichyper.curves import hessian_bridge

        for di in range(2, p):
            d = field.from_index(di)
            if (d**3 - 1).is_zero:
                continue
            m, n = hessian_bridge(d)
            if m.is_zero or n.is_zero or -27 * n * n / (4 * m**3) == field.one:
                continue
            target = -m / 3
            s = int(field.dlog_np[target.idx])
            if s % 2 == 0:
                k = field.from_index(int(field.exp_np[s // 2]))
                return d, k
        return None

    def test_branch1_scan_and_pass(self):
        found = self.find_branch1_instance(11)
        assert found is not None
        d, k = found
        rec = verify_cor2(1, 11, 1, d, k)
        assert rec.passed and rec.theorem == "COR2_1"

    def test_branch2_scan_and_pass(self):
        field = build_field(17, 1)
        from padichyper.curves import hessian_bridge

        hits = 0
        for di in range(2, 17):
            d = field.from_index(di)
            if (d**3 - 1).is_zero:
                continue
            m, n = hessian_bridge(d)
            if m.is_zero or n.is_zero or -27 * n * n / (4 * m**3) == field.one:
                continue
            for hi in range(1, 17):
                h = field.from_index(hi)
                if (h**3 + m * h + n).is_zero and not (3 * h * h + m).is_zero:
                    rec = verify_cor2(2, 17, 1, d, h)
                    assert rec.passed and rec.theorem == "COR2_2"
                    hits += 1
        assert hits > 0

    def test_branch_equation_gate(self):
        with pytest.raises(PreconditionFailed) as e:
            verify_cor2(1, 11, 1, 2, 1)
        assert e.value.gate == "branch_equation"


class TestBS1:
    def test_branch1_p7_k1(self):
        # a = -3; pick the first b passing the gates
        field = build_field(7, 1)
        a = field.element(-3)
        for bi in range(1, 7):
            b = field.from_index(bi)
            if -27 * b * b / (4 * a**3) == field.one:
                continue
            if (field.one**3 + a + b).is_zero:
                continue
            rec = verify_bs1(1, 7, 1, a, b, 1)
            assert rec.passed
            return
        raise AssertionError("no admissible b found")

    def test_branch2_p11_h1(self):
        field = build_field(11, 1)
        h = field.one
        for ai in range(1, 11):
            a = field.from_index(ai)
            b = -(h**3 + a * h)
            if b.is_zero or (3 * h * h + a).is_zero:
                continue
            if -27 * b * b / (4 * a**3) == field.one:
                continue
            rec = verify_bs1(2, 11, 1, a, b, h)
            assert rec.passed
            return
        raise AssertionError("no admissible a found")

    def test_b_zero_gate(self):
        with pytest.raises(PreconditionFailed) as e:
            verify_bs1(1, 7, 1, -3, 0, 1)
        assert e.value.gate == "b_is_zero"

    def test_branch2_character_needs_cube_root_twist(self):
        # dropping the phi(3h) factor flips the verdict exactly when
        # phi(3h) = -1 and the series value is nonzero
        from padichyper.hyper import profile_for
        from padichyper.verify import PARAMS_HALF_QUARTER, PARAMS_QUARTER_THIRD
        from padichyper.fields import uctx_for
        from padichyper.padic import default_precision

        p = 7
        field = build_field(p, 1)
        K = default_precision(p, 1)
        uctx = uctx_for(field, K)
        flipped = 0
        for hi in range(1, p):
            h = field.from_index(hi)
            if phi(3 * h) != -1:
                continue
            for ai in range(1, p):
                a = field.from_index(ai)
                b = -(h**3 + a * h)
                if b.is_zero or (3 * h * h + a).is_zero:
                    continue
                t1 = -27 * b * b / (4 * a**3)
                if t1 == field.one:
                    continue
                w = 3 * h * h + a
                lhs = profile_for(PARAMS_QUARTER_THIRD, field.model, uctx).eval_qg(t1)
                variant = (
                    profile_for(PARAMS_HALF_QUARTER, field.model, uctx)
                    .eval_qg(4 * w / (9 * h * h))
                    .scale_int(phi(-b * w))
                )
                if lhs.exact_zero or variant.exact_zero:
                    continue
                assert not agrees_to(lhs, variant, K)
                assert verify_bs1(2, p, 1, a, b, h).passed
                flipped += 1
        assert flipped > 0


class TestMC:
    def test_p7_curve_1_1(self):
        rec = verify_mc(7, 1, 1, 1)
        assert rec.passed
        assert rec.lhs == "3"

    def test_q25_sample(self):
        field = build_field(5, 2)
        rec = verify_mc(5, 2, field.from_index(7), field.from_index(9))
        assert rec.passed

    def test_gate_j_zero(self):
        with pytest.raises(PreconditionFailed) as e:
            verify_mc(7, 1, 0, 1)
        assert e.value.gate == "j_is_zero"


class TestHessianCheck:
    def test_p7_all(self):
        field = build_field(7, 1)
        for a in range(2, 7):
            if (field.element(a) ** 3 - 1).is_zero:
                continue
            rec = verify_hessian(7, 1, a)
            assert rec.passed

    def test_p5_requires_override(self):
        with pytest.raises(PreconditionFailed) as e:
            verify_hessian(5, 1, 2)
        assert e.value.gate == "p_too_small"
        assert verify_hessian(5, 1, 2, allow_small_p=True).passed

    def test_p11_a2(self):
        rec = verify_hessian(11, 1, 2)
        assert rec.passed and rec.lhs == "17"

    def test_gate_a_cubed(self):
        with pytest.raises(PreconditionFailed) as e:
            verify_hessian(11, 1, 1)
        assert e.value.gate == "a_cubed_is_one"


class TestCubicExtension:
    def test_checks_hold_at_q_125(self):
        # r = 3 exercises the general Frobenius-twist product paths
        field = build_field(5, 3)
        assert verify_mc(5, 3, field.from_index(7), field.from_index(13)).passed
        hits = 0
        for di in range(2, 40):
            try:
                rec = verify_mt1(5, 3, field.from_index(di))
            except PreconditionFailed:
                continue
            assert rec.passed
            hits += 1
        assert hits > 0


class TestLemmaRecords:
    def test_lemma31(self):
        rec = verify_lemma31_record(7, 1, 2, 3)
        assert rec.passed and rec.theorem == "LEMMA31"

    def test_eq29(self):
        rec = verify_eq29_record(5, 2, 7)
        assert rec.passed

    def test_lemma5(self):
        rec = verify_lemma5_record(11, 2, 37, 1)
        assert rec.passed

    def test_gauss_records(self):
        assert verify_gauss_gk_record(7, 1, 1).passed
        assert verify_gauss_theta_record(5, 2, 7).passed
        assert verify_gauss_dh_record(7, 1, 2, 1).passed
        assert verify_ortho_record(7, 1).passed


class TestSuite:
    def test_small_run_all_pass(self):
        spec = RangeSpec(
            theorems=("mt1", "lemma5", "ortho"), pmin=7, pmax=13, r_values=(1,)
        )
        report = run_suite(spec)
        assert report.summary["failed"] == 0
        assert report.summary["total"] == report.summary["passed"] == len(report.records)
        assert report.all_passed

    def test_empty_prime_range_rejected(self):
        with pytest.raises(ValueError):
            run_suite(RangeSpec(theorems=("mt1",), pmin=24, pmax=28))

    @pytest.mark.parametrize("theorem", ["mc", "bs1", "hessian"])
    def test_negative_sample_rejected_before_any_field(self, monkeypatch, theorem):
        def no_fields(*args, **kwargs):
            raise AssertionError("a field was built")

        monkeypatch.setattr(verify_module, "build_field", no_fields)
        with pytest.raises(ValueError, match="sample"):
            run_suite(RangeSpec(theorems=(theorem,), pmin=11, pmax=11, r_values=(1,), sample=-1))
        with pytest.raises(ValueError, match="K must be >= 1"):
            run_suite(RangeSpec(theorems=(theorem,), pmin=11, pmax=11, r_values=(1,), K=0))

    @pytest.mark.parametrize("qmax", [0, -5, DEFAULT_MAX_Q + 1])
    def test_qmax_out_of_range_rejected_before_any_field(self, monkeypatch, qmax):
        def no_fields(*args, **kwargs):
            raise AssertionError("a field was built")

        monkeypatch.setattr(verify_module, "build_field", no_fields)
        with pytest.raises(ValueError, match=f"qmax must be in \\[1, {DEFAULT_MAX_Q}\\], got {qmax}"):
            run_suite(RangeSpec(theorems=("mt1",), pmin=11, pmax=11, r_values=(1,), qmax=qmax))

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ValueError):
            run_suite(RangeSpec(theorems=("nope",)))

    @pytest.mark.parametrize(
        "theorems, r_values, name",
        [
            (("ortho", "ortho"), (1,), "theorems"),
            (("ortho",), (1, 1), "r values"),
            (("mt1", "ortho", "mt1"), (2, 1), "theorems"),
        ],
        ids=["theorem", "r", "theorem-among-others"],
    )
    def test_repeats_rejected_before_any_field(self, monkeypatch, theorems, r_values, name):
        # a repeated theorem or r used to sweep each field again and count its records twice
        def no_fields(*args, **kwargs):
            raise AssertionError("a field was built")

        monkeypatch.setattr(verify_module, "build_field", no_fields)
        with pytest.raises(ValueError, match=f"repeated {name}"):
            run_suite(RangeSpec(theorems=theorems, pmin=7, pmax=7, r_values=r_values))

    def test_sample_zero_checks_nothing_in_every_plan(self):
        # ortho used to check its one record per field whatever the sample
        report = run_suite(RangeSpec(pmin=5, pmax=7, r_values=(1, 2), sample=0, allow_p5=True))
        assert report.summary == {"total": 0, "passed": 0, "failed": 0, "skipped": 0}
        ortho = run_suite(RangeSpec(theorems=("ortho",), pmin=5, pmax=7, r_values=(1, 2), sample=1))
        assert [(rec.p, rec.r) for rec in ortho.records] == [(5, 1), (7, 1), (5, 2), (7, 2)]

    def test_json_schema(self):
        spec = RangeSpec(theorems=("lemma5",), pmin=7, pmax=7, r_values=(1,))
        doc = json.loads(run_suite(spec).to_json())
        assert set(doc) == {"suite", "started_at", "config", "records", "summary"}
        assert set(doc["summary"]) == {"total", "passed", "failed", "skipped"}
        rec = doc["records"][0]
        assert list(rec) == [
            "theorem",
            "p",
            "r",
            "K",
            "params",
            "lhs",
            "rhs",
            "pass",
            "elapsed_ms",
        ]

    def test_csv_header_and_rows(self):
        spec = RangeSpec(theorems=("lemma5",), pmin=7, pmax=7, r_values=(1,))
        report = run_suite(spec)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "theorem,p,r,K,params,lhs,rhs,pass,elapsed_ms"
        assert len(lines) == len(report.records) + 1

    def test_sampling_is_deterministic(self):
        spec = RangeSpec(theorems=("eq29",), pmin=13, pmax=13, r_values=(1,), sample=4, seed=9)
        r1 = run_suite(spec)
        r2 = run_suite(spec)
        assert [rec.params for rec in r1.records] == [rec.params for rec in r2.records]
        assert len(r1.records) == 4

    def test_hessian_skips_small_p_without_override(self):
        spec = RangeSpec(theorems=("hessian",), pmin=5, pmax=5, r_values=(1,))
        report = run_suite(spec)
        assert report.summary["total"] == 0
        assert report.summary["skipped"] == 4  # every unit a in F_5

    def test_cor2_counts_both_branches(self):
        spec = RangeSpec(theorems=("cor2",), pmin=11, pmax=17, r_values=(1,))
        report = run_suite(spec)
        names = {rec.theorem for rec in report.records}
        assert names == {"COR2_1", "COR2_2"}
        assert report.all_passed

    def test_cor2_evaluates_the_hessian_side_once_per_d(self, monkeypatch, qg_tables):
        # unsampled, every row is full: each series side is read from one
        # table per (family, field), and no point is summed
        point_sum = GProfile._sum
        points = Counter()
        lookups, builds = qg_tables

        def counting(prof, s, shift):
            points[prof.params] += len(s)
            return point_sum(prof, s, shift)

        monkeypatch.setattr(GProfile, "_sum", counting)
        spec = RangeSpec(theorems=("cor2",), pmin=5, pmax=11, r_values=(1, 2))
        profile_for.cache_clear()
        report = run_suite(spec)
        per_d = {(rec.p, rec.r, json.dumps(rec.params["d"])) for rec in report.records}
        assert (len(report.records), len(per_d)) == (282, 136)
        assert not points
        assert builds == lookups and set(lookups.values()) == {1}
        assert {params for params, _ in lookups} == {PARAMS_HALF_SIXTH, PARAMS_HALF_THIRD, PARAMS_HALF_QUARTER}
        assert {model for _, model in lookups} == {(rec.p, rec.r, 0) for rec in report.records}
        # sampled, a row sums its points in one batch, the Hessian side once
        # per distinct argument 1/d^3 of its admissible d and the branch side
        # at most once per record
        lookups.clear()
        builds.clear()
        sampled = RangeSpec(theorems=("cor2",), pmin=5, pmax=11, r_values=(1, 2), sample=3)
        report = run_suite(sampled)
        hessian_args = set()
        for rec in report.records:
            field = build_field(rec.p, rec.r)
            hessian_args.add((rec.p, rec.r, (1 / field.element(rec.params["d"]) ** 3).idx))
        assert not lookups and not builds and points[PARAMS_HALF_SIXTH] == len(hessian_args) > 0
        assert points[PARAMS_HALF_THIRD] + points[PARAMS_HALF_QUARTER] <= len(report.records)


def _report_digest(report) -> str:
    """sha256 over theorem, p, r, K, params, lhs, rhs and pass of every record,
    plus the summary.  GAUSS_* sides are platform floats, so only their
    verdicts are hashed."""
    doc = json.loads(report.to_json())
    records = []
    for rec in doc["records"]:
        keys = ["theorem", "p", "r", "K", "params", "lhs", "rhs", "pass"]
        if rec["theorem"].startswith("GAUSS_"):
            keys = [k for k in keys if k not in ("lhs", "rhs")]
        records.append({k: rec[k] for k in keys})
    body = json.dumps({"records": records, "summary": doc["summary"]}, sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


class TestTableRule:
    """A row reads whole-field tables exactly when ``_SuiteRun.sampled``
    returned every position of its listing; otherwise its points go through
    the batched sum, and no table is built."""

    @staticmethod
    def forbid(monkeypatch, name):
        def fail(*args):
            raise AssertionError(f"{name} called")

        if name == "point sum":
            monkeypatch.setattr(GProfile, "_sum", fail)
        else:  # a property, unlike the cached one, also sees a table its profile holds
            monkeypatch.setattr(GProfile, "qg_table", property(fail))

    @pytest.mark.parametrize("theorem", ["mt1", "cor2", "hessian", "bs1"])
    def test_full_rows_sum_no_point(self, monkeypatch, theorem):
        self.forbid(monkeypatch, "point sum")
        report = run_suite(RangeSpec(theorems=(theorem,), pmin=5, pmax=7, r_values=(1, 2), allow_p5=True))
        assert report.summary["total"] > 0 and report.all_passed

    @pytest.mark.parametrize("theorem", ["mt1", "cor2", "hessian", "bs1"])
    def test_sampled_rows_make_no_table(self, monkeypatch, theorem):
        self.forbid(monkeypatch, "qg_table")
        spec = RangeSpec(theorems=(theorem,), pmin=7, pmax=11, r_values=(1, 2), allow_p5=True, sample=3)
        report = run_suite(spec)
        assert report.summary["total"] > 0 and report.all_passed

    def test_a_sample_covering_the_listing_is_full(self, monkeypatch):
        # F_7 has 6 units: a sample of 6 draws them all, in order
        self.forbid(monkeypatch, "point sum")
        full = run_suite(RangeSpec(theorems=("hessian",), pmin=7, pmax=7, r_values=(1,), sample=6))
        assert full.summary == {"total": 3, "passed": 3, "failed": 0, "skipped": 3}

    def test_mc_draws_sum_their_points(self, monkeypatch):
        self.forbid(monkeypatch, "qg_table")
        report = run_suite(RangeSpec(theorems=("mc",), pmin=5, pmax=7, r_values=(1, 2)))
        assert report.summary["total"] > 0 and report.all_passed

    def test_single_checks_sum_their_points(self, monkeypatch):
        self.forbid(monkeypatch, "qg_table")
        assert verify_mt1(11, 1, 2).passed and verify_hessian(11, 1, 2).passed

    def test_full_and_point_reports_agree(self, monkeypatch):
        # the same rows, once from tables and once forced through the batched sum
        theorems = ("mt1", "cor2", "hessian", "bs1")
        spec = RangeSpec(theorems=theorems, pmin=5, pmax=13, r_values=(1, 2), allow_p5=True)
        tables = run_suite(spec)
        self.forbid(monkeypatch, "qg_table")
        sampled = verify_module._SuiteRun.sampled

        def every_row_summed(run, size, tag):
            positions = sampled(run, size, tag)
            run.full = False
            return positions

        monkeypatch.setattr(verify_module._SuiteRun, "sampled", every_row_summed)
        assert _report_digest(run_suite(spec)) == _report_digest(tables)


class TestRowDigits:
    """``verify._digits`` on residue rows against ``renormalize(...).digits()``."""

    @pytest.mark.parametrize("p, r, K", [(5, 1, 5), (7, 2, 4), (5, 3, 6), (11, 2, 9), (89, 1, 5), (3, 2, 1)])
    def test_rows_render_as_padic_numbers(self, p, r, K):
        uctx = uctx_for(build_field(p, r), K)
        m, rng = uctx.modulus, random.Random(f"{p}:{r}:{K}")
        rows = [[rng.randrange(m) for _ in range(r)] for _ in range(200)]
        # low valuations, exact zeros and single nonzero coordinates
        rows += [[c * p**w % m for c in row] for w, row in zip(range(K + 1), rows)]
        rows += [[0] * r, [0] * (r - 1) + [p ** (K - 1)]]
        got = verify_module._digits(np.array(rows, dtype=residue_dtype(m)), p, K)
        assert got == [renormalize(row, uctx, 0, K).digits() for row in rows]


def oracle_lift(row: list, uctx, bound: int):
    """(integer, None) or (None, error class) for one residue row mod p^K, by
    ``recover_integer(renormalize(row, uctx, 0, K), bound, p)``, which must
    agree with the scalar lift of the same value."""
    outcomes = []
    for lift in (recover_integer, recover_integer_scalar):
        try:
            outcomes.append((lift(renormalize(row, uctx, 0, uctx.K), bound, p=uctx.p), None))
        except (BoundTooLargeForPrecision, NotAnInteger, NoRepresentativeInBound) as exc:
            outcomes.append((None, type(exc)))
    assert outcomes[0] == outcomes[1], row
    return outcomes[0]


class TestRecoverRows:
    """``recover_rows`` on residue rows, row by row against ``oracle_lift``."""

    @staticmethod
    def lifted(res: np.ndarray, modulus: int, bound: int) -> list:
        values, errors = recover_rows(res, modulus, bound)
        return [(None, RECOVERY_ERRORS[e]) if e else (v, None) for v, e in zip(values.tolist(), errors.tolist())]

    # MC and HESSIAN rows on r = 1 and r = 2 fields; Python-int residues at
    # p = 89, K = 5; p^K <= 2 bound on every row at K = 1, and for HESSIAN
    # at (7, K = 2)
    @pytest.mark.parametrize(
        "theorem, p, r, K",
        [("mc", 7, 1, None), ("mc", 5, 2, None), ("mc", 7, 2, None), ("mc", 89, 1, 5), ("mc", 11, 1, 1),
         ("hessian", 31, 1, None), ("hessian", 13, 2, None), ("hessian", 89, 1, 5), ("hessian", 11, 1, 1),
         ("hessian", 7, 1, 2), ("hessian", 13, 1, 2)],
    )
    def test_rows_of_a_sweep(self, monkeypatch, theorem, p, r, K):
        calls = []

        def spy(res, modulus, bound):
            calls.append((res, modulus, bound))
            return recover_rows(res, modulus, bound)

        monkeypatch.setattr(verify_module, "recover_rows", spy)
        run_suite(RangeSpec(theorems=(theorem,), pmin=p, pmax=p, r_values=(r,), K=K, allow_p5=True))
        uctx = uctx_for(build_field(p, r), K or default_precision(p, r))
        assert calls and all(len(res) for res, _, _ in calls)
        for res, modulus, bound in calls:
            assert modulus == uctx.modulus and res.dtype == residue_dtype(modulus)
            assert self.lifted(res, modulus, bound) == [oracle_lift(row, uctx, bound) for row in res.tolist()]

    @pytest.mark.parametrize("p, r, K", [(7, 2, 5), (89, 2, 5), (5, 3, 3)])
    def test_each_error_class(self, p, r, K):
        uctx, bound = uctx_for(build_field(p, r), K), 30
        m, high = p**K, [0] * (r - 1)
        rows = [
            ([0] + high, (0, None)),
            ([bound] + high, (bound, None)),
            ([m - bound] + high, (-bound, None)),
            ([bound + 1] + high, (None, NoRepresentativeInBound)),
            ([m - bound - 1] + high, (None, NoRepresentativeInBound)),
            ([m // 2] + high, (None, NoRepresentativeInBound)),
            ([3, 1] + high[1:], (None, NotAnInteger)),
            ([0] * (r - 1) + [p ** (K - 1)], (None, NotAnInteger)),
            ([m - 1] * r, (None, NotAnInteger)),
        ]
        res = np.array([row for row, _ in rows], dtype=residue_dtype(m))
        assert self.lifted(res, m, bound) == [want for _, want in rows]
        assert [want for _, want in rows] == [oracle_lift(row, uctx, bound) for row, _ in rows]
        # p^K <= 2 bound fails every row, the zero row too; one less and the
        # symmetric lift is unique again
        too_large = self.lifted(res, m, (m + 1) // 2)
        assert too_large == [(None, BoundTooLargeForPrecision)] * len(rows)
        assert too_large == [oracle_lift(row, uctx, (m + 1) // 2) for row, _ in rows]
        unique = self.lifted(res, m, (m - 1) // 2)
        assert unique == [oracle_lift(row, uctx, (m - 1) // 2) for row, _ in rows]
        assert unique[:3] == [(0, None), (bound, None), (-bound, None)]


class TestReportJson:
    """``Report.to_json`` fills a template per record; it must equal the
    document as ``json.dumps(doc, indent=1)`` renders it."""

    @staticmethod
    def oracle(report):
        doc = {
            "suite": report.suite,
            "started_at": report.started_at,
            "config": report.config,
            "records": [rec.to_dict() for rec in report.records],
            "summary": report.summary,
        }
        return json.dumps(doc, indent=1)

    def test_sweeps_render_as_json_dumps(self):
        for spec in (
            RangeSpec(pmin=5, pmax=7, r_values=(1, 2, 3), sample=3, allow_p5=True),
            RangeSpec(theorems=("ortho", "lemma5"), pmin=5, pmax=5, r_values=(1,)),
        ):
            report = run_suite(spec)
            assert report.to_json() == self.oracle(report)

    def test_other_values_render_as_json_dumps(self):
        odd = verify_module.VerifyRecord(
            "X\u00e9\"\n", 5, 1, 5, {"a": [], "b": True, "c": "s\u2603", "d": [1, [2, 3]], "e": 1.5, "f": None},
            "", "\u00e9", False, 3,
        )
        for records in ([odd], []):
            report = verify_module.Report("s", "now", {"x": [1]}, records, {"total": len(records)})
            assert report.to_json() == self.oracle(report)


class TestGoldenReports:
    """Every plan's records, pinned: a refactor of the checks or of the plan
    table must leave these digests unchanged."""

    def test_all_theorems(self):
        report = run_suite(RangeSpec(pmin=5, pmax=11, r_values=(1, 2)))
        assert report.summary == {"total": 4260, "passed": 4260, "failed": 0, "skipped": 147}
        assert _report_digest(report) == "5111f41a767c7a3f6f233232fbdd256ae9398271fcfc066d3c34d1440043fbb9"

    def test_sampled(self):
        spec = RangeSpec(pmin=5, pmax=11, r_values=(1, 2), sample=4, seed=3, allow_p5=True)
        report = run_suite(spec)
        assert report.summary == {"total": 272, "passed": 272, "failed": 0, "skipped": 31}
        assert _report_digest(report) == "772b5aee2c201be796914d04ea9198a66efcdfcc3a80802e9b939ad889717e9a"

    def test_sampled_cubic_extensions(self):
        # verify all --pmin 5 --pmax 13 --r 3 --sample 3
        report = run_suite(RangeSpec(pmin=5, pmax=13, r_values=(3,), sample=3))
        assert report.summary == {"total": 151, "passed": 151, "failed": 0, "skipped": 5}
        assert _report_digest(report) == "be48d7b853f0c91a84dbc536034eaee4c0dbc69aa226d136d5f0596063801a3d"

    def test_standard_sweep(self):
        # verify all --pmin 5 --pmax 23 --r 1,2, the sweep every change keeps byte-identical
        report = run_suite(RangeSpec(pmin=5, pmax=23, r_values=(1, 2)))
        assert report.summary == {"total": 33626, "passed": 33626, "failed": 0, "skipped": 316}
        assert _report_digest(report) == "4d3ff448e7fcee99818a579ed3c772b81b753edb76b0237db2c1ed0a157664e0"

    def test_low_precision_sweep(self):
        # verify all --pmax 13 --K 1 --sample 6: p^1 <= 2 bound on every MC and
        # HESSIAN row, so each of their records fails as a precision shortfall
        report = run_suite(RangeSpec(pmax=13, K=1, sample=6))
        assert report.summary == {"total": 429, "passed": 363, "failed": 66, "skipped": 41}
        failed = Counter((rec.theorem, rec.rhs) for rec in report.records if not rec.passed)
        assert failed == {("MC", "unrecoverable(BoundTooLargeForPrecision)"): 36,
                          ("HESSIAN", "unrecoverable(BoundTooLargeForPrecision)"): 30}
        assert _report_digest(report) == "90dbd438bbf0c019e75170281c7e2a12493f926447a96734bdf834beece1ac1a"


class TestPlanCallsByName:
    """The plans look each row function up by its module name when they call
    it, so a wrapper installed on the module (as a tracer does) sees every
    row, and every record and skip of the report comes from such a call."""

    ROW_FUNCTIONS = {"mt1": "_mt1_row", "cor2": "_mt1_row", "bs1": "_bs1_row", "mc": "_mc_row",
                     "hessian": "_hessian_row"}

    @pytest.mark.parametrize(
        "theorem, exact",
        [("mt1", True), ("hessian", True), ("bs1", True), ("cor2", False), ("mc", False)],
    )
    def test_wrapper_sees_every_call(self, monkeypatch, theorem, exact):
        name = self.ROW_FUNCTIONS[theorem]
        row_function = getattr(verify_module, name)
        rows, records, skips = [], [], 0

        def counting(field, *args):
            nonlocal skips
            out = row_function(field, *args)
            rows.append((field.model, len(out[0]) + len(out[1])))
            records.extend(out[0])
            skips += len(out[1])
            return out

        monkeypatch.setattr(verify_module, name, counting)
        spec = RangeSpec(theorems=(theorem,), pmin=5, pmax=11, r_values=(1,), allow_p5=True, sample=6)
        report = run_suite(spec)
        assert report.summary["total"] > 0
        # one call per field, and each record or skip came from one
        assert [model for model, _ in rows] == [(p, 1, 0) for p in (5, 7, 11)]
        assert records == report.records and skips == report.summary["skipped"]
        if exact:
            # each instance is a drawn position; cor2 lists every root of a
            # drawn d, and mc draws until its sample of curves is nonsingular
            assert all(n <= spec.sample for _, n in rows)


def oracle_bs1_instances(field, partners=3):
    """The eager BS1 listing: every root's first ``partners`` admissible
    partners in index order, branch 1 then branch 2, unsampled."""
    one = field.one
    units = [field.from_index(i) for i in range(1, field.q)]
    trace_arg = lambda a, b: -27 * b * b / (4 * a**3)
    instances = []
    for k in units:
        a = -3 * k * k
        bs = (b for b in units if trace_arg(a, b) != one and not (k**3 + a * k + b).is_zero)
        instances += [(1, a, b, k) for b in islice(bs, partners)]
    for h in units:
        pairs = ((a, -(h**3 + a * h)) for a in units if not (3 * h * h + a).is_zero)
        pairs = ((a, b) for a, b in pairs if not b.is_zero and trace_arg(a, b) != one)
        instances += [(2, a, b, h) for a, b in islice(pairs, partners)]
    return instances


def oracle_bs1_draw(field, seed, sample, tag):
    """The oracle listing, sampled as the suite samples an argument list."""
    instances = oracle_bs1_instances(field)
    if sample is None or len(instances) <= sample:
        return instances
    return random.Random(f"{seed}:{tag}").sample(instances, sample)


def _indices(instances):
    return [(branch, a.idx, b.idx, root.idx) for branch, a, b, root in instances]


def _bs1_listing(field, seed=0, sample=None):
    """The lister's index rows as (branch, a, b, root) with FqElements."""
    run = verify_module._SuiteRun(RangeSpec(seed=seed, sample=sample))
    rows = verify_module._bs1_instances(run, field, f"bs1:{field.p}:{field.r}").tolist()
    return [(branch, *map(field.from_index, (a, b, root))) for branch, a, b, root in rows]


def _fields(qmin, qmax):
    return [
        (p, r)
        for r in (1, 2, 3)
        for p in range(5, qmax + 1)
        if is_prime(p) and qmin <= p**r <= qmax
    ]


class TestBS1Listing:
    """The positional BS1 lister against the eager listing it replaced."""

    @pytest.mark.parametrize("p, r", _fields(5, 49))
    def test_every_position(self, p, r):
        field = build_field(p, r)
        expected = _indices(oracle_bs1_instances(field))
        assert _indices(_bs1_listing(field)) == expected
        if field.q >= 9:
            assert len(expected) == 2 * 3 * (field.q - 1)

    def test_short_rows_at_q5(self):
        field = build_field(5, 1)
        lengths = Counter((branch, root.idx) for branch, _, _, root in oracle_bs1_instances(field))
        assert min(lengths.values()) < 3
        assert len(_bs1_listing(field)) == sum(lengths.values())

    @pytest.mark.parametrize("p, r", [(17, 2), (47, 2)])
    def test_seeded_positions_on_large_fields(self, p, r):
        field = build_field(p, r)
        for seed in (0, 1):
            drawn = _bs1_listing(field, seed=seed, sample=200)
            expected = oracle_bs1_draw(field, seed, 200, f"bs1:{p}:{r}")
            assert len(drawn) == 200
            assert _indices(drawn) == _indices(expected)

    @pytest.mark.parametrize("p, r", _fields(9, 121))
    def test_every_root_has_full_row(self, p, r):
        field = build_field(p, r)
        lengths = Counter((branch, root.idx) for branch, _, _, root in oracle_bs1_instances(field))
        assert len(lengths) == 2 * (field.q - 1)
        assert set(lengths.values()) == {3}

    @pytest.mark.parametrize("seed", range(5))
    def test_sampled_reports_match_oracle_draw(self, monkeypatch, seed):
        spec = RangeSpec(theorems=("bs1",), pmin=5, pmax=23, r_values=(1, 2), sample=40, seed=seed)
        report = run_suite(spec)
        min_p, [(tag, _, call)] = verify_module._PLANS["bs1"]

        def oracle_lister(run, field, tag):
            rows = _indices(oracle_bs1_draw(field, run.spec.seed, run.spec.sample, tag))
            return np.array(rows, dtype=np.int64).reshape(-1, 4)

        monkeypatch.setitem(verify_module._PLANS, "bs1", (min_p, [(tag, oracle_lister, call)]))
        expected = run_suite(spec)
        assert report.summary == expected.summary
        assert report.summary["total"] > 0
        assert _report_digest(report) == _report_digest(expected)


def oracle_cor2_roots(run, field, tag):
    """The per-d COR2 listing: for each sampled d in draw order, branch 1's
    square roots k of -m/3, then branch 2's nonzero roots h of x^3 + mx + n
    in index order, found by evaluating the cubics of a block of d at every
    unit; a d failing MT1's gates is listed once, as (1, d, 0)."""
    q, p, d = field.q, field.p, verify_module._unit_indices(run, field, tag)
    gates, m, n = verify_module._mt1_gates(field, d)
    good = verify_module._gated(gates, np.arange(len(d)))[1]
    s = field.dlog_np[field.np_div(m, -3 % p)]
    even = good[s[good] % 2 == 0]
    k = field.exp_np[np.add.outer(s[even] // 2, [0, (q - 1) // 2])].ravel()
    bad, xs = np.setdiff1d(np.arange(len(d)), good), np.arange(1, q)
    keys, roots, cubes = [bad, np.repeat(even, 2)], [np.zeros_like(bad), k], field.np_pow(xs, 3)
    step = GATHER_ELEMENTS // (q - 1)  # the cubics of a block of d at every unit at once
    for block in np.split(good, range(step, len(good), step)):
        mx = field.np_mul(m[block, None], xs)
        i, j = np.nonzero(field.np_add(field.np_add(cubes, mx), n[block, None]) == 0)
        keys.append(block[i])
        roots.append(xs[j])
    branch = np.repeat([1, 1, 2], [len(keys[0]), len(k), sum(map(len, keys[2:]))])
    keys = np.concatenate(keys)
    return np.stack([branch, d[keys], np.concatenate(roots)], axis=1)[np.argsort(keys, kind="stable")]


class TestCOR2Listing:
    """The 2-torsion COR2 lister against the per-d cubic scan it replaced,
    at every position of the listing and in its length."""

    @staticmethod
    def listings(p, r, seed=0, sample=None):
        field = build_field(p, r)
        run = verify_module._SuiteRun(RangeSpec(seed=seed, sample=sample))
        tag = f"cor2:{p}:{r}"
        return verify_module._cor2_roots(run, field, tag), oracle_cor2_roots(run, field, tag)

    @pytest.mark.parametrize("p, r", _fields(5, 2500))
    def test_every_position(self, p, r):
        listed, expected = self.listings(p, r)
        assert listed.shape == expected.shape
        assert (listed == expected).all()

    @pytest.mark.parametrize("p, r", [(11, 2), (13, 2), (31, 2), (47, 2), (7, 3), (101, 1), (1009, 1)])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_sampled_positions(self, p, r, seed):
        listed, expected = self.listings(p, r, seed=seed, sample=30)
        assert listed.shape == expected.shape
        assert (listed == expected).all()

    @pytest.mark.parametrize("r", [1, 2])
    def test_gated_d_are_listed_once(self, r):
        listed, expected = self.listings(7, r)
        gated = listed[(listed[:, 0] == 1) & (listed[:, 2] == 0)]
        assert len(gated) > 0
        assert len(set(gated[:, 1].tolist())) == len(gated)
        assert listed.shape == expected.shape
        assert (listed == expected).all()


def oracle_mc_draws(run, field, tag):
    """The scalar MC draw: one (a, b) at a time until ``sample`` are nonsingular."""
    want = run.spec.sample if run.spec.sample is not None else 20
    rng = random.Random(f"{run.spec.seed}:{tag}")
    draws, nonsingular = [], 0
    while nonsingular < want and len(draws) < 100 * want:
        a, b = (field.from_index(rng.randrange(1, field.q)) for _ in "ab")
        draws.append((a.idx, b.idx))
        nonsingular += not (4 * a**3 + 27 * b * b).is_zero
    return np.array(draws, dtype=np.int64).reshape(-1, 2)


class TestMCDraws:
    """The batched MC draw against the scalar loop it replaced."""

    @pytest.mark.parametrize("p, r", [(p, r) for r in (1, 2) for p in range(5, 48) if is_prime(p)])
    def test_identical_draws(self, p, r):
        field = build_field(p, r)
        tag, singular = f"mc:{p}:{r}", 0
        for seed in range(5):
            for sample in (0, 1, 20, 40):
                run = verify_module._SuiteRun(RangeSpec(seed=seed, sample=sample))
                drawn, expected = verify_module._mc_draws(run, field, tag), oracle_mc_draws(run, field, tag)
                assert drawn.shape == expected.shape and (drawn == expected).all(), (seed, sample)
                singular += len(expected) - sample
        if field.q in (5, 7, 25):
            assert singular > 0


class TestColdPath:
    def test_series_sweeps_import_no_numpy_module(self):
        """The series plans use no numpy module that ``import numpy`` leaves
        unloaded (``numpy.ma``, ``numpy.char``, ...), so a cold sweep pays
        for no such import.  A fresh interpreter starts numpy's cache clean."""
        code = (
            "import sys\n"
            "import padichyper\n"
            "before = set(sys.modules)\n"
            "spec = padichyper.RangeSpec(theorems=('mt1', 'cor2', 'bs1', 'mc', 'hessian'), pmin=5, pmax=11,\n"
            "                            r_values=(1, 2), allow_p5=True)\n"
            "assert padichyper.run_suite(spec).summary['total'] > 0\n"
            "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy.')))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_other_plans_import_no_numpy_module_but_fft(self):
        """lemma31, lemma5, eq29 and ortho load no such module either; gauss
        may load only ``numpy.fft``, which its FFT Gauss-sum tables use, and
        which ``import padichyper`` already loads for the Hessian counts'
        correlation.  Each plan's sweep is charged with the modules it loads
        first."""
        code = (
            "import sys\n"
            "import padichyper\n"
            "for theorem in ('lemma31', 'lemma5', 'eq29', 'ortho', 'gauss'):\n"
            "    before = set(sys.modules)\n"
            "    spec = padichyper.RangeSpec(theorems=(theorem,), pmin=5, pmax=89, r_values=(1, 2), qmax=200)\n"
            "    assert padichyper.run_suite(spec).summary['total'] > 0\n"
            "    print(theorem, *sorted(m for m in set(sys.modules) - before if m.startswith('numpy.')))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = {theorem: modules for theorem, *modules in map(str.split, proc.stdout.splitlines())}
        gauss = loaded.pop("gauss")
        assert all(m.startswith("numpy.fft") for m in gauss), gauss
        assert loaded == {"lemma31": [], "lemma5": [], "eq29": [], "ortho": []}
