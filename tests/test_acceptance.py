"""Acceptance suite: every criterion below runs at its stated tolerance and
prints one PASS/FAIL line.  All identity checks are exact (p-adic equality at
the default working precision, or exact integers); the Gauss-sum suite uses
the absolute tolerance 1e-6 * q."""

import json
import random
import time
from fractions import Fraction

from padichyper.fields import build_field
from padichyper.gamma import gamma_cache, verify_reflection
from padichyper.padic import default_precision, is_prime
from padichyper.verify import RangeSpec, run_suite


def report_line(label: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {label}" + (f"  ({detail})" if detail else ""))
    assert ok, label


def sweep_each_field(theorems, cases):
    """One run_suite per (p, r, K) case, over that field alone; returns
    (records checked, every record passed and none was skipped)."""
    total, ok = 0, True
    for p, r, K in cases:
        summary = run_suite(RangeSpec(theorems=theorems, pmin=p, pmax=p, r_values=(r,), K=K)).summary
        total += summary["total"]
        ok = ok and summary["passed"] == summary["total"] and summary["skipped"] == 0
    return total, ok


def odd_prime_powers(limit: int):
    out = []
    for p in range(3, limit + 1, 2):
        if not is_prime(p):
            continue
        q = p
        r = 1
        while q <= limit:
            out.append((p, r, q))
            q *= p
            r += 1
    return sorted(out, key=lambda t: t[2])


class TestAcceptance:
    def test_trace_formula_end_to_end(self):
        # every p in (3, 50], r in {1,2} with q <= 2500; 20 seeded curves per q
        t0 = time.time()
        report = run_suite(
            RangeSpec(theorems=("mc",), pmin=5, pmax=47, r_values=(1, 2), seed=0, qmax=2500)
        )
        dt = time.time() - t0
        ok = report.summary["failed"] == 0 and report.summary["total"] >= 20 * 20 and dt < 300
        report_line(
            "trace of Frobenius vs q*series for all q <= 2500, 20 curves each",
            ok,
            f"{report.summary['passed']}/{report.summary['total']} in {dt:.1f}s",
        )

    def test_main_transformation(self):
        r1 = run_suite(RangeSpec(theorems=("mt1",), pmin=7, pmax=47, r_values=(1,)))
        r2 = run_suite(RangeSpec(theorems=("mt1",), pmin=5, pmax=11, r_values=(2,)))
        ok = (
            r1.summary["failed"] == 0
            and r2.summary["failed"] == 0
            and r1.summary["total"] > 0
            and r2.summary["total"] > 0
        )
        report_line(
            "sixth-parameter transformation, exhaustive d (r=1 p<=47; r=2 q<=121)",
            ok,
            f"r=1 {r1.summary['passed']}/{r1.summary['total']}, r=2 {r2.summary['passed']}/{r2.summary['total']}",
        )

    def test_hessian_closed_form(self):
        r1 = run_suite(RangeSpec(theorems=("hessian",), pmin=7, pmax=37, r_values=(1,)))
        r2 = run_suite(
            RangeSpec(theorems=("hessian",), pmin=5, pmax=11, r_values=(2,), allow_p5=True)
        )
        branches = {build_field(rec.p, rec.r).q % 3 for rec in r1.records + r2.records}
        ok = (
            r1.summary["failed"] == 0
            and r2.summary["failed"] == 0
            and r1.summary["total"] > 0
            and r2.summary["total"] > 0
            and branches == {1, 2}
        )
        report_line(
            "Hessian cubic count vs closed form (r=1 p<=37; q in {25,49,121}; both alpha branches)",
            ok,
            f"r=1 {r1.summary['passed']}/{r1.summary['total']}, r=2 {r2.summary['passed']}/{r2.summary['total']}",
        )

    def test_corollary_and_square_root_branches(self):
        report = run_suite(
            RangeSpec(theorems=("cor2", "bs1"), pmin=5, pmax=47, r_values=(1, 2), seed=0, qmax=500)
        )
        counts = {}
        for rec in report.records:
            counts[rec.theorem] = counts.get(rec.theorem, 0) + 1
        ok = report.summary["failed"] == 0 and all(
            counts.get(name, 0) > 0 for name in ("COR2_1", "COR2_2", "BS1_1", "BS1_2")
        )
        report_line(
            "corollary and direct-transformation branches, all discovered instances (q <= 500)",
            ok,
            f"{report.summary['passed']}/{report.summary['total']} " + json.dumps(counts, sort_keys=True),
        )

    def test_floor_identity(self):
        t0 = time.time()
        cases = [(7, 1), (11, 1), (13, 1), (5, 2), (7, 2), (11, 2), (13, 2)]
        total, ok = sweep_each_field(("lemma5",), [(p, r, None) for p, r in cases])
        dt = time.time() - t0
        # every l in [1, q-2] but (q-1)/2, for each i < r
        ok = ok and total == sum((p**r - 3) * r for p, r in cases) == 726
        ok = ok and dt < 5
        report_line(
            "floor identity, exhaustive (l, i) for q in {7,11,13,25,49,121,169}",
            ok,
            f"{total} cases in {dt:.2f}s",
        )

    def test_gamma_product_identities(self):
        cases = [(7, 1), (13, 1), (5, 2), (7, 2)]
        K = {(p, r): max(5, default_precision(p, r)) for p, r in cases}
        total, ok = sweep_each_field(("lemma31", "eq29"), [(p, r, K[p, r]) for p, r in cases])
        # lemma31: t in (2, 3, 6) by every j in [0, q-2]; eq29: every l in [1, q-2]
        ok = ok and total == sum(3 * (p**r - 1) + p**r - 2 for p, r in cases) == 356
        report_line(
            "gamma product identities, exhaustive j and l for q in {7,13,25,49} at K >= 5",
            ok,
            f"{total} cases",
        )

    def test_gauss_sum_suite(self):
        fields = odd_prime_powers(121)
        total, ok = sweep_each_field(("ortho", "gauss"), [(p, r, None) for p, r, _ in fields])
        # one ORTHO, every k in [1, q-2], every unit alpha, and every psi for
        # each m in (2, 3, 6) dividing q - 1
        dh = lambda q: sum(q - 1 for m in (2, 3, 6) if (q - 1) % m == 0)
        ok = ok and total == sum(1 + (q - 2) + (q - 1) + dh(q) for _, _, q in fields) == 7440
        report_line(
            "Gauss sum float suite (orthogonality, products, expansion, Davenport-Hasse) for q <= 121",
            ok,
            f"{total} checks at tol 1e-6*q",
        )

    def test_gamma_unit_suite(self):
        ok = True
        checks = 0
        for p in (5, 7, 11, 13):
            K = 5
            cache = gamma_cache(p, K)
            ok = ok and cache.gamma(Fraction(0)) == 1
            ok = ok and cache.gamma(Fraction(1)) == p**K - 1
            checks += 2
            rng = random.Random(1000 + p)
            for _ in range(1000):
                den = rng.choice([1, 2, 3, 4, 6, 12])
                if den % p == 0:
                    den = 1
                x = Fraction(rng.randrange(-10**6, 10**6), den)
                mlevel = rng.randrange(1, K + 1)
                y = x + rng.randrange(1, p) * p**mlevel
                ok = ok and (cache.gamma(x) - cache.gamma(y)) % p**mlevel == 0
                checks += 1
            for _ in range(200):
                den = rng.choice([1, 2, 3, 4, 6, 12])
                if den % p == 0:
                    den = 1
                x = Fraction(rng.randrange(-10**4, 10**4), den)
                ok = ok and verify_reflection(x, cache)
                checks += 1
        report_line(
            "gamma unit tests: endpoint values, digit agreement, reflection sign",
            ok,
            f"{checks} checks",
        )

    def test_suite_determinism(self):
        spec = RangeSpec(
            theorems=(
                "mt1",
                "cor2",
                "bs1",
                "mc",
                "hessian",
                "lemma31",
                "lemma5",
                "eq29",
                "gauss",
                "ortho",
            ),
            pmin=5,
            pmax=7,
            r_values=(1,),
            seed=11,
            allow_p5=True,
        )

        def normalized(report) -> str:
            doc = json.loads(report.to_json())
            doc["started_at"] = "T"
            for rec in doc["records"]:
                rec["elapsed_ms"] = 0
            return json.dumps(doc, indent=1)

        a = normalized(run_suite(spec))
        b = normalized(run_suite(spec))
        report_line(
            "full-suite determinism: identical flags give byte-identical reports",
            a == b,
            f"{len(a)} bytes compared",
        )
