"""Theorem-level identity checks and the range-sweeping verification suite.

Each ``verify_*`` function evaluates both sides of one transformation or
point-count identity, gates its hypotheses exactly (raising
PreconditionFailed with the violated gate's name), and returns a
VerifyRecord.  ``run_suite`` sweeps primes and parameters, aggregates the
records into a report, and renders it as a table, JSON, or CSV.

The transformation identities are implemented in the form that the
enumeration cross-checks force: the Weierstrass model bridged to the Hessian
cubic carries n = 54(d^6 - 20d^3 - 8), the scalar correction is
alpha + phi(-3) (identically zero, kept in the alpha-verbatim bookkeeping),
and the square-root-free branch characters carry the phi(3h) twist.  Each of
these is pinned by exhaustive point-count agreement in the test suite.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import time

import numpy as np
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction

from .curves import (
    HessianCurve,
    WeierstrassCurve,
    count_hessian,
    count_weierstrass,
    hessian_bridge,
)
from .errors import PreconditionFailed, SingularCurve, PadicHyperError
from .fields import FqElement, FqField, build_field, check_orthogonality, phi, uctx_for
from .gamma import lemma31_sides, lemma5_sides, eq29_sides
from .gauss import (
    davenport_hasse_sides,
    default_tolerance,
    gk_product_sides,
    theta_expansion_sides,
)
from .hyper import GParams, profile_for, recover_integer
from .padic import PadicNumber, default_precision, is_prime, padic_sum

PARAMS_QUARTER_THIRD = GParams(2, (Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 3), Fraction(2, 3)))
PARAMS_HALF_SIXTH = GParams(2, (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 6), Fraction(5, 6)))
PARAMS_HALF_THIRD = GParams(2, (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3)))
PARAMS_HALF_QUARTER = GParams(2, (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4)))

THEOREM_NAMES = (
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
)


def _alpha(field: FqField) -> int:
    """The branch scalar 5 - 6 phi(-3) for q = 1 mod 3, else 1."""
    if field.q % 3 == 1:
        return 5 - 6 * phi(field.element(-3))
    return 1


@dataclass
class VerifyRecord:
    """One identity check: what was compared, both sides, verdict, timing."""

    theorem: str
    p: int
    r: int
    K: int
    params: dict
    lhs: str
    rhs: str
    passed: bool
    elapsed_ms: int

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "p": self.p,
            "r": self.r,
            "K": self.K,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
            "elapsed_ms": self.elapsed_ms,
        }


def _param(x: FqElement):
    return x.idx if x.field.r == 1 else list(x.coeffs)


def _gate(cond: bool, name: str) -> None:
    if not cond:
        raise PreconditionFailed(name)


def _setup(p: int, r: int, K: int | None, variant: int = 0):
    field = build_field(p, r, variant=variant)
    if K is None:
        K = default_precision(p, r)
    return field, K, uctx_for(field, K)


def _cplx(z: complex) -> str:
    return f"{z.real:.12e}{z.imag:+.12e}j"


def _zq_str(z) -> str:
    return ".".join(str(c) for c in z.coeffs)


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.ms = int(round((time.perf_counter() - self.t0) * 1000))
        return False


# ---------------------------------------------------------------------------
# transformation checks


def _lhs_mt1(field: FqField, uctx, d: FqElement) -> PadicNumber:
    prof = profile_for(PARAMS_HALF_SIXTH, field, uctx)
    return prof.eval_qg(1 / d**3).scale_int(phi(-3 * d))


def _mt1_gates(field: FqField, d: FqElement):
    _gate(field.p > 3, "p_too_small")
    _gate(not d.is_zero, "d_is_zero")
    _gate(not (d**3 - 1).is_zero, "d_cubed_is_one")
    m, n = hessian_bridge(d)
    _gate(not m.is_zero, "m_is_zero")
    _gate(not n.is_zero, "n_is_zero")
    t2 = -27 * n * n / (4 * m**3)
    _gate(t2 != field.one, "g_argument_is_one")
    return m, n, t2


def verify_mt1(p: int, r: int, d, K: int | None = None, variant: int = 0) -> VerifyRecord:
    """Main transformation between the [1/2,1/2;1/6,5/6] series at 1/d^3 and
    the [1/4,3/4;1/3,2/3] series at the bridged Weierstrass argument."""
    field, K, uctx = _setup(p, r, K, variant)
    d = field.element(d)
    with _Timer() as tm:
        m, n, t2 = _mt1_gates(field, d)
        lhs = _lhs_mt1(field, uctx, d)
        scal = _alpha(field) + phi(field.element(-3))
        rhs_g = profile_for(PARAMS_QUARTER_THIRD, field, uctx).eval_qg(t2).scale_int(phi(n))
        rhs = padic_sum([PadicNumber.from_int(scal, uctx), rhs_g])
        passed = lhs.agrees_to(rhs, K)
    return VerifyRecord(
        "MT1", p, r, K, {"d": _param(d)}, lhs.digits(), rhs.digits(), passed, tm.ms
    )


def verify_cor2(branch: int, p: int, r: int, d, aux, K: int | None = None, variant: int = 0) -> VerifyRecord:
    """The two corollary branches: the bridged series argument is rewritten
    through a root of the branch equation (3k^2 + m = 0, or x^3 + mx + n = 0)."""
    if branch not in (1, 2):
        raise ValueError("branch must be 1 or 2")
    field, K, uctx = _setup(p, r, K, variant)
    d = field.element(d)
    aux = field.element(aux)
    with _Timer() as tm:
        m, n, _ = _mt1_gates(field, d)
        lhs = _lhs_mt1(field, uctx, d)
        scal = _alpha(field) + phi(field.element(-3))
        if branch == 1:
            k = aux
            _gate(not k.is_zero, "k_is_zero")
            _gate((3 * k * k + m).is_zero, "branch_equation")
            val = k**3 + m * k + n
            _gate(not val.is_zero, "branch_value_zero")
            char = phi(val)
            rhs_g = (
                profile_for(PARAMS_HALF_THIRD, field, uctx)
                .eval_qg(-val / (4 * k**3))
                .scale_int(char)
            )
            params = {"d": _param(d), "k": _param(k)}
        else:
            h = aux
            _gate(not h.is_zero, "h_is_zero")
            _gate((h**3 + m * h + n).is_zero, "branch_equation")
            w = 3 * h * h + m
            _gate(not w.is_zero, "branch_value_zero")
            char = phi(-3 * h * w)
            rhs_g = (
                profile_for(PARAMS_HALF_QUARTER, field, uctx)
                .eval_qg(4 * w / (9 * h * h))
                .scale_int(char)
            )
            params = {"d": _param(d), "h": _param(h)}
        rhs = padic_sum([PadicNumber.from_int(scal, uctx), rhs_g])
        passed = lhs.agrees_to(rhs, K)
    return VerifyRecord(
        f"COR2_{branch}", p, r, K, params, lhs.digits(), rhs.digits(), passed, tm.ms
    )


def verify_bs1(branch: int, p: int, r: int, a, b, aux, K: int | None = None, variant: int = 0) -> VerifyRecord:
    """The two series transformations at -27b^2/4a^3: toward [1/2,1/2;1/3,2/3]
    when a = -3k^2, toward [1/2,1/2;1/4,3/4] through a root of x^3 + ax + b.

    Both sides are compared after the q-scaling that makes them p-adic
    integers (equivalent to comparing the series values mod p^{K-r}).
    """
    if branch not in (1, 2):
        raise ValueError("branch must be 1 or 2")
    field, K, uctx = _setup(p, r, K, variant)
    a = field.element(a)
    b = field.element(b)
    aux = field.element(aux)
    with _Timer() as tm:
        _gate(field.p > 3, "p_too_small")
        _gate(not a.is_zero, "a_is_zero")
        _gate(not b.is_zero, "b_is_zero")
        t1 = -27 * b * b / (4 * a**3)
        _gate(t1 != field.one, "g_argument_is_one")
        lhs = profile_for(PARAMS_QUARTER_THIRD, field, uctx).eval_qg(t1)
        if branch == 1:
            k = aux
            _gate(not k.is_zero, "k_is_zero")
            _gate((a + 3 * k * k).is_zero, "branch_equation")
            val = k**3 + a * k + b
            _gate(not val.is_zero, "branch_value_zero")
            rhs = (
                profile_for(PARAMS_HALF_THIRD, field, uctx)
                .eval_qg(-val / (4 * k**3))
                .scale_int(phi(b * val))
            )
            params = {"a": _param(a), "b": _param(b), "k": _param(k)}
        else:
            h = aux
            _gate(not h.is_zero, "h_is_zero")
            _gate((h**3 + a * h + b).is_zero, "branch_equation")
            w = 3 * h * h + a
            _gate(not w.is_zero, "branch_value_zero")
            rhs = (
                profile_for(PARAMS_HALF_QUARTER, field, uctx)
                .eval_qg(4 * w / (9 * h * h))
                .scale_int(phi(-3 * b * h * w))
            )
            params = {"a": _param(a), "b": _param(b), "h": _param(h)}
        passed = lhs.agrees_to(rhs, K)
    return VerifyRecord(
        f"BS1_{branch}", p, r, K, params, lhs.digits(), rhs.digits(), passed, tm.ms
    )


def verify_mc(p: int, r: int, a, b, K: int | None = None, variant: int = 0) -> VerifyRecord:
    """Trace formula: the enumerated trace of Frobenius of y^2 = x^3 + ax + b
    against phi(b) q 2G2[1/4,3/4;1/3,2/3 | -27b^2/4a^3] recovered as an integer."""
    field, K, uctx = _setup(p, r, K, variant)
    a = field.element(a)
    b = field.element(b)
    with _Timer() as tm:
        _gate(field.p > 3, "p_too_small")
        _gate(not a.is_zero, "j_is_zero")
        _gate(not b.is_zero, "j_is_1728")
        try:
            E = WeierstrassCurve(a, b)
        except SingularCurve:
            raise PreconditionFailed("singular_curve")
        tr = count_weierstrass(E, field).trace
        H = (
            profile_for(PARAMS_QUARTER_THIRD, field, uctx)
            .eval_qg(-27 * b * b / (4 * a**3))
            .scale_int(phi(b))
        )
        bound = math.isqrt(4 * field.q)
        try:
            rec = recover_integer(H, bound, p=p)
            rhs = str(rec)
            passed = rec == tr
        except PadicHyperError as exc:
            rhs = f"unrecoverable({exc.__class__.__name__})"
            passed = False
    return VerifyRecord(
        "MC", p, r, K, {"a": _param(a), "b": _param(b)}, str(tr), rhs, passed, tm.ms
    )


def verify_hessian(
    p: int, r: int, a, K: int | None = None, allow_small_p: bool = False, variant: int = 0
) -> VerifyRecord:
    """Enumerated affine count of x^3 + y^3 + 1 = 3axy against the closed form
    alpha - 1 + q - q phi(-3a) 2G2[1/2,1/2;1/6,5/6 | 1/a^3]."""
    field, K, uctx = _setup(p, r, K, variant)
    a = field.element(a)
    with _Timer() as tm:
        _gate(p > 5 or (allow_small_p and p > 3), "p_too_small")
        _gate(not a.is_zero, "a_is_zero")
        _gate(not (a**3 - 1).is_zero, "a_cubed_is_one")
        count = count_hessian(HessianCurve(a), field)
        H = (
            profile_for(PARAMS_HALF_SIXTH, field, uctx)
            .eval_qg(1 / a**3)
            .scale_int(phi(-3 * a))
        )
        alpha = _alpha(field)
        bound = field.q + 6 * math.isqrt(field.q) + 6
        try:
            X = recover_integer(H, bound, p=p)
            formula = alpha - 1 + field.q - X
            rhs = str(formula)
            passed = count == formula
        except PadicHyperError as exc:
            rhs = f"unrecoverable({exc.__class__.__name__})"
            passed = False
    return VerifyRecord(
        "HESSIAN", p, r, K, {"a": _param(a)}, str(count), rhs, passed, tm.ms
    )


# ---------------------------------------------------------------------------
# lemma-level and float checks as records


def verify_lemma31_record(p: int, r: int, t: int, j: int, K: int | None = None) -> VerifyRecord:
    field, K, uctx = _setup(p, r, K)
    with _Timer() as tm:
        _gate(t % p != 0, "t_divisible_by_p")
        (l1, r1), (l2, r2) = lemma31_sides(t, j, uctx)
        passed = l1.coeffs == r1.coeffs and l2.coeffs == r2.coeffs
    lhs = f"{_zq_str(l1)};{_zq_str(l2)}"
    rhs = f"{_zq_str(r1)};{_zq_str(r2)}"
    return VerifyRecord("LEMMA31", p, r, K, {"t": t, "j": j}, lhs, rhs, passed, tm.ms)


def verify_eq29_record(p: int, r: int, l: int, K: int | None = None) -> VerifyRecord:
    field, K, uctx = _setup(p, r, K)
    with _Timer() as tm:
        lhs, rhs = eq29_sides(l, uctx)
        passed = lhs.coeffs == rhs.coeffs
    return VerifyRecord(
        "EQ29", p, r, K, {"l": l}, _zq_str(lhs), _zq_str(rhs), passed, tm.ms
    )


def verify_lemma5_record(p: int, r: int, l: int, i: int) -> VerifyRecord:
    K = default_precision(p, r)
    with _Timer() as tm:
        lhs, rhs = lemma5_sides(l, i, p, r)
        passed = lhs == rhs
    return VerifyRecord(
        "LEMMA5", p, r, K, {"l": l, "i": i}, str(lhs), str(rhs), passed, tm.ms
    )


def verify_gauss_gk_record(p: int, r: int, k: int) -> VerifyRecord:
    field = build_field(p, r)
    with _Timer() as tm:
        lhs, rhs = gk_product_sides(k, field)
        passed = abs(lhs - rhs) < default_tolerance(field)
    return VerifyRecord(
        "GAUSS_GK", p, r, 0, {"k": k}, _cplx(lhs), _cplx(rhs), passed, tm.ms
    )


def verify_gauss_theta_record(p: int, r: int, alpha_idx: int) -> VerifyRecord:
    field = build_field(p, r)
    with _Timer() as tm:
        alpha = field.from_index(alpha_idx)
        lhs, rhs = theta_expansion_sides(alpha, field)
        passed = abs(lhs - rhs) < default_tolerance(field)
    return VerifyRecord(
        "GAUSS_THETA", p, r, 0, {"alpha": _param(alpha)}, _cplx(lhs), _cplx(rhs), passed, tm.ms
    )


def verify_gauss_dh_record(p: int, r: int, m: int, psi: int) -> VerifyRecord:
    field = build_field(p, r)
    with _Timer() as tm:
        lhs, rhs = davenport_hasse_sides(m, psi, field)
        passed = abs(lhs - rhs) < default_tolerance(field)
    return VerifyRecord(
        "GAUSS_DH", p, r, 0, {"m": m, "psi": psi}, _cplx(lhs), _cplx(rhs), passed, tm.ms
    )


def verify_ortho_record(p: int, r: int) -> VerifyRecord:
    field = build_field(p, r)
    with _Timer() as tm:
        passed = check_orthogonality(field)
    return VerifyRecord(
        "ORTHO", p, r, 0, {}, "exact", "exact" if passed else "violated", passed, tm.ms
    )


# ---------------------------------------------------------------------------
# the suite


@dataclass(frozen=True)
class RangeSpec:
    """What to verify and over which ranges."""

    theorems: tuple[str, ...] = THEOREM_NAMES
    pmin: int = 7
    pmax: int = 47
    r_values: tuple[int, ...] = (1, 2)
    K: int | None = None
    seed: int = 0
    sample: int | None = None
    allow_p5: bool = False
    qmax: int = 2500

    def config_dict(self) -> dict:
        return {
            "theorems": list(self.theorems),
            "pmin": self.pmin,
            "pmax": self.pmax,
            "r": list(self.r_values),
            "K": self.K,
            "seed": self.seed,
            "sample": self.sample,
            "allow_p5": self.allow_p5,
            "qmax": self.qmax,
        }


@dataclass
class Report:
    suite: str
    started_at: str
    config: dict
    records: list[VerifyRecord]
    summary: dict

    def to_json(self) -> str:
        doc = {
            "suite": self.suite,
            "started_at": self.started_at,
            "config": self.config,
            "records": [rec.to_dict() for rec in self.records],
            "summary": self.summary,
        }
        return json.dumps(doc, indent=1)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["theorem", "p", "r", "K", "params", "lhs", "rhs", "pass", "elapsed_ms"])
        for rec in self.records:
            writer.writerow(
                [
                    rec.theorem,
                    rec.p,
                    rec.r,
                    rec.K,
                    json.dumps(rec.params, sort_keys=True, separators=(",", ":")),
                    rec.lhs,
                    rec.rhs,
                    rec.passed,
                    rec.elapsed_ms,
                ]
            )
        return buf.getvalue()

    def to_table(self) -> str:
        lines = [f"suite: {self.suite}  started: {self.started_at}"]
        for rec in self.records:
            tag = "PASS" if rec.passed else "FAIL"
            params = json.dumps(rec.params, sort_keys=True, separators=(",", ":"))
            lines.append(
                f"{tag}  {rec.theorem:<11} p={rec.p:<4} r={rec.r} K={rec.K:<2} "
                f"{params:<28} lhs={rec.lhs} rhs={rec.rhs}"
            )
        s = self.summary
        lines.append(
            f"total={s['total']} passed={s['passed']} failed={s['failed']} skipped={s['skipped']}"
        )
        return "\n".join(lines)

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0


class _SuiteRun:
    def __init__(self, spec: RangeSpec):
        self.spec = spec
        self.records: list[VerifyRecord] = []
        self.skipped = 0

    def attempt(self, fn, *args, **kwargs):
        try:
            self.records.append(fn(*args, **kwargs))
        except PreconditionFailed:
            self.skipped += 1

    def sampled(self, items: list, tag: str) -> list:
        n = self.spec.sample
        if n is None or len(items) <= n:
            return items
        rng = random.Random(f"{self.spec.seed}:{tag}")
        return rng.sample(items, n)


def _plan_mt1(run: _SuiteRun, p: int, r: int):
    q = p**r
    for di in run.sampled(list(range(1, q)), f"mt1:{p}:{r}"):
        run.attempt(verify_mt1, p, r, build_field(p, r).from_index(di), K=run.spec.K)


def _cubic_roots(field: FqField, m: FqElement, n: FqElement) -> list[int]:
    """Indices of the roots of x^3 + m x + n, by a vectorized scan."""
    xs = np.arange(field.q, dtype=np.int64)
    fx = field.np_add(
        field.np_add(field.np_pow(xs, 3), field.np_mul_const(m.idx, xs)), n.idx
    )
    return [int(i) for i in np.nonzero(fx == 0)[0]]


def _plan_cor2(run: _SuiteRun, p: int, r: int):
    field = build_field(p, r)
    q = field.q
    for di in run.sampled(list(range(1, q)), f"cor2:{p}:{r}"):
        d = field.from_index(di)
        try:
            m, n, _ = _mt1_gates(field, d)
        except PreconditionFailed:
            run.skipped += 1
            continue
        # branch 1: square roots of -m/3
        target = -m / 3
        s = field.dlog[target.idx]
        if s % 2 == 0:
            for half in (s // 2, s // 2 + (q - 1) // 2):
                k = field.from_index(field.exp[half % (q - 1)])
                run.attempt(verify_cor2, 1, p, r, d, k, K=run.spec.K)
        # branch 2: roots of x^3 + mx + n
        for hi in _cubic_roots(field, m, n):
            if hi:
                run.attempt(verify_cor2, 2, p, r, d, field.from_index(hi), K=run.spec.K)


def _plan_bs1(run: _SuiteRun, p: int, r: int, partners: int = 3):
    field = build_field(p, r)
    q = field.q
    one = field.one
    instances: list[tuple[int, FqElement, FqElement, FqElement]] = []
    for ki in range(1, q):
        k = field.from_index(ki)
        a = -3 * k * k
        if a.is_zero:
            continue
        found = 0
        for bi in range(1, q):
            if found >= partners:
                break
            b = field.from_index(bi)
            t1 = -27 * b * b / (4 * a**3)
            if t1 == one or (k**3 + a * k + b).is_zero:
                continue
            instances.append((1, a, b, k))
            found += 1
    for hi in range(1, q):
        h = field.from_index(hi)
        found = 0
        for ai in range(1, q):
            if found >= partners:
                break
            a = field.from_index(ai)
            b = -(h**3 + a * h)
            if b.is_zero:
                continue
            t1 = -27 * b * b / (4 * a**3)
            if t1 == one or (3 * h * h + a).is_zero:
                continue
            instances.append((2, a, b, h))
            found += 1
    for branch, a, b, aux in run.sampled(instances, f"bs1:{p}:{r}"):
        run.attempt(verify_bs1, branch, p, r, a, b, aux, K=run.spec.K)


def _plan_mc(run: _SuiteRun, p: int, r: int):
    field = build_field(p, r)
    q = field.q
    want = run.spec.sample if run.spec.sample is not None else 20
    rng = random.Random(f"{run.spec.seed}:mc:{p}:{r}")
    drawn = 0
    attempts = 0
    while drawn < want and attempts < 100 * want:
        attempts += 1
        a = field.from_index(rng.randrange(1, q))
        b = field.from_index(rng.randrange(1, q))
        if (4 * a**3 + 27 * b * b).is_zero:
            run.skipped += 1
            continue
        run.attempt(verify_mc, p, r, a, b, K=run.spec.K)
        drawn += 1


def _plan_hessian(run: _SuiteRun, p: int, r: int):
    q = p**r
    field = build_field(p, r)
    for ai in run.sampled(list(range(1, q)), f"hessian:{p}:{r}"):
        run.attempt(
            verify_hessian, p, r, field.from_index(ai), K=run.spec.K, allow_small_p=run.spec.allow_p5
        )


def _plan_lemma31(run: _SuiteRun, p: int, r: int):
    q = p**r
    pairs = [(t, j) for t in (2, 3, 6) if t % p for j in range(q - 1)]
    for t, j in run.sampled(pairs, f"lemma31:{p}:{r}"):
        run.attempt(verify_lemma31_record, p, r, t, j, K=run.spec.K)


def _plan_lemma5(run: _SuiteRun, p: int, r: int):
    q = p**r
    pairs = [
        (l, i) for l in range(1, q - 1) if 2 * l != q - 1 for i in range(r)
    ]
    for l, i in run.sampled(pairs, f"lemma5:{p}:{r}"):
        run.attempt(verify_lemma5_record, p, r, l, i)


def _plan_eq29(run: _SuiteRun, p: int, r: int):
    q = p**r
    for l in run.sampled(list(range(1, q - 1)), f"eq29:{p}:{r}"):
        run.attempt(verify_eq29_record, p, r, l, K=run.spec.K)


def _plan_gauss(run: _SuiteRun, p: int, r: int):
    q = p**r
    for k in run.sampled(list(range(1, q - 1)), f"gauss_gk:{p}:{r}"):
        run.attempt(verify_gauss_gk_record, p, r, k)
    for idx in run.sampled(list(range(1, q)), f"gauss_theta:{p}:{r}"):
        run.attempt(verify_gauss_theta_record, p, r, idx)
    for m in (2, 3, 6):
        if (q - 1) % m:
            continue
        for psi in run.sampled(list(range(q - 1)), f"gauss_dh:{p}:{r}:{m}"):
            run.attempt(verify_gauss_dh_record, p, r, m, psi)


def _plan_ortho(run: _SuiteRun, p: int, r: int):
    run.attempt(verify_ortho_record, p, r)


_PLANS = {
    "mt1": _plan_mt1,
    "cor2": _plan_cor2,
    "bs1": _plan_bs1,
    "mc": _plan_mc,
    "hessian": _plan_hessian,
    "lemma31": _plan_lemma31,
    "lemma5": _plan_lemma5,
    "eq29": _plan_eq29,
    "gauss": _plan_gauss,
    "ortho": _plan_ortho,
}

# mt1/cor2/bs1/mc need p > 3, hessian handles its own p gate, gauss/ortho
# only need odd p, lemma5 needs p coprime to 6
_MIN_P = {"mt1": 5, "cor2": 5, "bs1": 5, "mc": 5, "hessian": 5, "lemma5": 5}


def run_suite(spec: RangeSpec) -> Report:
    """Execute every selected check over the prime range; deterministic given
    the RangeSpec (fields, polynomials, generators, and sampling are all seeded)."""
    unknown = set(spec.theorems) - set(THEOREM_NAMES)
    if unknown:
        raise ValueError(f"unknown theorems: {sorted(unknown)}")
    primes = [p for p in range(max(spec.pmin, 3), spec.pmax + 1) if p % 2 and is_prime(p)]
    if not primes:
        raise ValueError(f"no odd primes in [{spec.pmin}, {spec.pmax}]")
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    run = _SuiteRun(spec)
    for theorem in spec.theorems:
        plan = _PLANS[theorem]
        for r in sorted(spec.r_values):
            for p in primes:
                if p < _MIN_P.get(theorem, 3):
                    continue
                if p**r > spec.qmax:
                    continue
                plan(run, p, r)
    passed = sum(rec.passed for rec in run.records)
    summary = {
        "total": len(run.records),
        "passed": passed,
        "failed": len(run.records) - passed,
        "skipped": run.skipped,
    }
    return Report(
        suite="+".join(spec.theorems),
        started_at=started,
        config=spec.config_dict(),
        records=run.records,
        summary=summary,
    )
