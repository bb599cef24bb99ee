"""Theorem-level identity checks and the range-sweeping verification suite.

Each ``verify_*`` function evaluates both sides of one transformation or
point-count identity, gates its hypotheses exactly (raising
PreconditionFailed with the violated gate's name), and returns a
VerifyRecord.  ``run_suite`` sweeps primes and parameters, aggregates the
records into a report, and renders it as a table, JSON, or CSV.

The five series checks are compositions of three series sides, each a value
phi(twist) q 2G2[... | t] (``_qg``):

- the Hessian side phi(-3d) q 2G2[1/2,1/2;1/6,5/6 | 1/d^3];
- McCarthy's trace side phi(twist) q 2G2[1/4,3/4;1/3,2/3 | -27b^2/4a^3];
- the branch side, the right side of BS1 through a root k of 3k^2 + a = 0
  or a root h of x^3 + ax + b = 0, which also runs that branch's gates.

MT1 compares the Hessian side at d with alpha + phi(-3) plus the trace side
at the bridged Weierstrass model (m, n), twisted by n.  COR2 is MT1 with that
trace side rewritten by BS1 at (m, n): the branch side times phi(n).  BS1
compares the untwisted trace side with the branch side.  MC and HESSIAN
recover one side as an integer and compare it with an enumerated count.
Every check hands (lhs, rhs, passed) to one record builder, ``_timed``.

The transformation identities are implemented in the form that the
enumeration cross-checks force: the Weierstrass model bridged to the Hessian
cubic carries n = 54(d^6 - 20d^3 - 8), the scalar correction is
alpha + phi(-3) (identically zero, kept in the alpha-verbatim bookkeeping),
and the square-root-free branch characters carry the phi(3h) twist.  Each of
these is pinned by exhaustive point-count agreement in the test suite.

The sweep is the table ``_PLANS``: per theorem, the smallest p and rows of
(sample tag, argument lister, call).  ``run_suite`` builds each field, applies
the p and q limits, and attempts each call on each listed argument.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import time
from bisect import bisect_right
from contextvars import ContextVar
from functools import cache, lru_cache
from itertools import accumulate, islice
from json.encoder import encode_basestring_ascii

import numpy as np
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from fractions import Fraction

from .curves import (
    HessianCurve,
    WeierstrassCurve,
    count_hessian,
    count_weierstrass,
    cubic_values,
    hessian_bridge,
)
from .errors import PreconditionFailed, SingularCurve, PadicHyperError
from .fields import DEFAULT_MAX_Q, FqElement, FqField, build_field, check_orthogonality, phi, uctx_for
from .gamma import lemma31_sides, lemma5_sides, eq29_sides
from .gauss import (
    davenport_hasse_sides,
    default_tolerance,
    gk_product_sides,
    theta_expansion_sides,
)
from .hyper import GParams, profile_for, qg_table, recover_integer
from .padic import PadicNumber, default_precision, is_prime, padic_sum, renormalize

PARAMS_QUARTER_THIRD = GParams(2, (Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 3), Fraction(2, 3)))
PARAMS_HALF_SIXTH = GParams(2, (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 6), Fraction(5, 6)))
PARAMS_HALF_THIRD = GParams(2, (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3)))
PARAMS_HALF_QUARTER = GParams(2, (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4)))

# the parameter name of each branch's root
_ROOT = {1: "k", 2: "h"}


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
        """The report fields in report order; JSON and CSV both render these."""
        return {key: getattr(self, name) for key, name in _COLUMNS.items()}


# report key -> record field, in report order
_COLUMNS = {("pass" if f.name == "passed" else f.name): f.name for f in fields(VerifyRecord)}


def _param(x: FqElement):
    return x.idx if x.field.r == 1 else list(x.coeffs)


def _gate(cond: bool, name: str) -> None:
    if not cond:
        raise PreconditionFailed(name)


def _setup(p: int, r: int, K: int | None):
    field = build_field(p, r)
    if K is None:
        K = default_precision(p, r)
    return field, K, uctx_for(field, K)


def _cplx(z: complex) -> str:
    return f"{z.real:.12e}{z.imag:+.12e}j"


def _zq_str(z) -> str:
    return ".".join(str(c) for c in z.coeffs)


def _timed(theorem: str, p: int, r: int, K: int, params: dict, check) -> VerifyRecord:
    """Run ``check() -> (lhs, rhs, passed)`` and record it with its wall time."""
    t0 = time.perf_counter()
    lhs, rhs, passed = check()
    ms = int(round((time.perf_counter() - t0) * 1000))
    return VerifyRecord(theorem, p, r, K, params, lhs, rhs, passed, ms)


# ---------------------------------------------------------------------------
# series sides


# set by _SuiteRun.attempt: does the call belong to a row whose listing is drawn in full?
_whole_field = ContextVar("whole_field", default=False)


def _qg(params: GParams, uctx, t: FqElement, twist: FqElement) -> PadicNumber:
    """phi(twist) q 2G2[params | t] over t's field: read from the field's
    ``qg_table`` in a row listed in full, else summed at t alone."""
    model = t.field.model
    if _whole_field.get():
        value = renormalize(qg_table(params, model, uctx)[t.dlog()].tolist(), uctx, 0, uctx.K)
    else:
        value = profile_for(params, model, uctx).eval_qg(t)
    return value.scale_int(phi(twist))


def _trace_arg(a: FqElement, b: FqElement) -> FqElement:
    return -27 * b * b / (4 * a**3)


def _trace_side(uctx, a: FqElement, b: FqElement, twist: FqElement) -> PadicNumber:
    """phi(twist) q 2G2[1/4,3/4;1/3,2/3 | -27b^2/4a^3]."""
    return _qg(PARAMS_QUARTER_THIRD, uctx, _trace_arg(a, b), twist)


# one entry: COR2 checks the roots of each d in a row, and they share it
@lru_cache(maxsize=1)
def _hessian_side(uctx, d: FqElement) -> PadicNumber:
    """phi(-3d) q 2G2[1/2,1/2;1/6,5/6 | 1/d^3]."""
    return _qg(PARAMS_HALF_SIXTH, uctx, 1 / d**3, -3 * d)


def _branch_side(uctx, branch: int, a: FqElement, b: FqElement, aux: FqElement) -> PadicNumber:
    """BS1's right side at (a, b), after the branch's gates: through a root
    k of 3k^2 + a = 0 (branch 1) or a root h of x^3 + ax + b = 0 (branch 2)."""
    _gate(not aux.is_zero, f"{_ROOT[branch]}_is_zero")
    if branch == 1:
        k = aux
        _gate((a + 3 * k * k).is_zero, "branch_equation")
        val = k**3 + a * k + b
        _gate(not val.is_zero, "branch_value_zero")
        return _qg(PARAMS_HALF_THIRD, uctx, -val / (4 * k**3), b * val)
    h = aux
    _gate((h**3 + a * h + b).is_zero, "branch_equation")
    w = 3 * h * h + a
    _gate(not w.is_zero, "branch_value_zero")
    return _qg(PARAMS_HALF_QUARTER, uctx, 4 * w / (9 * h * h), -3 * b * h * w)


def _agree(lhs: PadicNumber, rhs: PadicNumber, K: int):
    return lhs.digits(), rhs.digits(), lhs.agrees_to(rhs, K)


def _recovered(count: int, side: PadicNumber, bound: int, p: int, closed_form=lambda x: x):
    """Recover ``side`` as an integer, map it through ``closed_form`` and
    compare it with the enumerated ``count``."""
    try:
        value = closed_form(recover_integer(side, bound, p=p))
    except PadicHyperError as exc:
        return str(count), f"unrecoverable({exc.__class__.__name__})", False
    return str(count), str(value), value == count


# ---------------------------------------------------------------------------
# transformation checks


@lru_cache(maxsize=1)  # one entry, as for _hessian_side
def _mt1_gates(field: FqField, d: FqElement):
    _gate(field.p > 3, "p_too_small")
    _gate(not d.is_zero, "d_is_zero")
    _gate(not (d**3 - 1).is_zero, "d_cubed_is_one")
    m, n = hessian_bridge(d)
    _gate(not m.is_zero, "m_is_zero")
    _gate(not n.is_zero, "n_is_zero")
    _gate(_trace_arg(m, n) != field.one, "g_argument_is_one")
    return m, n


def _mt1_check(field: FqField, uctx, K: int, d: FqElement, series):
    """The Hessian side at d against alpha + phi(-3) + series(m, n), for the
    Weierstrass model (m, n) bridged from d."""
    m, n = _mt1_gates(field, d)
    lhs = _hessian_side(uctx, d)
    scal = _alpha(field) + phi(field.element(-3))
    return _agree(lhs, padic_sum([PadicNumber.from_rational(scal, uctx), series(m, n)]), K)


def verify_mt1(p: int, r: int, d, K: int | None = None) -> VerifyRecord:
    """Main transformation between the [1/2,1/2;1/6,5/6] series at 1/d^3 and
    the [1/4,3/4;1/3,2/3] series at the bridged Weierstrass argument."""
    field, K, uctx = _setup(p, r, K)
    d = field.element(d)

    def check():
        return _mt1_check(field, uctx, K, d, lambda m, n: _trace_side(uctx, m, n, n))

    return _timed("MT1", p, r, K, {"d": _param(d)}, check)


def verify_cor2(branch: int, p: int, r: int, d, aux, K: int | None = None) -> VerifyRecord:
    """The two corollary branches: the bridged series argument is rewritten
    through a root of the branch equation (3k^2 + m = 0, or x^3 + mx + n = 0)."""
    if branch not in (1, 2):
        raise ValueError("branch must be 1 or 2")
    field, K, uctx = _setup(p, r, K)
    d = field.element(d)
    aux = field.element(aux)

    def series(m, n):
        # BS1 at (m, n) carries phi(n val) or phi(-3n hw); phi(n) turns it
        # into the corollary's phi(val) or phi(-3hw)
        return _branch_side(uctx, branch, m, n, aux).scale_int(phi(n))

    params = {"d": _param(d), _ROOT[branch]: _param(aux)}
    return _timed(f"COR2_{branch}", p, r, K, params, lambda: _mt1_check(field, uctx, K, d, series))


def verify_bs1(branch: int, p: int, r: int, a, b, aux, K: int | None = None) -> VerifyRecord:
    """The two series transformations at -27b^2/4a^3: toward [1/2,1/2;1/3,2/3]
    when a = -3k^2, toward [1/2,1/2;1/4,3/4] through a root of x^3 + ax + b.

    Both sides are compared after the q-scaling that makes them p-adic
    integers (equivalent to comparing the series values mod p^{K-r}).
    """
    if branch not in (1, 2):
        raise ValueError("branch must be 1 or 2")
    field, K, uctx = _setup(p, r, K)
    a = field.element(a)
    b = field.element(b)
    aux = field.element(aux)

    def check():
        _gate(field.p > 3, "p_too_small")
        _gate(not a.is_zero, "a_is_zero")
        _gate(not b.is_zero, "b_is_zero")
        _gate(_trace_arg(a, b) != field.one, "g_argument_is_one")
        lhs = _trace_side(uctx, a, b, field.one)
        return _agree(lhs, _branch_side(uctx, branch, a, b, aux), K)

    params = {"a": _param(a), "b": _param(b), _ROOT[branch]: _param(aux)}
    return _timed(f"BS1_{branch}", p, r, K, params, check)


def verify_mc(p: int, r: int, a, b, K: int | None = None) -> VerifyRecord:
    """Trace formula: the enumerated trace of Frobenius of y^2 = x^3 + ax + b
    against phi(b) q 2G2[1/4,3/4;1/3,2/3 | -27b^2/4a^3] recovered as an integer."""
    field, K, uctx = _setup(p, r, K)
    a = field.element(a)
    b = field.element(b)

    def check():
        _gate(field.p > 3, "p_too_small")
        _gate(not a.is_zero, "j_is_zero")
        _gate(not b.is_zero, "j_is_1728")
        try:
            E = WeierstrassCurve(a, b)
        except SingularCurve:
            raise PreconditionFailed("singular_curve")
        tr = count_weierstrass(E).trace
        return _recovered(tr, _trace_side(uctx, a, b, b), math.isqrt(4 * field.q), p)

    return _timed("MC", p, r, K, {"a": _param(a), "b": _param(b)}, check)


def verify_hessian(p: int, r: int, a, K: int | None = None, allow_small_p: bool = False) -> VerifyRecord:
    """Enumerated affine count of x^3 + y^3 + 1 = 3axy against the closed form
    alpha - 1 + q - q phi(-3a) 2G2[1/2,1/2;1/6,5/6 | 1/a^3]."""
    field, K, uctx = _setup(p, r, K)
    a = field.element(a)
    q = field.q

    def check():
        _gate(p > 5 or (allow_small_p and p > 3), "p_too_small")
        _gate(not a.is_zero, "a_is_zero")
        _gate(not (a**3 - 1).is_zero, "a_cubed_is_one")
        count = count_hessian(HessianCurve(a))
        bound = q + 6 * math.isqrt(q) + 6
        return _recovered(count, _hessian_side(uctx, a), bound, p, lambda X: _alpha(field) - 1 + q - X)

    return _timed("HESSIAN", p, r, K, {"a": _param(a)}, check)


# ---------------------------------------------------------------------------
# lemma-level and float checks as records


def verify_lemma31_record(p: int, r: int, t: int, j: int, K: int | None = None) -> VerifyRecord:
    field, K, uctx = _setup(p, r, K)

    def check():
        _gate(t % p != 0, "t_divisible_by_p")
        (l1, r1), (l2, r2) = lemma31_sides(t, j, uctx)
        passed = l1.coeffs == r1.coeffs and l2.coeffs == r2.coeffs
        return f"{_zq_str(l1)};{_zq_str(l2)}", f"{_zq_str(r1)};{_zq_str(r2)}", passed

    return _timed("LEMMA31", p, r, K, {"t": t, "j": j}, check)


def verify_eq29_record(p: int, r: int, l: int, K: int | None = None) -> VerifyRecord:
    field, K, uctx = _setup(p, r, K)

    def check():
        lhs, rhs = eq29_sides(l, uctx)
        return _zq_str(lhs), _zq_str(rhs), lhs.coeffs == rhs.coeffs

    return _timed("EQ29", p, r, K, {"l": l}, check)


def verify_lemma5_record(p: int, r: int, l: int, i: int) -> VerifyRecord:
    def check():
        lhs, rhs = lemma5_sides(l, i, p, r)
        return str(lhs), str(rhs), lhs == rhs

    return _timed("LEMMA5", p, r, default_precision(p, r), {"l": l, "i": i}, check)


def _float_record(theorem: str, field: FqField, params: dict, sides, *args) -> VerifyRecord:
    """A complex-float identity: sides(*args, field) within default_tolerance."""

    def check():
        lhs, rhs = sides(*args, field)
        return _cplx(lhs), _cplx(rhs), abs(lhs - rhs) < default_tolerance(field, rhs)

    return _timed(theorem, field.p, field.r, 0, params, check)


def verify_gauss_gk_record(p: int, r: int, k: int) -> VerifyRecord:
    return _float_record("GAUSS_GK", build_field(p, r), {"k": k}, gk_product_sides, k)


def verify_gauss_theta_record(p: int, r: int, alpha_idx: int) -> VerifyRecord:
    field = build_field(p, r)
    alpha = field.from_index(alpha_idx)
    return _float_record("GAUSS_THETA", field, {"alpha": _param(alpha)}, theta_expansion_sides, alpha)


def verify_gauss_dh_record(p: int, r: int, m: int, psi: int) -> VerifyRecord:
    params = {"m": m, "psi": psi}
    return _float_record("GAUSS_DH", build_field(p, r), params, davenport_hasse_sides, m, psi)


def verify_ortho_record(p: int, r: int) -> VerifyRecord:
    field = build_field(p, r)

    def check():
        passed = check_orthogonality(field)
        return "exact", "exact" if passed else "violated", passed

    return _timed("ORTHO", p, r, 0, {}, check)


# ---------------------------------------------------------------------------
# the suite


class _SuiteRun:
    def __init__(self, spec: RangeSpec):
        self.spec = spec
        self.records: list[VerifyRecord] = []
        self.skipped = 0
        self.full = False  # did the current row's lister draw every position?

    def attempt(self, fn, *args):
        token = _whole_field.set(self.full)
        try:
            self.records.append(fn(*args))
        except PreconditionFailed:
            self.skipped += 1
        finally:
            _whole_field.reset(token)

    def sampled(self, size: int, tag: str):
        """The positions a row draws among its ``size`` arguments: all of
        them in order, or ``sample`` seeded positions.  ``random.sample``
        picks by the population's length alone, so these are the positions
        that sampling the argument list itself would pick.

        The series values of a row follow from this one rule: when every
        position is drawn, the row visits the whole field, so its checks
        read ``hyper.qg_table``, one chirp transform per (family, field,
        K); otherwise, and in rows that never call this (MC's curve draw),
        each point is its own O(q) sum.  That is the break-even, not a
        setting: a table costs about as much as 35 point sums at q = 121,
        100 at q = 289 and 280 at q = 9,973; at q = 99,991 it takes 36 s
        against 33 ms a point, and a sample of 10 points must not pay for
        the whole field.
        """
        n = self.spec.sample
        self.full = n is None or size <= n
        if self.full:
            return range(size)
        return random.Random(f"{self.spec.seed}:{tag}").sample(range(size), n)


# Argument listers: (run, field, tag) -> the arguments of one row's calls.


def _each(values):
    """The lister of the sequence values(field), sampled under the row's tag."""

    def lister(run, field, tag):
        seq = values(field)
        return [seq[i] for i in run.sampled(len(seq), tag)]

    return lister


_units = _each(lambda f: range(1, f.q))


def _cor2_roots(run: _SuiteRun, field: FqField, tag: str):
    """(branch, d, root) over every branch root at each sampled d; a d that
    fails MT1's gates is a skip.  Each d's roots are yielded, and so
    checked, before the next d is listed, while the one-entry
    ``_mt1_gates`` and ``_hessian_side`` still hold that d."""
    q = field.q
    for di in _units(run, field, tag):
        d = field.from_index(di)
        try:
            m, n = _mt1_gates(field, d)
        except PreconditionFailed:
            run.skipped += 1
            continue
        # branch 1: square roots of -m/3
        s = field.dlog[(-m / 3).idx]
        if s % 2 == 0:
            for half in (s // 2, s // 2 + (q - 1) // 2):
                yield 1, d, field.from_index(field.exp[half % (q - 1)])
        # branch 2: nonzero roots of x^3 + mx + n
        for hi in np.nonzero(cubic_values(m, n) == 0)[0]:
            if hi:
                yield 2, d, field.from_index(int(hi))


_BS1_PARTNERS = 3


def _bs1_row(field: FqField, branch: int, root: FqElement) -> list:
    """(branch, a, b, root) for the root's first ``_BS1_PARTNERS`` admissible
    partners in index order: b for k (a = -3k^2), a for h (b = -h^3 - ah)."""
    one = field.one
    if branch == 1:
        k, a = root, -3 * root * root
        bs = (b for b in field.units() if _trace_arg(a, b) != one and not (k**3 + a * k + b).is_zero)
        return [(1, a, b, k) for b in islice(bs, _BS1_PARTNERS)]
    h = root
    pairs = ((a, -(h**3 + a * h)) for a in field.units() if not (3 * h * h + a).is_zero)
    pairs = ((a, b) for a, b in pairs if not b.is_zero and _trace_arg(a, b) != one)
    return [(2, a, b, h) for a, b in islice(pairs, _BS1_PARTNERS)]


def _bs1_instances(run: _SuiteRun, field: FqField, tag: str) -> list:
    """The sampled (branch, a, b, root).  The listing is the rows of every
    root, branch 1 then branch 2, in index order; row j belongs to root
    1 + j mod (q-1) of branch 1 + j div (q-1).  Only drawn rows are built.

    From q = 9 on every row is full: branch 1 excludes at most 3 values of b
    (b = 2k^3 and two with trace argument 1), branch 2 at most 5 values of a
    (a = -3h^2, b = 0 and three with trace argument 1).  Below that the rows
    are built to learn their lengths."""
    q = field.q
    row = cache(lambda j: _bs1_row(field, 1 + j // (q - 1), field.from_index(1 + j % (q - 1))))
    sizes = (_BS1_PARTNERS if q >= 9 else len(row(j)) for j in range(2 * (q - 1)))
    starts = list(accumulate(sizes, initial=0))
    out = []
    for pos in run.sampled(starts[-1], tag):
        j = bisect_right(starts, pos) - 1
        out.append(row(j)[pos - starts[j]])
    return out


def _mc_draws(run: _SuiteRun, field: FqField, tag: str) -> list:
    """The seeded curve draw, not sampled: up to ``sample`` (default 20)
    nonsingular (a, b); each singular draw is a skip."""
    want = run.spec.sample if run.spec.sample is not None else 20
    rng = random.Random(f"{run.spec.seed}:{tag}")
    draws = []
    for _ in range(100 * want):
        if len(draws) >= want:
            break
        a = field.from_index(rng.randrange(1, field.q))
        b = field.from_index(rng.randrange(1, field.q))
        if (4 * a**3 + 27 * b * b).is_zero:
            run.skipped += 1
        else:
            draws.append((a, b))
    return draws


def _dh_row(m: int):
    lister = _each(lambda f: range(f.q - 1) if (f.q - 1) % m == 0 else ())
    return f"gauss_dh:{{p}}:{{r}}:{m}", lister, lambda s, f, psi: verify_gauss_dh_record(f.p, f.r, m, psi)


_exponents = _each(lambda f: range(1, f.q - 1))
_lemma31_pairs = _each(lambda f: [(t, j) for t in (2, 3, 6) if t % f.p for j in range(f.q - 1)])
_lemma5_pairs = _each(lambda f: [(l, i) for l in range(1, f.q - 1) if 2 * l != f.q - 1 for i in range(f.r)])

# theorem -> (smallest p, rows of (sample tag, argument lister, call)).  A call
# (spec, field, argument) names its verify_* function in its body, so that
# function is looked up in this module each time the call runs.
_PLANS = {
    "mt1": (5, [("mt1:{p}:{r}", _units, lambda s, f, d: verify_mt1(f.p, f.r, f.from_index(d), K=s.K))]),
    "cor2": (5, [("cor2:{p}:{r}", _cor2_roots, lambda s, f, x: verify_cor2(x[0], f.p, f.r, *x[1:], K=s.K))]),
    "bs1": (5, [("bs1:{p}:{r}", _bs1_instances, lambda s, f, x: verify_bs1(x[0], f.p, f.r, *x[1:], K=s.K))]),
    "mc": (5, [("mc:{p}:{r}", _mc_draws, lambda s, f, ab: verify_mc(f.p, f.r, *ab, K=s.K))]),
    "hessian": (5, [("hessian:{p}:{r}", _units, lambda s, f, a: verify_hessian(
        f.p, f.r, f.from_index(a), K=s.K, allow_small_p=s.allow_p5))]),
    "lemma31": (3, [("lemma31:{p}:{r}", _lemma31_pairs, lambda s, f, tj: verify_lemma31_record(
        f.p, f.r, *tj, K=s.K))]),
    "lemma5": (5, [("lemma5:{p}:{r}", _lemma5_pairs, lambda s, f, li: verify_lemma5_record(f.p, f.r, *li))]),
    "eq29": (3, [("eq29:{p}:{r}", _exponents, lambda s, f, l: verify_eq29_record(f.p, f.r, l, K=s.K))]),
    "gauss": (3, [
        ("gauss_gk:{p}:{r}", _exponents, lambda s, f, k: verify_gauss_gk_record(f.p, f.r, k)),
        ("gauss_theta:{p}:{r}", _units, lambda s, f, i: verify_gauss_theta_record(f.p, f.r, i)),
        *(_dh_row(m) for m in (2, 3, 6)),
    ]),
    "ortho": (3, [(None, lambda run, f, tag: [None], lambda s, f, _: verify_ortho_record(f.p, f.r))]),
}


THEOREM_NAMES = tuple(_PLANS)


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
        """The document {suite, started_at, config, records, summary} as
        ``json.dumps(doc, indent=1)`` renders it, byte for byte.  With an
        indent ``json`` runs its pure-Python encoder, so only the head and
        the summary go through it; each record is filled into a template."""
        head = {"suite": self.suite, "started_at": self.started_at, "config": self.config}
        text = json.dumps({**head, "records": [], "summary": self.summary}, indent=1)
        if not self.records:
            return text
        before, after = text.split('\n "records": []', 1)
        records = ",\n".join(_json_record(rec) for rec in self.records)
        return f'{before}\n "records": [\n{records}\n ]{after}'

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(_COLUMNS)
        for rec in self.records:
            row = rec.to_dict()
            row["params"] = json.dumps(rec.params, sort_keys=True, separators=(",", ":"))
            writer.writerow(row.values())
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


_RECORD_JSON = (
    '  {{\n   "theorem": {},\n   "p": {},\n   "r": {},\n   "K": {},\n   "params": {},\n'
    '   "lhs": {},\n   "rhs": {},\n   "pass": {},\n   "elapsed_ms": {}\n  }}'
)


def _json_param(value) -> str:
    """``json.dumps(value, indent=1)`` for a params value at its place in a
    record: ints and int lists written directly."""
    if type(value) is int:
        return str(value)
    if type(value) is list and value and all(type(x) is int for x in value):
        return "[\n" + ",\n".join(f"     {x}" for x in value) + "\n    ]"
    return json.dumps(value, indent=1).replace("\n", "\n    ")


def _json_record(rec: VerifyRecord) -> str:
    """One record of ``Report.to_json``, at its place in the records list."""
    enc = encode_basestring_ascii
    params = rec.params
    if params:
        items = ",\n".join(f"    {enc(k)}: {_json_param(v)}" for k, v in params.items())
        params = f"{{\n{items}\n   }}"
    else:
        params = "{}"
    return _RECORD_JSON.format(
        enc(rec.theorem), rec.p, rec.r, rec.K, params, enc(rec.lhs), enc(rec.rhs),
        "true" if rec.passed else "false", rec.elapsed_ms,
    )


def run_suite(spec: RangeSpec) -> Report:
    """Execute every selected check over the prime range; deterministic given
    the RangeSpec (fields, polynomials, generators, and sampling are all seeded)."""
    unknown = set(spec.theorems) - set(THEOREM_NAMES)
    if unknown:
        raise ValueError(f"unknown theorems: {sorted(unknown)}")
    if spec.sample is not None and spec.sample < 0:
        raise ValueError(f"sample must be >= 0, got {spec.sample}")
    if spec.K is not None and spec.K < 1:
        raise ValueError(f"K must be >= 1, got {spec.K}")
    if not 1 <= spec.qmax <= DEFAULT_MAX_Q:
        raise ValueError(f"qmax must be in [1, {DEFAULT_MAX_Q}], got {spec.qmax}")
    primes = [p for p in range(max(spec.pmin, 3), spec.pmax + 1) if p % 2 and is_prime(p)]
    if not primes:
        raise ValueError(f"no odd primes in [{spec.pmin}, {spec.pmax}]")
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    run = _SuiteRun(spec)
    for theorem in spec.theorems:
        min_p, rows = _PLANS[theorem]
        for r in sorted(spec.r_values):
            for p in primes:
                if p < min_p or p**r > spec.qmax:
                    continue
                field = build_field(p, r)
                for tag, lister, call in rows:
                    run.full = False
                    for arg in lister(run, field, tag and tag.format(p=p, r=r)):
                        run.attempt(call, spec, field, arg)
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
