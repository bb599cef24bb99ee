"""Theorem-level identity checks and the range-sweeping verification suite.

Every check runs over rows: the instances of one plan on one field, as
index arrays.  A row gates every instance at once from an ordered list of
(gate name, passing mask), and an instance's first failing gate makes it a
skip.  Each series side is one gather for the instances that pass;
LEMMA31's and EQ29's sides are products of one ``GammaCache.values``
evaluation per (row, t); LEMMA5's are integer floor quotients, and the
Gauss-sum relations' are complex floats gathered from ``gauss_tables``.
The records are built at the end of the row.  A ``verify_*`` call is a row
of length 1: it returns the VerifyRecord, or raises PreconditionFailed with
the violated gate's name (or the check's own error for a bad argument).

A series side is phi(twist) q 2G2[... | t] (``_series``): the Hessian side
phi(-3d) q 2G2[1/2,1/2;1/6,5/6 | 1/d^3], McCarthy's trace side phi(twist)
q 2G2[1/4,3/4;1/3,2/3 | -27b^2/4a^3], or the branch side, BS1's right side
through a root k of 3k^2 + a = 0 or h of x^3 + ax + b = 0.  MT1 compares the
Hessian side at d with alpha + phi(-3) plus the trace side at the bridged
Weierstrass model (m, n), twisted by n; COR2 rewrites that trace side by BS1
at (m, n), as the branch side times phi(n).  BS1 compares the untwisted
trace side with the branch side.  MC and HESSIAN recover one side as an
integer, one ``recover_rows`` call per row, and compare it with a point
count, one character sum per row (``weierstrass_traces``,
``hessian_counts``).

The transformation identities are implemented in the form that the
enumeration cross-checks force: the Weierstrass model bridged to the Hessian
cubic carries n = 54(d^6 - 20d^3 - 8), the scalar correction is
alpha + phi(-3) (identically zero, kept in the alpha-verbatim bookkeeping),
and the square-root-free branch characters carry the phi(3h) twist.  Each of
these is pinned by exhaustive point-count agreement in the test suite.

The sweep is the table ``_PLANS``: per theorem, the smallest p and rows of
(sample tag, argument lister, call), the lister returning an index array and
the call (records, skipped gates).  ``run_suite`` makes one call per row of
each field within the limits, into a report rendered as a table, JSON or CSV.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import time
from functools import partial
from itertools import repeat
from json.encoder import encode_basestring_ascii

import numpy as np
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from fractions import Fraction

from .curves import hessian_counts, weierstrass_traces
from .errors import ModulusMismatch, PreconditionFailed, TrivialCharacter, ZeroArgument
from .fields import DEFAULT_MAX_Q, FqField, build_field, check_orthogonality, phi, residue_dtype, uctx_for
from .gamma import GammaCache, gamma_cache
from .gauss import default_tolerance, gauss_tables
from .hyper import RECOVERY_ERRORS, GParams, profile_for, recover_rows
from .padic import default_precision, is_prime

# Not called here; perfbench/tracing.py wraps them under these names.
from .curves import count_hessian, count_weierstrass  # noqa: F401
from .hyper import recover_integer  # noqa: F401
from .padic import padic_sum  # noqa: F401

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


def _context(field: FqField, K: int | None):
    K = default_precision(field.p, field.r) if K is None else K
    return K, uctx_for(field, K)


# ---------------------------------------------------------------------------
# rows: gates, series sides and records over arrays of element indices


def _gated(gates: list, *cols: np.ndarray):
    """The skipped instances' gate names, then each column at the instances
    that pass.  ``gates`` is an ordered list of (name, passing mask or bool)."""
    n = len(cols[0])
    first = np.full(n, len(gates))
    for i in reversed(range(len(gates))):
        first[~np.broadcast_to(gates[i][1], n)] = i
    ok = first == len(gates)
    return [gates[i][0] for i in first[~ok].tolist()], *(c[ok] for c in cols)


def _trace_arg(field: FqField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """-27b^2/4a^3 at each (a, b)."""
    p = field.p
    return field.np_div(field.np_mul(field.np_pow(b, 2), -27 % p), field.np_mul(field.np_pow(a, 3), 4 % p))


def _mt1_gates(field: FqField, d: np.ndarray):
    """MT1's gates at each d, and the Weierstrass model (m, n) bridged from
    d by ``curves.hessian_bridge``."""
    p, d3 = field.p, field.np_pow(d, 3)
    m = field.np_mul(field.np_mul(d, -27 % p), field.np_add(d3, 8 % p))
    n = field.np_mul(field.np_add(field.np_add(field.np_pow(d3, 2), field.np_mul(d3, -20 % p)), -8 % p), 54 % p)
    gates = [("p_too_small", p > 3), ("d_is_zero", d != 0), ("d_cubed_is_one", d3 != 1), ("m_is_zero", m != 0),
             ("n_is_zero", n != 0), ("g_argument_is_one", _trace_arg(field, m, n) != 1)]
    return gates, m, n


def _branch(field: FqField, branch: np.ndarray, a: np.ndarray, b: np.ndarray, root: np.ndarray):
    """BS1's branch gates at each (branch, a, b, root), and the branch side's
    argument and twist: through a root k of 3k^2 + a = 0 (branch 1) or a
    root h of x^3 + ax + b = 0 (branch 2)."""
    if not np.isin(branch, (1, 2)).all():
        raise ValueError("branch must be 1 or 2")
    p, one = field.p, branch == 1
    val = field.np_add(field.np_add(field.np_pow(root, 3), field.np_mul(a, root)), b)  # k^3 + ak + b
    w = field.np_add(field.np_mul(field.np_pow(root, 2), 3 % p), a)  # 3h^2 + a
    gates = [("k_is_zero", ~one | (root != 0)), ("h_is_zero", one | (root != 0)),
             ("branch_equation", np.where(one, w, val) == 0), ("branch_value_zero", np.where(one, val, w) != 0)]
    t1 = field.np_div(val, field.np_mul(field.np_pow(root, 3), -4 % p))  # -val/4k^3
    t2 = field.np_div(field.np_mul(w, 4 % p), field.np_mul(field.np_pow(root, 2), 9 % p))  # 4w/9h^2
    twist2 = field.np_mul(field.np_mul(b, root), field.np_mul(w, -3 % p))  # -3bhw
    return gates, np.where(one, t1, t2), np.where(one, field.np_mul(b, val), twist2)


def _series(params: GParams, field: FqField, uctx, full: bool, t, twist) -> np.ndarray:
    """phi(twist) q 2G2[params | t] at each (t, twist) of a row, as (n, r)
    residues mod p^K: rows of the profile's ``qg_table`` in a row listed in
    full, else one batched sum over the row's distinct points."""
    if not len(t):
        return np.zeros((0, field.r), dtype=residue_dtype(uctx.modulus))
    s = field.dlog_np[t]
    prof = profile_for(params, field.model, uctx)
    if full:
        values = prof.qg_table[s]
    else:
        points, inverse = np.unique(s, return_inverse=True)
        values = prof.qg_rows(points)[inverse]
    return values * field.np_phi(twist)[:, None] % uctx.modulus


def _branch_series(field: FqField, uctx, full: bool, branch: np.ndarray, t, twist) -> np.ndarray:
    """The branch side at each (t, twist) of ``_branch``, by branch family."""
    out = np.zeros((len(t), field.r), dtype=residue_dtype(uctx.modulus))
    for b, params in ((1, PARAMS_HALF_THIRD), (2, PARAMS_HALF_QUARTER)):
        out[branch == b] = _series(params, field, uctx, full, t[branch == b], twist[branch == b])
    return out


def _digits(res: np.ndarray, p: int, K: int) -> list[str]:
    """``renormalize(row, ctx, 0, K).digits()`` for each row of residues mod
    p^K: "w:" and the base-p digits w..K-1 of each coordinate, low first,
    for the largest p^w dividing the row; "zero:O(p^K)" for a zero row."""
    digs = np.stack([res // p**k % p for k in range(K)], axis=1)  # (n, K, r)
    nonzero = (digs != 0).any(axis=2)
    vals = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), K).tolist()
    text = digs.astype(str)  # pos: each position's coordinate digits, dot-joined
    pos = text[:, :, 0].tolist() if res.shape[1] == 1 else [list(map(".".join, row)) for row in text.tolist()]
    return [f"{w}:" + ",".join(row[w:]) if w < K else f"zero:O(p^{K})" for w, row in zip(vals, pos)]


def _params(field: FqField, keys, *cols: np.ndarray) -> list[dict]:
    """Each instance's params: its elements under ``keys`` (one tuple, or a
    tuple per instance), each an index for r = 1, else a coefficient list."""
    if field.r > 1:
        cols = [c[:, None] // field.p ** np.arange(field.r) % field.p for c in cols]
    keys = repeat(keys) if isinstance(keys, tuple) else keys
    return [dict(zip(k, v)) for k, v in zip(keys, zip(*(c.tolist() for c in cols)))]


def _records(theorems, p: int, r: int, K: int, rows, t0: float) -> list[VerifyRecord]:
    """Records from (params, lhs, rhs, passed) rows, each with an equal
    share of the wall time since t0; ``theorems`` is a name or one a row."""
    rows = list(rows)
    ms = int(round((time.perf_counter() - t0) * 1000 / max(len(rows), 1)))
    theorems = repeat(theorems) if isinstance(theorems, str) else theorems
    return [VerifyRecord(th, p, r, K, *row, ms) for th, row in zip(theorems, rows)]


def _compared(theorems, field: FqField, K: int, params: list, lhs, rhs, t0: float, scalar: int = 0):
    """Records of lhs against scalar + rhs.  Both are residue rows of values
    known to K digits, and the exact integer only adds to coordinate 0, so
    the sides agree to K digits exactly when the rows are equal."""
    rhs = rhs.copy()
    rhs[:, 0] = (rhs[:, 0] + scalar) % field.p**K
    rows = zip(params, _digits(lhs, field.p, K), _digits(rhs, field.p, K), (lhs == rhs).all(axis=1).tolist())
    return _records(theorems, field.p, field.r, K, rows, t0)


def _counted(theorem: str, field: FqField, K: int, params, counts, sides, bound, t0, closed_form):
    """Records of point counts against series sides recovered as integers in
    [-bound, bound] by ``recover_rows``, all at once, and mapped through
    ``closed_form``; a side that is not recovered reads
    ``unrecoverable(<its error>)`` and fails."""
    values, errors = recover_rows(sides, field.p**K, bound)
    values = closed_form(values).tolist()
    rows = []
    for pa, count, value, error in zip(params, counts, values, errors.tolist()):
        if error:
            rows.append((pa, str(count), f"unrecoverable({RECOVERY_ERRORS[error].__name__})", False))
        else:
            rows.append((pa, str(count), str(value), value == count))
    return _records(theorem, field.p, field.r, K, rows, t0)


# ---------------------------------------------------------------------------
# the series checks, a row at a time: each returns its records and its
# skips' gate names


def _mt1_row(field: FqField, K: int | None, d: np.ndarray, full: bool, branch=None, root=None):
    """MT1 at each d: the Hessian side at d against alpha + phi(-3) plus the
    trace side at the bridged (m, n), twisted by n.  Given each instance's
    ``branch`` and ``root``, COR2: that trace side rewritten by BS1."""
    t0, (K, uctx) = time.perf_counter(), _context(field, K)
    gates, m, n = _mt1_gates(field, d)
    if branch is None:
        skipped, d, m, n = _gated(gates, d, m, n)
        rhs = _series(PARAMS_QUARTER_THIRD, field, uctx, full, _trace_arg(field, m, n), n)
        theorems, params = "MT1", _params(field, ("d",), d)
    else:
        branch_gates, t, twist = _branch(field, branch, m, n, root)
        skipped, branch, d, root, n, t, twist = _gated(gates + branch_gates, branch, d, root, n, t, twist)
        # phi(n) turns BS1's phi(n val) or phi(-3n hw) into COR2's phi(val) or phi(-3hw)
        rhs = _branch_series(field, uctx, full, branch, t, field.np_mul(twist, n))
        theorems = [f"COR2_{b}" for b in branch.tolist()]
        params = _params(field, [("d", _ROOT[b]) for b in branch.tolist()], d, root)
    lhs = _series(PARAMS_HALF_SIXTH, field, uctx, full, field.np_pow(d, -3), field.np_mul(d, -3 % field.p))
    scalar = _alpha(field) + phi(field.element(-3))
    return _compared(theorems, field, K, params, lhs, rhs, t0, scalar), skipped


def _bs1_row(field: FqField, K: int | None, x: np.ndarray, full: bool):
    """BS1 at each (branch, a, b, root): the untwisted trace side at (a, b)
    against the branch side, both after the q-scaling that makes them p-adic
    integers (equivalent to comparing the series values mod p^{K-r})."""
    t0, (K, uctx) = time.perf_counter(), _context(field, K)
    branch, a, b, root = x.T
    arg = _trace_arg(field, a, b)
    gates = [("p_too_small", field.p > 3), ("a_is_zero", a != 0), ("b_is_zero", b != 0)]
    gates.append(("g_argument_is_one", arg != 1))
    branch_gates, t, twist = _branch(field, branch, a, b, root)
    skipped, branch, a, b, root, arg, t, twist = _gated(gates + branch_gates, branch, a, b, root, arg, t, twist)
    lhs = _series(PARAMS_QUARTER_THIRD, field, uctx, full, arg, np.ones_like(arg))
    rhs = _branch_series(field, uctx, full, branch, t, twist)
    params = _params(field, [("a", "b", _ROOT[br]) for br in branch.tolist()], a, b, root)
    return _compared([f"BS1_{br}" for br in branch.tolist()], field, K, params, lhs, rhs, t0), skipped


def _weierstrass_disc(field: FqField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """4a^3 + 27b^2 at each (a, b): y^2 = x^3 + ax + b is singular where it is 0."""
    p = field.p
    return field.np_add(field.np_mul(field.np_pow(a, 3), 4 % p), field.np_mul(field.np_pow(b, 2), 27 % p))


def _mc_row(field: FqField, K: int | None, x: np.ndarray):
    """MC at each (a, b): the counted trace of Frobenius of y^2 = x^3 + ax + b
    against the twisted trace side recovered as an integer, always summed."""
    t0, (K, uctx) = time.perf_counter(), _context(field, K)
    p, (a, b) = field.p, x.T
    skipped, a, b = _gated([("p_too_small", p > 3), ("j_is_zero", a != 0), ("j_is_1728", b != 0),
                            ("singular_curve", _weierstrass_disc(field, a, b) != 0)], a, b)
    traces = weierstrass_traces(field, a, b).tolist()
    sides = _series(PARAMS_QUARTER_THIRD, field, uctx, False, _trace_arg(field, a, b), b)
    params, bound = _params(field, ("a", "b"), a, b), math.isqrt(4 * field.q)
    return _counted("MC", field, K, params, traces, sides, bound, t0, lambda X: X), skipped


def _hessian_row(field: FqField, K: int | None, a: np.ndarray, full: bool, allow_small_p: bool):
    """HESSIAN at each a: the affine count of x^3 + y^3 + 1 = 3axy
    against alpha - 1 + q - q phi(-3a) 2G2[1/2,1/2;1/6,5/6 | 1/a^3]."""
    t0, (K, uctx) = time.perf_counter(), _context(field, K)
    p, q, alpha = field.p, field.q, _alpha(field)
    small = ("p_too_small", p > 5 or (allow_small_p and p > 3))
    skipped, a = _gated([small, ("a_is_zero", a != 0), ("a_cubed_is_one", field.np_pow(a, 3) != 1)], a)
    counts = hessian_counts(field, a).tolist()
    sides = _series(PARAMS_HALF_SIXTH, field, uctx, full, field.np_pow(a, -3), field.np_mul(a, -3 % p))
    params, bound = _params(field, ("a",), a), q + 6 * math.isqrt(q) + 6
    closed_form = lambda X: alpha - 1 + q - X  # noqa: E731
    return _counted("HESSIAN", field, K, params, counts, sides, bound, t0, closed_form), skipped


def _one(row) -> VerifyRecord:
    """The record of a row of length 1, or its gate's PreconditionFailed."""
    records, skipped = row
    if skipped:
        raise PreconditionFailed(skipped[0])
    return records[0]


def _indices(field: FqField, *values) -> np.ndarray:
    return np.array([field.element(v).idx for v in values])


def verify_mt1(p: int, r: int, d, K: int | None = None) -> VerifyRecord:
    """Main transformation between the [1/2,1/2;1/6,5/6] series at 1/d^3 and
    the [1/4,3/4;1/3,2/3] series at the bridged Weierstrass argument."""
    field = build_field(p, r)
    return _one(_mt1_row(field, K, _indices(field, d), False))


def verify_cor2(branch: int, p: int, r: int, d, aux, K: int | None = None) -> VerifyRecord:
    """The two corollary branches: the bridged series argument is rewritten
    through a root of the branch equation (3k^2 + m = 0, or x^3 + mx + n = 0)."""
    field = build_field(p, r)
    return _one(_mt1_row(field, K, _indices(field, d), False, np.array([branch]), _indices(field, aux)))


def verify_bs1(branch: int, p: int, r: int, a, b, aux, K: int | None = None) -> VerifyRecord:
    """The two series transformations at -27b^2/4a^3: toward [1/2,1/2;1/3,2/3]
    when a = -3k^2, toward [1/2,1/2;1/4,3/4] through a root of x^3 + ax + b."""
    field = build_field(p, r)
    return _one(_bs1_row(field, K, np.array([[branch, *_indices(field, a, b, aux)]]), False))


def verify_mc(p: int, r: int, a, b, K: int | None = None) -> VerifyRecord:
    """Trace formula: the counted trace of Frobenius of y^2 = x^3 + ax + b
    against phi(b) q 2G2[1/4,3/4;1/3,2/3 | -27b^2/4a^3] recovered as an integer."""
    field = build_field(p, r)
    return _one(_mc_row(field, K, _indices(field, a, b)[None]))


def verify_hessian(p: int, r: int, a, K: int | None = None, allow_small_p: bool = False) -> VerifyRecord:
    """The affine count of x^3 + y^3 + 1 = 3axy against the closed form
    alpha - 1 + q - q phi(-3a) 2G2[1/2,1/2;1/6,5/6 | 1/a^3]."""
    field = build_field(p, r)
    return _one(_hessian_row(field, K, _indices(field, a), False, allow_small_p))


# ---------------------------------------------------------------------------
# the gamma product identities, the floor identity and the Gauss-sum
# relations, a row at a time


def _omega_powers(t: int, e: np.ndarray, p: int, K: int) -> np.ndarray:
    """omega(t)^e mod p^K at each exponent e, for an integer t prime to p:
    omega(t) = t^(p^(K-1)) mod p^K lies in Z_p and has order dividing p - 1."""
    m, powers = p**K, np.frompyfunc(pow, 3, 1)
    return powers(pow(t, p ** (K - 1), m), (e % (p - 1)).astype(object), m).astype(residue_dtype(m))


def _gamma_products(cache: GammaCache, c: np.ndarray, D: int) -> np.ndarray:
    """The product mod p^K of Gamma_p({c/D}) along the last axis of c, from
    one evaluation at the distinct points."""
    points, inverse = np.unique(c.ravel() % D, return_inverse=True)
    values = cache.values(points, D)[inverse].reshape(c.shape)
    out = 1
    for k in range(c.shape[-1]):
        out = out * values[..., k] % cache.modulus
    return out


def _gamma_records(theorem: str, field: FqField, K: int, params: list, sides: np.ndarray, t0: float):
    """Records of the residues sides[:, :k] against sides[:, k:], k the half
    width, each side written as ';'-joined coordinate strings of Z_q."""
    k, zero = sides.shape[1] // 2, ".0" * (field.r - 1)
    text = [[";".join(f"{v}{zero}" for v in half) for half in (row[:k], row[k:])] for row in sides.tolist()]
    passed = (sides[:, :k] == sides[:, k:]).all(axis=1).tolist()
    rows = [(pa, *tx, ok) for pa, tx, ok in zip(params, text, passed)]
    return _records(theorem, field.p, field.r, K, rows, t0)


def _lemma31_row(field: FqField, K: int | None, x: np.ndarray):
    """LEMMA31 at each (t, j), both multiplication identities, over i < r:
    omega(t)^(tj) times Gamma_p at {t p^i j/(q-1)} and the grid {h p^i/t},
    0 < h < t, against Gamma_p at {h p^i/t + p^i j/(q-1)}, 0 <= h < t; and
    omega(t)^(-tj) times Gamma_p at {-t p^i j/(q-1)} and the same grid,
    against Gamma_p at {h p^i/t - p^i j/(q-1)}, 0 < h <= t.  Every point is
    c/D with D = t(q-1), one evaluation for each t's instances.  A left
    side puts its point {+-t p^i j/(q-1)} at the grid's h = 0, whose own
    value is Gamma_p(0) = 1, so the four sides have t points for each i."""
    t0, (p, r, q) = time.perf_counter(), (field.p, field.r, field.q)
    cache = gamma_cache(p, default_precision(p, r) if K is None else K)
    skipped, t, j = _gated([("t_divisible_by_p", x[:, 0] % p != 0)], *x.T)
    if (t <= 0).any():
        raise ValueError("t must be a positive integer coprime to p")
    if ((j < 0) | (j > q - 2)).any():
        raise ValueError("j out of range")
    sides, pi = np.zeros((len(t), 4), dtype=residue_dtype(cache.modulus)), p ** np.arange(r)
    for tv in sorted(set(t.tolist())):
        at = t == tv
        grid = np.outer(np.arange(tv + 1), pi * (q - 1))  # h p^i/t over D, h <= t
        shift = tv * pi * j[at, None, None]  # p^i j/(q-1) over D, shape (n, 1, r)
        own = tv * shift * (np.arange(tv) == 0)[:, None]  # t p^i j/(q-1) at h = 0
        c = np.stack([grid[:tv] + own, grid[:tv] - own, grid[:tv] + shift, grid[1:] - shift], axis=1)
        prods = _gamma_products(cache, c.reshape(len(shift), 4, tv * r), tv * (q - 1))
        omega = _omega_powers(tv, tv * j[at, None] * np.array([1, -1]), p, cache.K)
        prods[:, :2] = prods[:, :2] * omega % cache.modulus
        sides[at] = prods
    params = [{"t": tv, "j": jv} for tv, jv in zip(t.tolist(), j.tolist())]
    return _gamma_records("LEMMA31", field, cache.K, params, sides, t0), skipped


def _eq29_row(field: FqField, K: int | None, l: np.ndarray):
    """EQ29 at each l: the product of Gamma_p at {l p^i/(q-1)} and
    {-l p^i/(q-1)} over i < r, against (-1)^r omega-bar(-1)^l = (-1)^(r+l),
    since omega-bar(-1) = -1 for odd p."""
    t0, (p, r, q) = time.perf_counter(), (field.p, field.r, field.q)
    cache = gamma_cache(p, default_precision(p, r) if K is None else K)
    if ((l <= 0) | (l >= q - 1)).any():
        raise ValueError("l must satisfy 0 < l < q-1")
    shift = l[:, None] * p ** np.arange(r)
    lhs = _gamma_products(cache, np.concatenate([shift, -shift], axis=1), q - 1)
    sign = np.array([1, cache.modulus - 1], dtype=lhs.dtype)[(r + l) % 2]
    params = [{"l": v} for v in l.tolist()]
    return _gamma_records("EQ29", field, cache.K, params, np.stack([lhs, sign], axis=1), t0), []


def _lemma5_row(p: int, r: int, x: np.ndarray):
    """LEMMA5 at each (l, i): with n = l p^i and s = n/(q-1), the floor sum
    [3s] + 3[-s] - 3[-2s] - [6s] against -2[1/2 - s] - [a/6 + s] - [b/6 + s],
    where 1/2, a/6 and b/6 are the fractional parts of p^i/2, -p^i/6 and
    -5p^i/6: every floor an integer quotient over q - 1 or 6(q - 1)."""
    t0, q1 = time.perf_counter(), p**r - 1
    l, i = x.T
    if p in (2, 3) or ((l < 1) | (l >= q1) | (2 * l == q1) | (i < 0) | (i >= r)).any():
        raise ValueError("LEMMA5 needs p prime to 6, 0 < l < q - 1, l != (q - 1)/2 and 0 <= i < r")
    pi, n, d = p**i, l * p**i, 6 * q1
    lhs = 3 * n // q1 + 3 * (-n // q1) - 3 * (-2 * n // q1) - 6 * n // q1
    rhs = -2 * ((3 * q1 - 6 * n) // d) - (-pi % 6 * q1 + 6 * n) // d - (-5 * pi % 6 * q1 + 6 * n) // d
    params = [{"l": lv, "i": iv} for lv, iv in zip(l.tolist(), i.tolist())]
    rows = zip(params, map(str, lhs.tolist()), map(str, rhs.tolist()), (lhs == rhs).tolist())
    return _records("LEMMA5", p, r, default_precision(p, r), rows, t0), []


def _cmul(a, b) -> np.ndarray:
    """a * b from four separate float64 products, rounded as numpy's scalar
    complex multiply rounds; its array multiply may round them differently."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _float_records(theorem: str, field: FqField, params: list, lhs: np.ndarray, rhs: np.ndarray, t0: float):
    """Records of complex float sides, each pair passing within
    ``default_tolerance``; |lhs - rhs| is ``np.hypot``, as ``abs`` rounds it."""
    if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
        raise ArithmeticError("non-finite product")
    diff, text = lhs - rhs, "{0.real:.12e}{0.imag:+.12e}j".format
    passed = (np.hypot(diff.real, diff.imag) < default_tolerance(field, rhs)).tolist()
    rows = zip(params, map(text, lhs.tolist()), map(text, rhs.tolist()), passed)
    return _records(theorem, field.p, field.r, 0, rows, t0), []


def _gauss_gk_row(field: FqField, k: np.ndarray):
    """GAUSS_GK at each k: G_k G_{-k} against q T^k(-1) = (-1)^k q."""
    t0, q1, tab = time.perf_counter(), field.q - 1, gauss_tables(field.model)
    e = k % q1
    if (e == 0).any():
        raise TrivialCharacter("k must be nonzero mod q-1")
    lhs, rhs = _cmul(tab.G[e], tab.G[-e % q1]), np.where(e % 2, -field.q, field.q).astype(complex)
    return _float_records("GAUSS_GK", field, [{"k": v} for v in k.tolist()], lhs, rhs, t0)


def _gauss_theta_row(field: FqField, alpha: np.ndarray):
    """GAUSS_THETA at each alpha: theta(alpha) against its expansion
    (1/(q-1)) sum_m G_{-m} T^m(alpha), one array sum over m per alpha: a
    sum over a block of alphas at once runs slower from q near 10^4 on."""
    t0, q1, tab = time.perf_counter(), field.q - 1, gauss_tables(field.model)
    if (alpha == 0).any():
        raise ZeroArgument("alpha must be nonzero")
    s, m = field.dlog_np[alpha], np.arange(q1)
    g = tab.G[-m % q1]
    rhs = np.array([np.sum(g * tab.zeta_q1[m * v % q1]) for v in s.tolist()], dtype=complex) / q1
    params = _params(field, ("alpha",), alpha)
    return _float_records("GAUSS_THETA", field, params, tab.zeta_p[tab.trace[s]], rhs, t0)


def _gauss_dh_row(field: FqField, x: np.ndarray):
    """GAUSS_DH at each (m, psi): the product of G over the m-torsion
    characters twisted by psi against -G(psi^m) psi(m^-m) times the
    untwisted product (Davenport-Hasse)."""
    t0, q1, tab = time.perf_counter(), field.q - 1, gauss_tables(field.model)
    m, psi = x.T
    if (bad := (m <= 0) | (q1 % np.maximum(m, 1) != 0)).any():
        raise ModulusMismatch(f"q = {field.q} is not 1 mod {m[bad][0]}")
    e, step = psi % q1, q1 // m
    lhs = base = np.ones(len(m), dtype=complex)
    for k in range(m.max(initial=0)):
        lhs = np.where(k < m, _cmul(lhs, tab.G[(k * step + e) % q1]), lhs)
        base = np.where(k < m, _cmul(base, tab.G[k * step % q1]), base)
    char = tab.zeta_q1[e * -m * field.dlog_np[m % field.p] % q1]  # psi(m^-m)
    rhs = _cmul(_cmul(-tab.G[m * e % q1], char), base)
    params = [{"m": mv, "psi": pv} for mv, pv in zip(m.tolist(), psi.tolist())]
    return _float_records("GAUSS_DH", field, params, lhs, rhs, t0)


def _ortho_row(field: FqField, x: np.ndarray):
    """ORTHO once per entry of x, a listing of at most one: both
    orthogonality relations of the field's characters, checked exactly."""
    t0 = time.perf_counter()
    passed = len(x) > 0 and check_orthogonality(field)
    rows = [({}, "exact", "exact" if passed else "violated", passed) for _ in x]
    return _records("ORTHO", field.p, field.r, 0, rows, t0), []


def verify_gauss_gk_record(p: int, r: int, k: int) -> VerifyRecord:
    return _one(_gauss_gk_row(build_field(p, r), np.array([k])))


def verify_gauss_theta_record(p: int, r: int, alpha_idx: int) -> VerifyRecord:
    field = build_field(p, r)
    return _one(_gauss_theta_row(field, np.array([field.from_index(alpha_idx).idx])))


def verify_gauss_dh_record(p: int, r: int, m: int, psi: int) -> VerifyRecord:
    return _one(_gauss_dh_row(build_field(p, r), np.array([[m, psi]])))


# ---------------------------------------------------------------------------
# the suite


class _SuiteRun:
    def __init__(self, spec: RangeSpec):
        self.spec = spec
        self.records: list[VerifyRecord] = []
        self.skipped = 0
        self.full = False  # did the current row's lister draw every position?

    def sampled(self, size: int, tag: str) -> np.ndarray:
        """The positions a row draws among its ``size`` arguments: all of
        them in order, or the ``sample`` seeded positions that
        ``random.sample`` of the argument list itself would pick.  A row
        drawing every position reads ``GProfile.qg_table``; any other row, and
        MC's draw, makes one batched sum over its distinct points.  That is
        the break-even, not a setting: a table costs about 145 batched points
        at q = 121 and 270 at q = 9,973 (1.1 s), and took 39.5 s in-process at
        q = 99,991.
        """
        n = self.spec.sample
        self.full = n is None or size <= n
        if self.full:
            return np.arange(size)
        return np.array(random.Random(f"{self.spec.seed}:{tag}").sample(range(size), n), dtype=np.int64)


# Listers: (run, field, tag) -> the arguments of one row, an index array.
# Calls: (run, field, arguments) -> (records, skip gates).


def _unit_indices(run: _SuiteRun, field: FqField, tag: str) -> np.ndarray:
    return run.sampled(field.q - 1, tag) + 1


def _cor2_roots(run: _SuiteRun, field: FqField, tag: str) -> np.ndarray:
    """(branch, d, root) rows: for each sampled d in draw order, branch 1's
    square roots k of -m/3, then branch 2's roots h of x^3 + mx + n in index
    order, for the (m, n) bridged from d.  A d that fails MT1's gates is
    listed once, as (1, d, 0), and its row skips it by that gate.  The h are
    the 2-torsion, on the Hessian cubic's line x = y: each unit x lies on the
    cubic of d = (2x^3 + 1)/(3x^2), and ``hessian_bridge``'s substitution at
    y = x gives h = -(36 - 9d^3 + 54d^2 x)/(3(2x + d)).  If 2x + d = 0 then
    d^3 = 1, which MT1 skips, so no row gathers that x.  One sort by (d, h)
    lists a whole field's roots, O(q log q) for every q and sample."""
    q, p, d = field.q, field.p, _unit_indices(run, field, tag)
    gates, m, n = _mt1_gates(field, d)
    good = _gated(gates, np.arange(len(d)))[1]
    s = field.dlog_np[field.np_div(m, -3 % p)]
    even = good[s[good] % 2 == 0]
    k = field.exp_np[np.add.outer(s[even] // 2, [0, (q - 1) // 2])].ravel()
    x = np.arange(1, q)
    dx = field.np_div(field.np_add(field.np_mul(field.np_pow(x, 3), 2), 1), field.np_mul(field.np_pow(x, 2), 3))
    num = field.np_add(field.np_mul(field.np_pow(dx, 2), field.np_add(dx, field.np_mul(x, -6 % p))), -4 % p)
    h = field.np_div(field.np_mul(num, 3), field.np_add(field.np_mul(x, 2), dx))  # 3(d^3 - 6d^2 x - 4)/(2x + d)
    dx, h = np.stack([dx, h])[:, np.lexsort((h, dx))]
    lo, hi = (np.searchsorted(dx, d[good], side) for side in ("left", "right"))
    count = hi - lo
    at = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())  # each good d's group in turn
    bad = np.delete(np.arange(len(d)), good)
    keys = np.concatenate([bad, np.repeat(even, 2), np.repeat(good, count)])
    branch = np.repeat([1, 1, 2], [len(bad), len(k), len(at)])
    roots = np.concatenate([np.zeros_like(bad), k, h[at]])
    return np.stack([branch, d[keys], roots], axis=1)[np.argsort(keys, kind="stable")]


def _lemma31_instances(run: _SuiteRun, field: FqField, tag: str) -> np.ndarray:
    """The sampled (t, j) of the listing: each t in (2, 3, 6) prime to p with
    every j in [0, q - 2], t then j in order."""
    t, n = np.array([t for t in (2, 3, 6) if t % field.p]), field.q - 1
    pos = run.sampled(len(t) * n, tag)
    return np.stack([t[pos // n], pos % n], axis=1)


_BS1_PARTNERS = 3


def _bs1_instances(run: _SuiteRun, field: FqField, tag: str) -> np.ndarray:
    """The sampled (branch, a, b, root) rows of the listing: each root's first
    ``_BS1_PARTNERS`` admissible partners in index order, b for k (a = -3k^2)
    and a for h (b = -h^3 - ah), branch 1 then branch 2, roots in index order.
    Branch 1 excludes at most 3 values of b (b = 2k^3, two with trace
    argument 1), branch 2 at most 5 of a (a = -3h^2, b = 0, three with trace
    argument 1), so one array pass over the first min(q - 1, 8) units finds
    them; from q = 9 on every root has all of them."""
    q, p = field.q, field.p
    roots, cand = np.arange(1, q)[:, None], np.arange(1, min(q - 1, _BS1_PARTNERS + 5) + 1)[None, :]
    cubes, squares = field.np_pow(roots, 3), field.np_pow(roots, 2)
    a1 = field.np_mul(squares, -3 % p)
    ok1 = field.np_add(field.np_add(cubes, field.np_mul(a1, roots)), cand) != 0
    ok1 &= _trace_arg(field, a1, cand) != 1
    b2 = field.np_mul(field.np_add(cubes, field.np_mul(cand, roots)), p - 1)
    ok2 = (field.np_add(field.np_mul(squares, 3 % p), cand) != 0) & (b2 != 0)
    ok2 &= _trace_arg(field, cand, b2) != 1
    parts = []
    for branch, ok, a, b in ((1, ok1, a1, cand), (2, ok2, cand, b2)):
        i, j = np.nonzero(ok & (np.cumsum(ok, axis=1) <= _BS1_PARTNERS))
        a, b = np.broadcast_to(a, ok.shape)[i, j], np.broadcast_to(b, ok.shape)[i, j]
        parts.append(np.stack([np.full_like(i, branch), a, b, i + 1], axis=1))
    listing = np.concatenate(parts)
    return listing[run.sampled(len(listing), tag)]


def _mc_draws(run: _SuiteRun, field: FqField, tag: str) -> np.ndarray:
    """The seeded curve draw, not sampled: (a, b) until ``sample`` (default
    20) of them are nonsingular; the singular ones are listed too, and
    their row skips them."""
    want = run.spec.sample if run.spec.sample is not None else 20
    rng = random.Random(f"{run.spec.seed}:{tag}")
    batches, drawn, nonsingular = [], 0, 0
    while nonsingular < want and drawn < 100 * want:
        # each draw may be the last nonsingular one wanted, so a batch of this
        # size makes the rng calls and stops where one draw at a time would
        n = min(want - nonsingular, 100 * want - drawn)
        ab = np.array([rng.randrange(1, field.q) for _ in range(2 * n)], dtype=np.int64).reshape(n, 2)
        batches.append(ab)
        drawn += n
        nonsingular += int(np.count_nonzero(_weierstrass_disc(field, ab[:, 0], ab[:, 1])))
    return np.concatenate(batches) if batches else np.zeros((0, 2), dtype=np.int64)


def _lemma5_instances(run: _SuiteRun, field: FqField, tag: str) -> np.ndarray:
    """The sampled (l, i) of the listing: each l in [1, q - 2] but (q - 1)/2,
    with every i < r, l then i in order."""
    r = field.r
    pos = run.sampled((field.q - 3) * r, tag)
    l = pos // r + 1
    return np.stack([l + (2 * l >= field.q - 1), pos % r], axis=1)


def _dh_instances(run: _SuiteRun, field: FqField, tag: str, m: int) -> np.ndarray:
    """The sampled (m, psi) of the listing: every psi in [0, q - 2] if m
    divides q - 1, else none."""
    q1 = field.q - 1
    psi = run.sampled(q1 if q1 % m == 0 else 0, tag)
    return np.stack([np.full_like(psi, m), psi], axis=1)


# theorem -> (smallest p, rows of (sample tag, argument lister, call)).  A
# call names its row function in its body, so that function is looked up in
# this module each time the call runs.
_PLANS = {
    "mt1": (5, [("mt1:{p}:{r}", _unit_indices, lambda run, f, d: _mt1_row(f, run.spec.K, d, run.full))]),
    "cor2": (5, [("cor2:{p}:{r}", _cor2_roots, lambda run, f, x: _mt1_row(
        f, run.spec.K, x[:, 1], run.full, x[:, 0], x[:, 2]))]),
    "bs1": (5, [("bs1:{p}:{r}", _bs1_instances, lambda run, f, x: _bs1_row(f, run.spec.K, x, run.full))]),
    "mc": (5, [("mc:{p}:{r}", _mc_draws, lambda run, f, x: _mc_row(f, run.spec.K, x))]),
    "hessian": (5, [("hessian:{p}:{r}", _unit_indices, lambda run, f, a: _hessian_row(
        f, run.spec.K, a, run.full, run.spec.allow_p5))]),
    "lemma31": (3, [("lemma31:{p}:{r}", _lemma31_instances, lambda run, f, x: _lemma31_row(f, run.spec.K, x))]),
    "lemma5": (5, [("lemma5:{p}:{r}", _lemma5_instances, lambda run, f, x: _lemma5_row(f.p, f.r, x))]),
    "eq29": (3, [("eq29:{p}:{r}", lambda run, f, tag: run.sampled(f.q - 2, tag) + 1,
                  lambda run, f, l: _eq29_row(f, run.spec.K, l))]),
    "gauss": (3, [
        ("gauss_gk:{p}:{r}", lambda run, f, tag: run.sampled(f.q - 2, tag) + 1,
         lambda run, f, k: _gauss_gk_row(f, k)),
        ("gauss_theta:{p}:{r}", _unit_indices, lambda run, f, a: _gauss_theta_row(f, a)),
        *((f"gauss_dh:{{p}}:{{r}}:{m}", partial(_dh_instances, m=m), lambda run, f, x: _gauss_dh_row(f, x))
          for m in (2, 3, 6)),
    ]),
    "ortho": (3, [("ortho:{p}:{r}", lambda run, f, tag: run.sampled(1, tag), lambda run, f, x: _ortho_row(f, x))]),
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
        """The fields in order, tuples as lists, and r_values under "r"."""
        values = {("r" if f.name == "r_values" else f.name): getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


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
    for name, values in (("theorems", spec.theorems), ("r values", spec.r_values)):
        if len(set(values)) < len(values):
            raise ValueError(f"repeated {name}: {list(values)}")
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
                    records, skipped = call(run, field, lister(run, field, tag.format(p=p, r=r)))
                    run.records += records
                    run.skipped += len(skipped)
    total, passed = len(run.records), sum(rec.passed for rec in run.records)
    summary = {"total": total, "passed": passed, "failed": total - passed, "skipped": run.skipped}
    return Report("+".join(spec.theorems), started, spec.config_dict(), run.records, summary)
