"""Seeded workload generators and runners for the padichyper benchmark.

A workload is a list of inputs made from a seed by ``make_inputs`` and a
runner that drives the library through its public names only (looked up on
the ``padichyper`` package at call time, so the traced run can wrap them).
Every runner checks its own outputs and returns an ``Outcome``.

Sweep workloads call ``run_suite``; their seed picks the seeded draws inside
the sweep (curves, sampled instances), while the fields swept stay fixed, so
the work done is nearly the same for every seed.  The g-eval workload draws
evaluation points for a fixed list of (family, field) cells, run cell by cell
in a fixed order: the gamma tables a cell fills depend on the cells before
it, so a seeded order would make the cold work and peak memory vary.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0

# McCarthy's trace family: phi(b) q 2G2[...| -27b^2/4a^3] is the trace of
# Frobenius of y^2 = x^3 + ax + b.
TRACE_FAMILY = "1/4,3/4;1/3,2/3"
# Families whose terms have negative or spread valuations, so g_eval works
# at K + guard digits.
GUARD_FAMILIES = ("1/2,1/2,1/2;1,1,1", "1/2,1/2,1/2,1/2;1/6,5/6,1/6,5/6")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" or "g_eval"
    warm_repeats: int
    sizes: dict


# Sweeps cover r in {1, 2} for 5 <= p <= pmax (so q <= pmax^2) unless noted.
def _mc(pmax: int):
    return [dict(theorems=("mc",), pmin=5, pmax=pmax, r_values=(1, 2), qmax=pmax**2)]


def _transform(cor2_pmax: int, bs1_pmax: int, bs1_sample: int):
    # cor2 is swept exhaustively: its instance count per d varies, so sampling
    # it would make the work depend on the seed.  bs1 samples a fixed count.
    return [
        dict(theorems=("cor2",), pmin=5, pmax=cor2_pmax, r_values=(1, 2), qmax=cor2_pmax**2),
        dict(theorems=("bs1",), pmin=5, pmax=bs1_pmax, r_values=(1, 2), qmax=bs1_pmax**2, sample=bs1_sample),
    ]


def _hessian(pmax: int, sample: int, big_p: int, big_sample: int):
    # small fields with r in {1, 2}, then one large F_{p^2}: its q-by-q grids
    # set the peak memory, and at K = 5 its gamma table stays cheap
    spec = dict(theorems=("hessian",), allow_p5=True)
    return [
        dict(spec, pmin=5, pmax=pmax, r_values=(1, 2), qmax=pmax**2, sample=sample),
        dict(spec, pmin=big_p, pmax=big_p, r_values=(2,), qmax=big_p**2, sample=big_sample),
    ]


# g-eval cells: (family, p, r).  Every p^(K + guard) stays below 2^32, where
# the gamma table still runs on numpy (see README.md).
_G_CELLS_FULL = (
    [(TRACE_FAMILY, p, r) for p, r in ((5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (7, 2))]
    + [(GUARD_FAMILIES[0], p, 1) for p in (5, 7)]
    + [(GUARD_FAMILIES[1], p, 1) for p in (5, 7)]
)
_G_CELLS_TINY = [(TRACE_FAMILY, 5, 1), (TRACE_FAMILY, 5, 2), (GUARD_FAMILIES[0], 5, 1), (GUARD_FAMILIES[1], 5, 1)]

WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-mc", "sweep", 1, {"full": _mc(29), "tiny": _mc(11)}),
        Workload(
            "sweep-transform", "sweep", 1, {"full": _transform(11, 17, 30), "tiny": _transform(7, 7, 5)}
        ),
        Workload("sweep-hessian", "sweep", 1, {"full": _hessian(13, 12, 31, 6), "tiny": _hessian(7, 4, 11, 2)}),
        Workload("g-eval", "g_eval", 3, {"full": (_G_CELLS_FULL, 5), "tiny": (_G_CELLS_TINY, 2)}),
    )
}


@dataclass
class Outcome:
    """What one pass of a workload did and whether its outputs were right."""

    attempted: int = 0
    failed: int = 0
    skipped: int = 0
    errors: list = field(default_factory=list)
    digest: str = ""


def make_inputs(ph, name: str, seed: int, size: str = "full") -> list:
    """The workload's inputs for this seed: RangeSpec keyword sets for the
    sweeps, evaluation draws for g-eval.  Same seed, same inputs."""
    w = WORKLOADS[name]
    if w.kind == "sweep":
        return [dict(spec, seed=seed) for spec in w.sizes[size]]
    cells, per_cell = w.sizes[size]
    rng = random.Random(f"g-eval:{seed}")
    draws = []
    for family, p, r in cells:
        # a standalone field, not the library's cache, so the timed pass
        # still builds its fields (only the defining-polynomial search is
        # already cached by then)
        fq = ph.FqField(p, r)
        for _ in range(per_cell):
            if family == TRACE_FAMILY:
                while True:
                    a, b = fq.from_index(rng.randrange(1, fq.q)), fq.from_index(rng.randrange(1, fq.q))
                    if not (4 * a**3 + 27 * b * b).is_zero:
                        break
                draws.append({"family": family, "p": p, "r": r, "a": a.idx, "b": b.idx})
            else:
                draws.append({"family": family, "p": p, "r": r, "t": rng.randrange(1, fq.q)})
    return draws


# The report fields a digest covers.  Wall-clock fields (started_at,
# elapsed_ms) are left out, as are fields a later report format may add, so
# the digest pins the results and not the layout.
RECORD_FIELDS = ("theorem", "p", "r", "K", "params", "lhs", "rhs", "pass")
SUMMARY_FIELDS = ("total", "passed", "failed", "skipped")


def normalized_report(report_json: str) -> str:
    """The records and summary of a report, without wall-clock fields."""
    doc = json.loads(report_json)
    return json.dumps(
        {
            "records": [{k: rec[k] for k in RECORD_FIELDS} for rec in doc["records"]],
            "summary": {k: doc["summary"][k] for k in SUMMARY_FIELDS},
        },
        indent=1,
    )


def run_pass(ph, name: str, inputs: list) -> Outcome:
    if WORKLOADS[name].kind == "sweep":
        return _run_sweeps(ph, inputs)
    return _run_g_eval(ph, inputs)


def _run_sweeps(ph, specs: list) -> Outcome:
    out = Outcome()
    digest = hashlib.sha256()
    for kwargs in specs:
        spec = ph.RangeSpec(**kwargs)
        try:
            report = ph.run_suite(spec)
            text = report.to_json()
        except Exception as exc:  # one aborted sweep counts as one failed attempt
            out.attempted += 1
            out.failed += 1
            out.errors.append(f"{'+'.join(spec.theorems)}: {exc!r}")
            continue
        out.attempted += len(report.records)
        out.skipped += report.summary["skipped"]
        for rec in report.records:
            if not rec.passed:
                out.failed += 1
                out.errors.append(f"FAIL {rec.theorem} p={rec.p} r={rec.r} {rec.params}")
        digest.update(normalized_report(text).encode())
    out.digest = digest.hexdigest()
    return out


def _run_g_eval(ph, draws: list) -> Outcome:
    out = Outcome()
    digest = hashlib.sha256()
    for d in draws:
        out.attempted += 1
        p, r = d["p"], d["r"]
        try:
            field_ = ph.build_field(p, r)
            K = ph.default_precision(p, r)
            uctx = ph.uctx_for(field_, K)
            params = ph.gparams(d["family"])
            if "a" in d:
                a, b = field_.from_index(d["a"]), field_.from_index(d["b"])
                t = -27 * b * b / (4 * a**3)
            else:
                t = field_.from_index(d["t"])
            value = ph.g_eval(ph.GInstance(params, field_, uctx, t))
            ok = value.abs_prec >= K
            trace = None
            if "a" in d:
                q = field_.q
                trace = ph.recover_integer(value.scale_int(q * ph.phi(b)), math.isqrt(4 * q), p=p)
                ok = ok and trace == ph.count_weierstrass(ph.WeierstrassCurve(a, b)).trace
        except Exception as exc:  # one bad draw must not hide the others
            out.failed += 1
            out.errors.append(f"{d}: {exc!r}")
            continue
        if not ok:
            out.failed += 1
            out.errors.append(f"{d}: value {value.digits()} abs_prec {value.abs_prec} trace {trace}")
        digest.update(f"{d['family']}|{p}|{r}|{t.idx}|{value.digits()}|{trace}\n".encode())
    out.digest = digest.hexdigest()
    return out
