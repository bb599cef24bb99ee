"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps the library's public functions at the name their
caller looks them up under (a module global such as
``padichyper.verify.profile_for``, or a method on its class such as
``GProfile.eval_qg``).  Each call becomes one span (name, start, end,
parent) kept in memory; ``ZqElement.__mul__`` and ``FqField.__init__`` are
only counted, since a span per ring multiply would swamp the run.  Self
times and the per-layer metrics are computed from the spans afterwards.

The program is single-threaded and does no I/O, so no layer waits on
another and no wait time is recorded.
"""

from __future__ import annotations

import functools
import gc
from collections import Counter, defaultdict
import json
import time
from pathlib import Path


def _spanned_sites():
    """span name -> [(owner, attribute)], the names callers look the
    functions up under."""
    import padichyper
    from padichyper import hyper, verify

    return {
        "hyper.profile": [(verify, "profile_for"), (hyper, "profile_for")],
        "hyper.profile.build": [(hyper.GProfile, "__init__")],
        "hyper.eval_qg": [(hyper.GProfile, "eval_qg")],
        "hyper.g_eval": [(padichyper, "g_eval")],
        "hyper.recover": [(verify, "recover_integer"), (padichyper, "recover_integer")],
        "padic.teich": [(hyper, "teichmueller")],
        "padic.zq_inv": [(hyper, "zq_inv")],
        "padic.padic_sum": [(verify, "padic_sum"), (hyper, "padic_sum")],
        "fields.build": [(verify, "build_field"), (padichyper, "build_field")],
        "curves.count_hessian": [(verify, "count_hessian")],
        "curves.count_weierstrass": [(verify, "count_weierstrass"), (padichyper, "count_weierstrass")],
        "verify.record": [
            (verify, name) for name in ("verify_mt1", "verify_cor2", "verify_bs1", "verify_mc", "verify_hessian")
        ],
        "verify.run_suite": [(padichyper, "run_suite")],
        "verify.report": [(verify.Report, "to_json")],
    }


# every per-layer metric the traced run reports, with its unit
PER_LAYER_UNITS = {
    "gamma.table.calls": "count",
    "gamma.table.cold": "count",
    "gamma.table.hit_ratio": "ratio",
    "gamma.table.busy_s": "s",
    "gamma.ints_swept": "count",
    "gamma.checkpoints": "count",
    "hyper.profile.calls": "count",
    "hyper.profile.builds": "count",
    "hyper.profile.hit_ratio": "ratio",
    "hyper.profile.build_self_s": "s",
    "hyper.eval_qg.calls": "count",
    "hyper.eval_qg.busy_s": "s",
    "hyper.g_eval.calls": "count",
    "hyper.g_eval.busy_s": "s",
    "hyper.recover.calls": "count",
    "padic.zq_mul.calls": "count",
    "padic.teich.calls": "count",
    "padic.teich.busy_s": "s",
    "padic.zq_inv.busy_s": "s",
    "padic.padic_sum.busy_s": "s",
    "fields.build.calls": "count",
    "fields.build.cold": "count",
    "fields.build_s": "s",
    "curves.count_hessian.calls": "count",
    "curves.count_hessian.busy_s": "s",
    "curves.count_weierstrass.busy_s": "s",
    "verify.records": "count",
    "verify.skipped": "count",
    "verify.skip_ratio": "ratio",
    "verify.record.busy_s": "s",
    "verify.plan_self_s": "s",
    "verify.report_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts = {"padic.zq_mul.calls": 0, "fields.build.cold": 0, "gamma.table.cold": 0}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        from padichyper.fields import FqField
        from padichyper.gamma import GammaCache
        from padichyper.padic import ZqElement

        for name, sites in _spanned_sites().items():
            for owner, attr in sites:
                self._patch(owner, attr, self._timed(name, getattr(owner, attr)))

        counts = self.counts
        table = GammaCache.__dict__["rational_table"]  # the lru_cache wrapper

        def rational_table(cache, denominator):
            misses = table.cache_info().misses
            idx = self.open("gamma.table")
            try:
                return table(cache, denominator)
            finally:
                self.close(idx)
                if table.cache_info().misses != misses:
                    counts["gamma.table.cold"] += 1

        self._patch(GammaCache, "rational_table", rational_table)

        mul = ZqElement.__mul__

        def __mul__(x, y):
            counts["padic.zq_mul.calls"] += 1
            return mul(x, y)

        self._patch(ZqElement, "__mul__", __mul__)

        field_init = FqField.__init__

        def __init__(*args, **kwargs):
            counts["fields.build.cold"] += 1
            field_init(*args, **kwargs)

        self._patch(FqField, "__init__", __init__)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------------

    def _durations(self) -> tuple[list[float], list[float]]:
        """Per span: duration and self time (duration minus direct children)."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        self_t = list(dur)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                self_t[parent] -= dur[idx]
        return dur, self_t

    def metrics(self, records: int, skipped: int) -> dict[str, float]:
        """Per-layer metrics over every span recorded (all passes)."""
        from padichyper.gamma import GammaCache

        dur, self_t = self._durations()
        calls = Counter(self.names)
        busy: dict[str, float] = defaultdict(float)
        self_sum: dict[str, float] = defaultdict(float)
        plan_self = 0.0
        for idx, name in enumerate(self.names):
            busy[name] += dur[idx]
            self_sum[name] += self_t[idx]
            if name == "verify.run_suite":
                plan_self += dur[idx]
            elif name == "verify.record" and self.names[self.parents[idx]] == "verify.run_suite":
                plan_self -= dur[idx]

        caches = [o for o in gc.get_objects() if isinstance(o, GammaCache)]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        cold_tables = self.counts["gamma.table.cold"]
        builds = calls["hyper.profile.build"]
        return {
            "gamma.table.calls": calls["gamma.table"],
            "gamma.table.cold": cold_tables,
            "gamma.table.hit_ratio": ratio(calls["gamma.table"] - cold_tables, calls["gamma.table"]),
            "gamma.table.busy_s": busy["gamma.table"],
            "gamma.ints_swept": sum(max(cache.table) for cache in caches),
            "gamma.checkpoints": sum(len(cache.table) for cache in caches),
            "hyper.profile.calls": calls["hyper.profile"],
            "hyper.profile.builds": builds,
            "hyper.profile.hit_ratio": ratio(calls["hyper.profile"] - builds, calls["hyper.profile"]),
            "hyper.profile.build_self_s": self_sum["hyper.profile.build"],
            "hyper.eval_qg.calls": calls["hyper.eval_qg"],
            "hyper.eval_qg.busy_s": busy["hyper.eval_qg"],
            "hyper.g_eval.calls": calls["hyper.g_eval"],
            "hyper.g_eval.busy_s": busy["hyper.g_eval"],
            "hyper.recover.calls": calls["hyper.recover"],
            "padic.zq_mul.calls": self.counts["padic.zq_mul.calls"],
            "padic.teich.calls": calls["padic.teich"],
            "padic.teich.busy_s": busy["padic.teich"],
            "padic.zq_inv.busy_s": busy["padic.zq_inv"],
            "padic.padic_sum.busy_s": busy["padic.padic_sum"],
            "fields.build.calls": calls["fields.build"],
            "fields.build.cold": self.counts["fields.build.cold"],
            "fields.build_s": busy["fields.build"],
            "curves.count_hessian.calls": calls["curves.count_hessian"],
            "curves.count_hessian.busy_s": busy["curves.count_hessian"],
            "curves.count_weierstrass.busy_s": busy["curves.count_weierstrass"],
            "verify.records": records,
            "verify.skipped": skipped,
            "verify.skip_ratio": ratio(skipped, records + skipped),
            "verify.record.busy_s": busy["verify.record"],
            "verify.plan_self_s": plan_self,
            "verify.report_s": busy["verify.report"],
        }

    def layer_shares(self) -> dict[str, dict[str, float]]:
        """Self time per layer as a share of each pass ("cold", and all warm
        passes together); "bench" is the benchmark's own code."""
        dur, self_t = self._durations()
        top: list[int] = []
        totals: dict[str, float] = defaultdict(float)
        shares: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for idx, name in enumerate(self.names):
            parent = self.parents[idx]
            top.append(idx if parent < 0 else top[parent])
            pass_name = self.names[top[idx]].split(".", 1)[1].rstrip("0123456789")
            layer = "bench" if parent < 0 else name.split(".")[0]
            if parent < 0:
                totals[pass_name] += dur[idx]
            shares[pass_name][layer] += self_t[idx]
        return {
            p: {layer: t / totals[p] for layer, t in sorted(row.items())} for p, row in shares.items()
        }

    def dump(self, path: Path, header: dict) -> None:
        """Write every span as [name, start, end, parent], times relative to
        the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [n, round(s - t0, 7), round(e - t0, 7), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(dict(header, spans=spans), fh, separators=(",", ":"))
