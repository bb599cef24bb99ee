"""The padichyper benchmark.

Run from the root of a checkout (numpy is the only dependency)::

    python3 perfbench/run.py --workload sweep-mc --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Each measurement is a fresh child process (child.py) that imports the
library from ``src/``, times one cold pass of the workload and then warm
passes, and checks every output.  Children run one at a time until
``--seconds`` is used up (at least three), and each end-to-end metric is the
median over them.  With ``--trace 1`` the run instead starts three untraced
and two traced children and reports the per-layer metrics; every count must
repeat exactly between the two traced children.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines above it
are a readable summary.  The exit code is 0 whenever the workload ran, even
if its outputs were wrong (then ``correct`` is false); it is non-zero, with
no JSON line, when the library cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}
MIN_PROCS = 3
MAX_PROCS = 40
TRACE_UNTRACED = 3
TRACE_TRACED = 2
CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    pass


def run_child(name: str, seed: int, size: str, trace_idx: int | None = None, expect_digest: str | None = None) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", name,
        "--seed", str(seed),
        "--size", size,
    ]
    if trace_idx is not None:
        cmd += ["--trace", "--spans-out", str(HERE / "out" / f"{name}-seed{seed}-{size}-trace{trace_idx}.json")]
    if expect_digest:
        cmd += ["--expect-digest", expect_digest]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    cmd += ["--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{name}: child process exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{name}: child process exited with {proc.returncode}\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def measure(name: str, seed: int, seconds: float, size: str, expect_digest: str | None) -> list[dict]:
    """Cold children, one at a time, until the time budget is spent."""
    results: list[dict] = []
    start = time.monotonic()
    while len(results) < MAX_PROCS:
        results.append(run_child(name, seed, size, expect_digest=expect_digest))
        elapsed = time.monotonic() - start
        if len(results) >= MIN_PROCS and elapsed * (len(results) + 1) / len(results) > seconds:
            break
    return results


def end_to_end(results: list[dict]) -> dict[str, float]:
    return {m: statistics.median(r[m] for r in results) for m in END_TO_END_UNITS}


def traced(name: str, seed: int, size: str, expect_digest: str | None):
    """Untraced and traced children; per-layer metrics and count mismatches."""
    plain = [run_child(name, seed, size, expect_digest=expect_digest) for _ in range(TRACE_UNTRACED)]
    runs = [run_child(name, seed, size, trace_idx=i, expect_digest=expect_digest) for i in range(TRACE_TRACED)]
    layers = {}
    mismatches = []
    for metric, unit in tracing.PER_LAYER_UNITS.items():
        if metric == "trace.overhead_s":
            continue
        values = [r["layers"][metric] for r in runs]
        if unit == "count":
            if len(set(values)) != 1:
                mismatches.append(f"{metric} differs between traced runs: {values}")
            layers[metric] = values[0]
        else:
            layers[metric] = statistics.median(values)
    layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in runs) - statistics.median(
        r["wall_s"] for r in plain
    )
    return plain + runs, layers, mismatches, runs[0]["shares"]


def summarize(name: str, seed: int, results: list[dict], extra_errors: list[str]) -> tuple[bool, int, int]:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]] + extra_errors
    correct = failed == 0 and not extra_errors
    print(f"# {name} seed={seed}: {len(results)} cold processes, {failed} failed of {attempted} attempted")
    for e in errors[:10]:
        print(f"#   error: {e}")
    return correct, attempted, failed


def print_table(rows: dict[str, float], units: dict[str, str]) -> None:
    for metric, value in rows.items():
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"#   {metric:<32} {shown} {units[metric]}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str, expect_digest: str | None):
    if trace:
        results, layers, mismatches, shares = traced(name, seed, size, expect_digest)
        correct, attempted, failed = summarize(name, seed, results, mismatches)
        print("# per-layer metrics, over the cold and warm passes of a traced process (times: median of two):")
        print_table(layers, tracing.PER_LAYER_UNITS)
        print("# self-time share by layer (bench = the benchmark's own code):")
        for pass_name, row in shares.items():
            print(f"#   {pass_name:<5} " + "  ".join(f"{k}={v:.3f}" for k, v in row.items()))
        print("# no wait-time metric: the program is single-threaded and does no I/O")
        return correct, attempted, failed, {m: (v, tracing.PER_LAYER_UNITS[m]) for m, v in layers.items()}
    results = measure(name, seed, seconds, size, expect_digest)
    correct, attempted, failed = summarize(name, seed, results, [])
    metrics = end_to_end(results)
    print_table(dict(metrics, fail_ratio=failed / attempted), dict(END_TO_END_UNITS, fail_ratio="ratio"))
    return correct, attempted, failed, {m: (v, END_TO_END_UNITS[m]) for m, v in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full", choices=("full", "tiny"), help="tiny is for the self-test")
    ap.add_argument("--expect-digest", help="override the stored report digest (self-test)")
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "padichyper" / "__init__.py").is_file():
        print(f"error: no padichyper sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, att, fail, rows = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size, args.expect_digest)
            correct, attempted, failed = correct and ok, attempted + att, failed + fail
            if args.workload == "all":
                rows = dict(rows, fail_ratio=(fail / att, "ratio"))
                rows = {f"{name}.{m}": v for m, v in rows.items()}
            metrics.update(rows)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
