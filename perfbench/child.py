"""One cold process of the benchmark: set up, run a workload cold, run it
again warm, check every output, and print one JSON line.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``::

    python3 perfbench/child.py --workload sweep-mc --seed 0 --size full \
        --spawned-at <time.time() before the spawn> [--trace] [--spans-out F]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads

DIGESTS = Path(__file__).with_name("digests.json")


def expected_digest(name: str, seed: int, size: str) -> str | None:
    """The stored report digest; only the default seed has one."""
    if seed != workloads.DEFAULT_SEED:
        return None
    return json.loads(DIGESTS.read_text()).get(name, {}).get(size)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out", type=Path)
    ap.add_argument("--expect-digest", help="override the stored digest (self-test)")
    args = ap.parse_args(argv)

    import padichyper as ph

    name = args.workload
    inputs = workloads.make_inputs(ph, name, args.seed, args.size)
    setup_s = time.time() - args.spawned_at

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    def timed_pass(label: str):
        idx = tracer.open(f"pass.{label}") if tracer else None
        t0 = time.perf_counter()
        out = workloads.run_pass(ph, name, inputs)
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.close(idx)
        return out, elapsed

    cold, wall_s = timed_pass("cold")
    warm = [timed_pass(f"warm{i}") for i in range(workloads.WORKLOADS[name].warm_repeats)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    passes = [cold] + [out for out, _ in warm]
    attempted = sum(out.attempted for out in passes)
    failed = sum(out.failed for out in passes)
    errors = [e for out in passes for e in out.errors]
    # output checks beyond each record's own verdict
    want = args.expect_digest or expected_digest(name, args.seed, args.size)
    if want is not None and cold.digest != want:
        failed += 1
        errors.append(f"report digest {cold.digest} != expected {want}")
    for out, _ in warm:
        if out.digest != cold.digest:
            failed += 1
            errors.append(f"warm pass digest {out.digest} != cold pass digest {cold.digest}")

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "warm_s": statistics.median(t for _, t in warm),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "digest": cold.digest,
    }
    if tracer:
        records = attempted if workloads.WORKLOADS[name].kind == "sweep" else 0
        result["layers"] = tracer.metrics(records, sum(out.skipped for out in passes))
        result["shares"] = tracer.layer_shares()
        if args.spans_out:
            tracer.dump(args.spans_out, {"workload": name, "seed": args.seed, "size": args.size})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
