"""Fast self-test of the benchmark itself, on tiny workload sizes.

    python3 perfbench/selftest.py

Checks that every workload in BENCHMARK.json emits each declared end-to-end
metric (untraced) and each per-layer metric (traced) with its unit, that a
deliberately wrong expected digest is reported as a failure, and that the
benchmark refuses to run without the library's sources.  Takes about a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--size", "tiny", "--seconds", "1", "--seed", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(doc)}")
    return doc


def check_metrics(doc: dict, declared: list[dict], positive: bool) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    if got != want:
        raise AssertionError(f"metrics/units differ: missing {set(want) - set(got)}, extra {set(got) - set(want)}, "
                             f"units {[(n, got[n], want[n]) for n in set(got) & set(want) if got[n] != want[n]]}")
    for name, m in doc["metrics"].items():
        if not isinstance(m["value"], (int, float)) or (positive and not m["value"] > 0):
            raise AssertionError(f"{name} = {m['value']!r}")


def main() -> int:
    failures = []

    def check(label: str, fn) -> None:
        try:
            fn()
            print(f"ok    {label}")
        except AssertionError as exc:
            failures.append(label)
            print(f"FAIL  {label}: {exc}")

    for w in BENCH["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):

            def one(name=name, trace=trace, key=key):
                doc = result_of(run(ROOT, "--workload", name, "--trace", str(trace)))
                if not (doc["correct"] and doc["attempted"] >= 1 and doc["failed"] == 0):
                    raise AssertionError(f"not correct: {doc['attempted']} attempted, {doc['failed']} failed")
                check_metrics(doc, BENCH[key], positive=trace == 0)

            check(f"{name} trace={trace} emits every {key} metric with its unit", one)

    def wrong_digest():
        doc = result_of(run(ROOT, "--workload", "sweep-mc", "--trace", "0", "--expect-digest", "0" * 64))
        if doc["correct"] or doc["failed"] < 1:
            raise AssertionError("a wrong expected digest was not reported as a failure")

    check("a wrong expected digest is caught", wrong_digest)

    def without_sources():
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run(bare, "--workload", "sweep-mc", "--trace", "0")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError(f"exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}")

    check("without the library's sources the benchmark fails and prints no result", without_sources)

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
