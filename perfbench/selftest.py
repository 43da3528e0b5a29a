#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about two minutes).

    python3 perfbench/selftest.py

Checks that every workload prints every metric named in BENCHMARK.json with
its unit, in both modes; that a deliberately corrupted oracle comparison is
counted as failed; and that the benchmark exits non-zero, printing no
result, where the watlab sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = HERE / "_work" / "bare"


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180,
    )


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"benchmark exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"unexpected result keys {sorted(result)}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = result_of(bench(workload, trace))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{workload} trace={trace}: metrics/units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: operations failed: {result}")
            print(f"{workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations, {result['failed']} failed")

    for trace in (0, 1):
        result = result_of(bench("long-table", trace, "--corrupt-oracle"))
        counted = result["failed"] > 0 and not result["correct"]
        if trace:
            counted = counted and result["metrics"]["fail_frac"]["value"] > 0
        if not counted:
            problems.append(f"corrupted oracle not counted as failed (trace={trace})")
        print(f"corrupted oracle, trace={trace}: {result['failed']}/{result['attempted']} failed")

    shutil.rmtree(BARE, ignore_errors=True)
    (BARE / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    for path in HERE.glob("*.py"):
        shutil.copy(path, BARE / "perfbench")
    proc = bench("preset-sweep", 0, cwd=BARE)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("benchmark did not fail without watlab sources")
    print(f"without sources: exit {proc.returncode}")
    shutil.rmtree(BARE)

    for msg in problems:
        print("FAIL", msg)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
