#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/collect.py --seeds 10 [--workload NAME ...] [--trace]
                                 [--baseline perfbench/baseline.json]

For each workload it runs ``run.py`` once per seed 1..N, one run at a time,
for BENCHMARK.json's ``run_seconds``.  It prints the median and the
interquartile range (``statistics.quantiles``, n=4) of every end-to-end
metric as a share of its median, next to a third of the metric's bound.  ``--trace`` adds one traced run per workload.
``--baseline`` writes medians, spreads and the traced per-layer values to
a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=180,
    )
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--baseline", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        failed = attempted = 0
        t0 = time.perf_counter()
        for seed in range(1, args.seeds + 1):
            _, result = run(workload, seed, spec["run_seconds"], 0)
            ok = ok and result["correct"]
            failed += result["failed"]
            attempted += result["attempted"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.seeds} runs in {time.perf_counter() - t0:.0f} s, "
              f"failed {failed}/{attempted}")
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "iqr_frac": spread, "values": vals}
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"  {name:15s} median {med:12.5g}  iqr/median {spread:7.4f}"
                  f"  bound/3 {bounds[name] / 3:.4f}  {flag}")
        summary[workload] = {"end_to_end": rows, "fail_frac": failed / attempted}
        if args.trace:
            info, result = run(workload, 1, spec["run_seconds"], 1)
            ok = ok and result["correct"]
            summary[workload]["per_layer"] = {
                k: v["value"] for k, v in result["metrics"].items()
            }
            summary[workload]["env"] = info["env"]
    if args.baseline:
        args.baseline.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
