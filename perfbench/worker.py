"""One workload in one process: timed passes, then output checks.

Started by ``run.py`` with the BLAS/OpenMP thread variables pinned to 1 and
``src`` on ``PYTHONPATH``.  Prints one JSON object as its last line.
``--setup-only`` prints ``ready`` after the imports and config parsing and
stops, for the set-up probes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads


def run_pass(jobs, work: Path, tracer: tracing.Tracer | None) -> tuple[float, list]:
    """One pass over the workload's jobs; returns its wall time and each
    job's exit code and probe results."""

    def body():
        results = []
        for job in jobs:
            try:
                results.append(workloads.run_job(job, work))
            except Exception:  # a crash is a failed operation, not a crashed benchmark
                traceback.print_exc(file=sys.stderr)
                results.append((-1, None))
        return results

    if tracer is None:
        t0 = time.perf_counter()
        results = body()
        return time.perf_counter() - t0, results
    tracer.install()
    try:
        results = tracer.traced("pass", body)
    finally:
        tracer.uninstall()
    root = tracer.spans[0]
    return root[2] - root[1], results


def check_outputs(jobs, outcomes, work: Path, corrupt: bool) -> tuple[dict[str, list[str]], float]:
    problems, err_max = {}, 0.0
    for job, out in zip(jobs, outcomes):
        try:
            problems[job.label], err = workloads.check_table(job, work, out.probes, corrupt)
        except (OSError, KeyError, ValueError) as exc:
            problems[job.label], err = [f"{job.label}: unreadable table: {exc!r}"], 0.0
        err_max = max(err_max, err)
    return problems, err_max


def count_operations(jobs, passes, problems) -> tuple[int, int]:
    """Operations are job runs and check reports.  A job run fails on a
    non-zero exit, on outputs that differ from the last pass's, or when the
    last pass's outputs fail a check; a report fails when it does not pass."""
    final = passes[-1]["outcomes"]
    attempted = failed = 0
    for p in passes:
        for job, out, ref in zip(jobs, p["outcomes"], final):
            attempted += 1 + len(out.reports)
            failed += out.rc != 0 or out.digest != ref.digest or bool(problems[job.label])
            failed += out.reports.count(False)
    return attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt-oracle", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    jobs = workloads.make_jobs(args.workload, args.seed, args.tiny)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    work = args.work
    work.mkdir(parents=True, exist_ok=True)
    workloads.write_configs(jobs, work)

    # Pass 0 warms up (lazy imports, first-call paths) and is checked but
    # not timed; with --trace 1 the timed passes alternate untraced, traced.
    passes, traces = [], []
    start = time.perf_counter()
    while True:
        traced = args.trace and len(passes) > 0 and len(passes) % 2 == 0
        tracer = tracing.Tracer() if traced else None
        wall, results = run_pass(jobs, work, tracer)
        outcomes = [workloads.collect(job, work, *res) for job, res in zip(jobs, results)]
        passes.append({"wall": wall, "outcomes": outcomes, "traced": tracer is not None})
        if tracer is not None:
            traces.append(tracer.spans)
        if len(passes) >= 3 and time.perf_counter() - start >= args.seconds:
            break

    # Read before the checks, so that their allocations do not count.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems, err_max = check_outputs(jobs, passes[-1]["outcomes"], work, args.corrupt_oracle)
    attempted, failed = count_operations(jobs, passes, problems)
    plain = [p["wall"] for p in passes[1:] if not p["traced"]]
    wall_s = statistics.median(plain)
    if args.trace:
        metrics = tracing.median_metrics([tracing.layer_metrics(s) for s in traces])
        traced = statistics.median(p["wall"] for p in passes if p["traced"])
        metrics["trace.overhead_frac"] = traced / wall_s - 1.0
        metrics["coeffs.oracle_err_max"] = err_max
        metrics["fail_frac"] = failed / attempted
        with open(work / "trace.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "passes": traces}, fh)
    else:
        reports = sum(len(o.reports) for o in passes[-1]["outcomes"])
        metrics = {
            "wall_s": wall_s,
            "entries_per_s": sum(job.entries for job in jobs) / wall_s,
            "reports_per_s": reports / wall_s,
            "peak_rss_mb": peak_rss_mb,
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": [msg for msgs in problems.values() for msg in msgs],
        "pass_walls": [p["wall"] for p in passes],
        "env": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
