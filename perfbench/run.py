#!/usr/bin/env python3
"""watlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; imports watlab from its ``src``.  The
workload runs in a fresh single-threaded worker process, so its set-up time
and peak RSS belong to it alone.  With ``--trace 0`` the last line of stdout
carries the end-to-end metrics; with ``--trace 1`` the per-layer metrics of
a run that alternates traced and untraced passes.  Workloads and metrics are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)
SETUP_PROBES = 9
SETUP_TIMEOUT_S = 30
# Leaves room for the set-up probes and the output checks inside the
# 180-second limit on one run.
WORKER_GRACE_S = 100


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def time_setup(cmd: list[str], env: dict[str, str]) -> float:
    """Seconds from spawning a fresh process until it has imported watlab,
    numpy and scipy and parsed the workload's configs.

    The clock stops when the process prints ``ready``, not when it exits:
    interpreter teardown is not set-up, and waiting for an exit with a
    timeout polls in steps of up to 50 ms, while a blocking read wakes at
    once.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--setup-only"], env=env, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate()
    finally:
        killer.cancel()
    if line != "ready\n" or proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return elapsed


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="smoke-test shapes")
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="perturb the oracle values (self-test of the gate)")
    args = ap.parse_args(argv)

    if not (SRC / "watlab" / "__init__.py").is_file():
        print(f"error: no watlab sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    env = worker_env()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + ["--tiny"] * args.tiny
    try:
        setup = [time_setup(cmd, env) for _ in range(SETUP_PROBES)] if not args.trace else []
        proc = subprocess.run(
            cmd + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--work", str(work)] + ["--corrupt-oracle"] * args.corrupt_oracle,
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=args.seconds + WORKER_GRACE_S,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = out["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    info = {k: v for k, v in out.items() if k not in ("correct", "attempted", "failed", "metrics")}
    info["env"].update(thread_vars={v: os.environ.get(v) for v in THREAD_VARS}, pinned_to=1)
    print(json.dumps(dict(info, setup_walls=setup)))
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
