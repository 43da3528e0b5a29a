"""The four benchmark workloads and the checks on their outputs.

Shapes are fixed per workload; the seed picks only the symbol parameters and
the oracle sample cells.  Every workload drives watlab's public functions
from outside: the CLI entry point ``watlab.cli.main`` or, for ``long-table``,
the same load -> gate -> build -> write -> check sequence followed by the
explore probes, so one table build feeds both.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from watlab import cli, config, explorer
from watlab.coeffs import brute_force_b, k_values_for_window
from watlab.iterlog import big_l, positivity_threshold
from watlab.presets import PRESET_NAMES, preset_config

ORACLE_TOL = 1e-9  # acceptance criterion 7
ENTRY_SLACK = 1e-12  # |b| <= |E| up to the rounding the table itself allows
PROBE_RTOL = 1e-12  # explore probes against sums recomputed from table.csv
ORACLE_CELLS = 8
ORACLE_CORRUPTION = 1e-6

_HALFSPACE = {"axis_order": [0], "axis_sign": [-1]}


def _blaschke_zero(rng: random.Random) -> list[float]:
    r = rng.uniform(0.3, 0.6)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return [r * math.cos(phi), r * math.sin(phi)]


def _blaschke_doc(zeros, grid, n_min, n_max, k_window, checks) -> dict:
    return {
        "schema": 1,
        "symbol": {"dimension": 1, "family": "blaschke", "params": {"zeros": zeros}},
        "halfspace": dict(_HALFSPACE),
        "nu": [1],
        "grid": [grid],
        "n_min": n_min,
        "n_max": n_max,
        "k_window": k_window,
        "e_tol": 1e-9,
        "checks": checks,
    }


@dataclass
class Job:
    """One operation of a pass: a CLI invocation, or the composed
    long-table pipeline.  ``cfg`` and ``cells`` drive the oracle check."""

    label: str
    doc: dict
    command: str | None  # CLI subcommand; None runs the long-table pipeline
    preset: bool = False  # pass --preset <label> instead of a config file
    cfg: config.RunConfig = field(init=False)
    cells: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.cfg = config.RunConfig.from_dict(self.doc)

    @property
    def entries(self) -> int:
        return (self.cfg.n_max - self.cfg.n_min + 1) * len(
            k_values_for_window(self.cfg.k_window)
        )


@dataclass
class Outcome:
    """What a job left behind in one pass; filled outside the timed region.
    ``probes`` holds the long-table explore probe results, else None."""

    rc: int
    digest: str
    reports: list[bool]
    probes: dict | None = None


def long_table_jobs(rng: random.Random, tiny: bool) -> list[Job]:
    grid, n_max, p = (2**10, 64, [10, 50]) if tiny else (2**16, 2000, [10, 100, 1000])
    checks = [
        {"id": "weighted_series", "N": [0, 10], "k": "window"},
        {"id": "mean_ii", "M": 1, "p": p, "k": "window"},
        {"id": "mean_iv", "q": 1, "M": 1, "p": p, "k": "window"},
    ]
    doc = _blaschke_doc([_blaschke_zero(rng)], grid, 1, n_max, 4, checks)
    return [Job("long-table", doc, None)]


def wide_window_jobs(rng: random.Random, tiny: bool) -> list[Job]:
    grid, n, kw = (2**10, 16, 4) if tiny else (2**14, 256, 32)
    # One cheap table-side check, so every workload reports checks.
    checks = [{"id": "weighted_series", "N": [0], "k": "window"}]
    zeros = [_blaschke_zero(rng), _blaschke_zero(rng)]
    doc = _blaschke_doc(zeros, grid, -n, n, kw, checks)
    return [Job("wide-window", doc, "check")]


def preset_sweep_jobs(rng: random.Random, tiny: bool) -> list[Job]:
    return [
        Job(name, preset_config(name), "check", preset=True) for name in PRESET_NAMES
    ]


def verify_heavy_jobs(rng: random.Random, tiny: bool) -> list[Job]:
    # abel needs grid 512 to meet its 1e-8 tolerance
    if tiny:
        g_log, g_abel, n_id, szego_grid = 128, 512, 2, 4096
    else:
        g_log, g_abel, n_id, szego_grid = 2048, 2048, 16, 2**16
    checks = [
        {"id": "log_integral", "r": [0.5, 0.9], "grid": g_log},
        {"id": "abel", "N": 0, "k": 0, "r": 0.9, "n_trunc": 200, "grid": g_abel},
        {"id": "identity", "n": list(range(1, n_id + 1)), "k": list(range(-3, 4)), "grid": 256},
        {"id": "szego", "grid": szego_grid},
    ]
    doc = _blaschke_doc([_blaschke_zero(rng)], 4096, 1, 64, 4, checks)
    return [Job("verify-heavy", doc, "check")]


WORKLOADS = {
    "long-table": long_table_jobs,
    "wide-window": wide_window_jobs,
    "preset-sweep": preset_sweep_jobs,
    "verify-heavy": verify_heavy_jobs,
}


def make_jobs(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """Build the workload's jobs and draw their oracle cells from ``seed``."""
    rng = random.Random(seed)
    jobs = WORKLOADS[workload](rng, tiny)
    for job in jobs:
        ks = k_values_for_window(job.cfg.k_window)
        job.cells = [
            (rng.randint(job.cfg.n_min, job.cfg.n_max), rng.choice(ks))
            for _ in range(ORACLE_CELLS)
        ]
    return jobs


# -- one pass -------------------------------------------------------------------


def _long_table(config_path: Path, out: Path) -> dict:
    cfg = config.load_config(str(config_path))
    cli.verify_hypotheses(cfg)
    out.mkdir(parents=True, exist_ok=True)
    table = cli.build_table(cfg)
    table.write_csv(out / "table.csv", meta={"config_sha256": cfg.sha256()})
    reports = cli.run_checks(cfg, table)
    cli.write_reports(reports, out / "reports.jsonl")
    cli.write_manifest(cfg, out, "check", ["table.csv", "reports.jsonl"])
    return {
        "tail_1/n": explorer.tail_series(table, 0, weight="1/n"),
        "tail_L1/n": explorer.tail_series(table, 0, weight="Lq/n", q=1),
        "decay_fit": explorer.decay_fit(table, 0, M=1),
    }


def run_job(job: Job, work: Path) -> tuple[int, dict | None]:
    """Run one job into ``work/<label>``; returns its exit code and, for
    long-table, the explore probe results."""
    out = work / job.label
    config_path = work / f"{job.label}.json"
    if job.command is None:
        return 0, _long_table(config_path, out)
    source = ["--preset", job.label] if job.preset else ["--config", str(config_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([job.command, *source, "--out", str(out)]), None


def write_configs(jobs: list[Job], work: Path) -> None:
    for job in jobs:
        if not job.preset:
            (work / f"{job.label}.json").write_text(json.dumps(job.doc, sort_keys=True))


def collect(job: Job, work: Path, rc: int, raw_probes: dict | None) -> Outcome:
    """Digest the job's table.csv, reports.jsonl and explore probe results,
    and read each report's verdict."""
    out = work / job.label
    h = hashlib.sha256()
    probes = None
    if raw_probes is not None:
        probes = {
            "tail_1/n": raw_probes["tail_1/n"].partial_sums.tolist(),
            "tail_L1/n": raw_probes["tail_L1/n"].partial_sums.tolist(),
            "decay_fit": raw_probes["decay_fit"],
        }
        h.update(b"probes\0" + json.dumps(probes, sort_keys=True).encode())
    reports: list[bool] = []
    for name in ("table.csv", "reports.jsonl"):
        path = out / name
        if path.exists():
            data = path.read_bytes()
            h.update(name.encode() + b"\0" + data)
            if name == "reports.jsonl":
                reports = [bool(json.loads(line)["pass"]) for line in data.splitlines()]
    return Outcome(rc=rc, digest=h.hexdigest(), reports=reports, probes=probes)


# -- output checks (outside the timed region) ----------------------------------


def _read_table(path: Path) -> tuple[dict, dict]:
    meta, values = {}, {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, val = line[1:].partition(":")
                meta[key.strip()] = val.strip()
            elif not line.startswith("n,"):
                n, k, re, im, _ = line.split(",")
                values[(int(n), int(k))] = complex(float(re), float(im))
    return meta, values


def check_table(
    job: Job, work: Path, probes: dict | None, corrupt: bool = False
) -> tuple[list[str], float]:
    """Entry bound, degenerate zeros and seeded oracle cells of one table,
    and the explore probes, if any, against sums recomputed from it.

    Returns the problems found and the largest oracle difference.
    """
    meta, values = _read_table(work / job.label / "table.csv")
    problems = []
    if len(values) != job.entries:
        problems.append(f"{job.label}: {len(values)} entries, expected {job.entries}")
    e_measure = float(meta["e_measure"])
    worst = max(abs(v) for v in values.values())
    if worst > e_measure + ENTRY_SLACK:
        problems.append(f"{job.label}: entry {worst!r} exceeds |E| = {e_measure!r}")
    if meta["degenerate"] == "True":
        if any(v != 0 for v in values.values()):
            problems.append(f"{job.label}: degenerate table has nonzero entries")
        return problems, 0.0
    err_max = 0.0
    cfg = job.cfg
    for n, k in job.cells:
        direct = brute_force_b(cfg.symbol, cfg.nu, n, k, cfg.grid, cfg.e_tol)
        if corrupt:
            direct += ORACLE_CORRUPTION
        err = abs(values[(n, k)] - direct)
        err_max = max(err_max, err)
        if err > ORACLE_TOL:
            problems.append(f"{job.label}: oracle differs by {err!r} at n={n}, k={k}")
    if probes is not None:
        problems += _check_probes(job, values, probes)
    return problems, err_max


def _check_probes(job: Job, values: dict, probes: dict) -> list[str]:
    """Final tail sums and dyadic block means of the k=0 column, recomputed
    with ``math.fsum`` from the table's values."""
    cfg = job.cfg
    abs2 = {n: abs(values[(n, 0)]) ** 2 for n in range(max(1, cfg.n_min), cfg.n_max + 1)}
    l1_first = math.floor(positivity_threshold(1)) + 1
    expected = {
        "tail_1/n": math.fsum(t / n for n, t in abs2.items()),
        "tail_L1/n": math.fsum(big_l(1, n) / n * t for n, t in abs2.items() if n >= l1_first),
    }
    problems = []
    for name, want in expected.items():
        got = probes[name][-1]
        if abs(got - want) > PROBE_RTOL * abs(want):
            problems.append(f"{job.label}: {name} tail sum {got!r}, recomputed {want!r}")
    fit = probes["decay_fit"]
    for p, got in zip(fit["p_values"], fit["means"]):
        want = math.fsum(abs2[n] for n in range(1, p + 2)) / (p + 1)
        if abs(got - want) > PROBE_RTOL * abs(want):
            problems.append(f"{job.label}: decay_fit mean at p={p} is {got!r}, recomputed {want!r}")
    return problems
