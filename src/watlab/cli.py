"""Command-line orchestration: reproducible table builds, bound checks,
exploratory probes, and report emission.

Exit codes: 0 all enabled checks pass, 2 a check failed, 64 invalid usage,
config or grid (too coarse for a table, or too large for a double-grid check),
65 a hypothesis of the verified inequalities is violated by the configured
symbol (sup norm above 1, f-hat(0) = 0, spectrum not vanishing on the
half-space, or nu outside the reflected half-space).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import astuple
from pathlib import Path

from . import __version__
from .bounds import (
    BoundReport,
    HypothesisViolation,
    abel_series_check,
    check_mean_bound_ii,
    check_mean_bound_iii,
    check_mean_bound_iv,
    check_weighted_series,
    identity_check,
    log_integral_bound_check,
    szego_check,
    theorem_constant,
)
from .coeffs import TableError, compute_b_table
from .config import ConfigError, RunConfig, load_config
from .explorer import decay_fit, tail_series
from .iterlog import DomainError, find_constants, positivity_threshold
from .presets import PRESET_NAMES, preset_config
from .symbols import GridSampling, SymbolError, sup_norm, unit_modulus_set

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_USAGE = 64
EXIT_HYPOTHESIS = 65

SUP_NORM_GRID_SLACK = 1e-9


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map to 64
        raise ConfigError(message)


def verify_hypotheses(cfg: RunConfig) -> GridSampling:
    """Gate a run on the standing hypotheses; raises HypothesisViolation.
    Returns the symbol's sampling on the run grid, for ``build_table``."""
    if cfg.symbol.coefficient_at_zero() == 0:
        raise HypothesisViolation("hypothesis violated: f-hat(0) = 0")
    if not cfg.symbol.vanishes_on(cfg.halfspace):
        raise HypothesisViolation(
            "hypothesis violated: spectrum does not vanish on the half-space S"
        )
    if not cfg.halfspace.reflect().contains(cfg.nu):
        raise HypothesisViolation("hypothesis violated: nu is not in -S")
    sampling = cfg.symbol.evaluate_on_grid(cfg.grid)
    norm = sup_norm(sampling)
    if norm > 1.0 + SUP_NORM_GRID_SLACK:
        raise HypothesisViolation(
            f"hypothesis violated: sup norm {norm} exceeds 1"
        )
    return sampling


def build_table(cfg: RunConfig, sampling: GridSampling | None = None):
    """The run's table; ``sampling`` is the symbol on the run grid, evaluated
    here if not given."""
    if sampling is None:
        sampling = cfg.symbol.evaluate_on_grid(cfg.grid)
    E = unit_modulus_set(sampling, cfg.e_tol)
    table = compute_b_table(
        cfg.symbol, E, cfg.nu, (cfg.n_min, cfg.n_max), cfg.k_window
    )
    return table


# Check id -> (its list-valued parameters with their defaults, the names of
# its single-valued parameters, the verifier of one point of the list-valued
# parameters' product).  A "k" of "window" stands for the table's k window.  A
# verifier takes (cfg, table, C, check entry, *point) and looks the check
# function up at call time, so wrappers set on this module take effect.
CHECKS = {
    "weighted_series": (
        {"N": [0], "k": "window"}, (),
        lambda cfg, t, C, c, N, k: check_weighted_series(t, N, k, C)),
    "mean_ii": (
        {"p": [10], "k": "window"}, ("M",),
        lambda cfg, t, C, c, p, k: check_mean_bound_ii(t, c.get("M", 1), p, k, C)),
    "mean_iii": (
        {"p": [10], "k": [0]}, ("q", "M"),
        lambda cfg, t, C, c, p, k: check_mean_bound_iii(
            t, *astuple(find_constants(c.get("q", 1))), c.get("M", 1), p, k, C)),
    "mean_iv": (
        {"p": [10], "k": "window"}, ("q", "M"),
        lambda cfg, t, C, c, p, k: check_mean_bound_iv(t, c.get("q", 1), c.get("M", 1), p, k, C)),
    "szego": (
        {}, ("grid",),
        lambda cfg, t, C, c: szego_check(cfg.symbol, cfg.halfspace, c.get("grid", cfg.grid))),
    "identity": (
        {"n": [1], "k": [0]}, ("grid",),
        lambda cfg, t, C, c, n, k: identity_check(
            cfg.symbol, cfg.nu, n, k, c.get("grid", 256), e_tol=cfg.e_tol)),
    "log_integral": (
        {"r": [0.5]}, ("grid",),
        lambda cfg, t, C, c, r: log_integral_bound_check(
            cfg.symbol, cfg.nu, r, c.get("grid", 128), e_tol=cfg.e_tol)),
    "abel": (
        {}, ("N", "k", "r", "n_trunc", "grid"),
        lambda cfg, t, C, c: abel_series_check(
            cfg.symbol, cfg.nu, c.get("N", 0), c.get("k", 0), c.get("r", 0.9),
            c.get("n_trunc", 200), c.get("grid", 512), e_tol=cfg.e_tol)),
}


def run_checks(cfg: RunConfig, table, only: set[str] | None = None) -> list[BoundReport]:
    C = theorem_constant(cfg.symbol.coefficient_at_zero())
    reports: list[BoundReport] = []
    for check in cfg.checks:
        if only is not None and check["id"] not in only:
            continue
        lists, _, verify = CHECKS[check["id"]]
        axes = {name: check.get(name, default) for name, default in lists.items()}
        if axes.get("k") == "window":
            axes["k"] = table.k_values
        for point in itertools.product(*axes.values()):
            reports.append(verify(cfg, table, C, check, *point))
    reports.sort(key=lambda r: (r.check_id, json.dumps(r.params, sort_keys=True)))
    return reports


def write_reports(reports: list[BoundReport], path: Path) -> None:
    with open(path, "w") as fh:
        for rep in reports:
            fh.write(json.dumps(rep.to_dict(), sort_keys=True) + "\n")


def write_manifest(cfg: RunConfig, out: Path, subcommand: str, outputs: list[str]) -> None:
    manifest = {
        "config_sha256": cfg.sha256(),
        "config": cfg.raw,
        "tool_version": __version__,
        "subcommand": subcommand,
        "outputs": sorted(outputs),
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_run_config(args) -> RunConfig:
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        doc = load_config(args.config).raw
    elif args.preset:
        if args.preset not in PRESET_NAMES:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: {', '.join(PRESET_NAMES)}"
            )
        doc = preset_config(args.preset)
    else:
        raise ConfigError("one of --config or --preset is required")
    if args.n_max is not None:
        doc["n_max"] = args.n_max
    if args.n_min is not None:
        doc["n_min"] = args.n_min
    if args.k_window is not None:
        doc["k_window"] = args.k_window
    if args.grid is not None:
        doc["grid"] = args.grid.split(",")
    if args.tol_e is not None:
        doc["e_tol"] = args.tol_e
    cfg = RunConfig.from_dict(doc)
    asked = [c["id"] for c in cfg.checks] + (args.checks.split(",") if args.checks else [])
    # a tuple, not the dict: a malformed id may be unhashable
    unknown = [cid for cid in asked if cid not in tuple(CHECKS)]
    if unknown:
        raise ConfigError(f"unknown check ids {unknown}; available: {', '.join(CHECKS)}")
    for check in cfg.checks:
        lists, singles, _ = CHECKS[check["id"]]
        extra = sorted(set(check) - {"id", *lists, *singles})
        if extra:
            raise ConfigError(
                f"check {check['id']!r}: unknown parameters {extra}; "
                f"it takes {', '.join([*lists, *singles])}"
            )
        for name in lists:
            value = check.get(name, [])
            if not (isinstance(value, list) or (name == "k" and value == "window")):
                raise ConfigError(f"check {check['id']!r}: {name} must be a list, got {value!r}")
        if check["id"] in ("mean_iii", "mean_iv"):
            _check_q(check.get("q", 1))
    return cfg


def _check_q(q) -> None:
    """Refuse a q that has no iterated-log constants: not an integer, below
    1, or with log_{q+1} positive only beyond the float range."""
    if not isinstance(q, int) or q < 1:
        raise ConfigError(f"q must be an integer >= 1, got {q!r}")
    try:
        positivity_threshold(q + 1)
    except DomainError as exc:
        raise ConfigError(f"q={q}: {exc}") from exc


def _add_common(sub) -> None:
    sub.add_argument("--config", help="path to a JSON run config")
    sub.add_argument("--preset", help=f"built-in preset ({', '.join(PRESET_NAMES)})")
    sub.add_argument("--out", default="watlab-out", help="output directory")
    sub.add_argument("--n-max", type=int, default=None)
    sub.add_argument("--n-min", type=int, default=None)
    sub.add_argument("--k-window", type=int, default=None)
    sub.add_argument("--grid", default=None, help="comma-separated per-axis resolution")
    sub.add_argument("--tol-e", type=float, default=None, help="unit-modulus tolerance")
    sub.add_argument("--checks", default=None, help="comma-separated check ids to run")


def build_parser() -> _Parser:
    parser = _Parser(prog="watlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand")
    for name in ("table", "check", "explore", "szego"):
        sub = subs.add_parser(name)
        _add_common(sub)
    consts = subs.add_parser("constants")
    consts.add_argument("q", type=int)
    return parser


def _cmd_constants(args) -> int:
    _check_q(args.q)
    params = find_constants(args.q)
    print(
        f"q={params.q}: alpha={params.alpha!r} gamma={params.gamma!r} "
        f"(log_{params.q + 1} positive above {positivity_threshold(params.q + 1)!r})"
    )
    return EXIT_OK


def _cmd_szego(args) -> int:
    cfg = _load_run_config(args)
    verify_hypotheses(cfg)
    report = szego_check(cfg.symbol, cfg.halfspace, cfg.grid)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _build(args, subdir: str = ""):
    """Load and gate the run config, create ``--out`` (and ``subdir`` in it),
    build the table and write table.csv; returns (cfg, out, table)."""
    cfg = _load_run_config(args)
    sampling = verify_hypotheses(cfg)
    out = Path(args.out)
    (out / subdir).mkdir(parents=True, exist_ok=True)
    table = build_table(cfg, sampling)
    table.write_csv(out / "table.csv", meta={"config_sha256": cfg.sha256()})
    return cfg, out, table


def _cmd_table(args) -> int:
    cfg, out, _ = _build(args)
    write_manifest(cfg, out, "table", ["table.csv"])
    print(f"table written to {out / 'table.csv'}")
    return EXIT_OK


def _cmd_check(args) -> int:
    cfg, out, table = _build(args)
    only = set(args.checks.split(",")) if args.checks else None
    reports = run_checks(cfg, table, only=only)
    write_reports(reports, out / "reports.jsonl")
    write_manifest(cfg, out, "check", ["table.csv", "reports.jsonl"])
    failed = [r for r in reports if not r.passed]
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.check_id} {json.dumps(rep.params, sort_keys=True)}")
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_explore(args) -> int:
    cfg, out, table = _build(args, "plots")
    plots = out / "plots"
    summary = {}
    outputs = ["table.csv", "summary.json"]
    for weight, q, fname in (("1/n", None, "tail_inv_n"), ("Lq/n", 1, "tail_l1_over_n")):
        probe = tail_series(table, 0, weight=weight, q=q)
        path = plots / f"{fname}.dat"
        with open(path, "w") as fh:
            for n, s in zip(probe.n_values, probe.partial_sums):
                fh.write(f"{n} {s!r}\n")
        outputs.append(f"plots/{fname}.dat")
        summary[fname] = probe.to_summary()
    try:
        fit = decay_fit(table, 0, M=max(1, cfg.n_min))
        summary["decay_fit"] = fit
        with open(plots / "mean_decay.dat", "w") as fh:
            for p, m in zip(fit["p_values"], fit["means"]):
                fh.write(f"{p} {m!r}\n")
        outputs.append("plots/mean_decay.dat")
    except ValueError as exc:
        summary["decay_fit"] = {"flag": str(exc)}
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    write_manifest(cfg, out, "explore", outputs)
    print(f"probe data written to {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            parser.print_usage()
            return EXIT_USAGE
        handler = {
            "constants": _cmd_constants,
            "szego": _cmd_szego,
            "table": _cmd_table,
            "check": _cmd_check,
            "explore": _cmd_explore,
        }[args.subcommand]
        return handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (SymbolError, TableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
