"""Command-line orchestration: reproducible table builds, bound checks on
the config's check entries (validated and resolved by watlab.config),
exploratory probes, and report emission.

Exit codes: 0 all enabled checks pass, 2 a check failed (for ``constants``,
the Cauchy mean-value lemma), 64 invalid usage, config, grid or table read,
all refused before the symbol is sampled, 65 a hypothesis of the verified
inequalities is violated by the configured symbol (sup norm above 1,
f-hat(0) = 0, spectrum not vanishing on the half-space, or nu outside the
reflected half-space).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from pathlib import Path

from . import __version__
from .bounds import (
    BoundReport,
    HypothesisViolation,
    abel_series_check,
    cauchy_mvt_bound_check,
    check_mean_bound_ii,
    check_mean_bound_iii,
    check_mean_bound_iv,
    check_weighted_series,
    identity_check,
    log_integral_bound_check,
    nonzero_f0,
    szego_check,
    theorem_constant,
)
from .coeffs import TableError, check_table, compute_b_table
from .config import ConfigError, RunConfig, check_q, load_config
from .explorer import decay_fit, tail_series
from .iterlog import find_constants, positivity_threshold
from .presets import PRESET_NAMES, preset_config
from .symbols import SymbolError, sup_norm, unit_modulus_set

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_USAGE = 64
EXIT_HYPOTHESIS = 65

SUP_NORM_GRID_SLACK = 1e-9


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map to 64
        raise ConfigError(message)


def verify_hypotheses(cfg: RunConfig):
    """Gate a run on the standing hypotheses; raises HypothesisViolation.
    Returns the symbol's sampling on the run grid, for ``build_table``."""
    nonzero_f0(cfg.symbol)
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


def build_table(cfg: RunConfig, sampling=None):
    """The run's table; ``sampling`` is the symbol on the run grid, evaluated
    here if not given."""
    if sampling is None:
        sampling = cfg.symbol.evaluate_on_grid(cfg.grid)
    E = unit_modulus_set(sampling, cfg.e_tol)
    return compute_b_table(cfg.symbol, E, cfg.nu, (cfg.n_min, cfg.n_max), cfg.k_window)


# Check id -> its verifier, which takes (cfg, table, C, the entry as config
# resolved it) and returns the entry's reports.  It looks the check function
# up at call time, so wrappers set on this module take effect.
CHECKS = {
    "weighted_series": lambda cfg, t, C, c: [
        check_weighted_series(t, N, k, C) for N, k in itertools.product(c["N"], c["k"])],
    "mean_ii": lambda cfg, t, C, c: [
        check_mean_bound_ii(t, c["M"], p, k, C) for p, k in itertools.product(c["p"], c["k"])],
    "mean_iii": lambda cfg, t, C, c: [
        check_mean_bound_iii(t, c["q"], c["M"], p, k, C) for p, k in itertools.product(c["p"], c["k"])],
    "mean_iv": lambda cfg, t, C, c: [
        check_mean_bound_iv(t, c["q"], c["M"], p, k, C) for p, k in itertools.product(c["p"], c["k"])],
    "szego": lambda cfg, t, C, c: [szego_check(cfg.symbol, cfg.halfspace, c["grid"])],
    "identity": lambda cfg, t, C, c: identity_check(
        cfg.symbol, cfg.nu, c["n"], c["k"], c["grid"], e_tol=cfg.e_tol),
    "log_integral": lambda cfg, t, C, c: log_integral_bound_check(
        cfg.symbol, cfg.nu, c["r"], c["grid"], e_tol=cfg.e_tol),
    "abel": lambda cfg, t, C, c: [abel_series_check(
        cfg.symbol, cfg.nu, c["N"], c["k"], c["r"], c["n_trunc"], c["grid"], e_tol=cfg.e_tol)],
}


def run_checks(cfg: RunConfig, table) -> list[BoundReport]:
    C = theorem_constant(cfg.symbol.coefficient_at_zero())
    reports: list[BoundReport] = []
    for check in cfg.checks:
        reports.extend(CHECKS[check["id"]](cfg, table, C, check))
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
    cfg = None
    if args.config:
        cfg = load_config(args.config)
        doc = cfg.raw
    elif args.preset:
        if args.preset not in PRESET_NAMES:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: {', '.join(PRESET_NAMES)}"
            )
        doc = preset_config(args.preset)
    else:
        raise ConfigError("one of --config or --preset is required")
    # a subcommand has only the flags it reads
    for flag, field in (
        ("n_max", "n_max"), ("n_min", "n_min"), ("k_window", "k_window"),
        ("grid", "grid"), ("tol_e", "e_tol"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            if flag == "grid":  # decimal fields become ints; the config refuses the rest
                value = [int(v) if v.isdecimal() else v for v in value.split(",")]
            doc[field] = value
            cfg = None  # the overlaid document is parsed again
    cfg = cfg or RunConfig.from_dict(doc)
    if getattr(args, "checks", None):  # the run keeps the named checks; raw keeps them all
        only, ids = args.checks.split(","), [c["id"] for c in cfg.checks]
        idle = [cid for cid in only if cid not in ids]
        if idle:
            raise ConfigError(f"--checks names {idle}, which the config does not run: {ids}")
        cfg = dataclasses.replace(cfg, checks=[c for c in cfg.checks if c["id"] in only])
    # the run's reads of its table, as (who, diagonals, first row, last row)
    reads = [("--k", [args.k], cfg.n_min, cfg.n_max)] if args.subcommand == "explore" else []
    for c in cfg.checks if args.subcommand == "check" else []:
        if "grid" not in c:  # a check without a grid of its own reads the table
            lo, hi = (c["M"], c["M"] + max(c["p"])) if "M" in c else (cfg.n_min, cfg.n_max)
            reads.append((f"check {c['id']!r}", c["k"], lo, hi))
    w = cfg.k_window
    for who, ks, lo, hi in reads:
        outside = [f"diagonal k={k}, outside the k window -{w}..{w}" for k in ks if abs(k) > w]
        outside += [f"row n={n}, outside the n range {cfg.n_min}..{cfg.n_max}"
                    for n in (lo, hi) if not cfg.n_min <= n <= cfg.n_max]
        if outside:
            raise ConfigError(f"{who} reads {outside[0]}")
    return cfg


def build_parser() -> _Parser:
    parser = _Parser(prog="watlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand")
    for name in ("table", "check", "explore", "szego"):
        sub = subs.add_parser(name)
        sub.add_argument("--config", help="path to a JSON run config")
        sub.add_argument("--preset", help=f"built-in preset ({', '.join(PRESET_NAMES)})")
        sub.add_argument("--grid", default=None, help="comma-separated per-axis resolution")
        if name == "szego":
            continue
        sub.add_argument("--out", default="watlab-out", help="output directory")
        sub.add_argument("--n-max", type=int, default=None)
        sub.add_argument("--n-min", type=int, default=None)
        sub.add_argument("--k-window", type=int, default=None)
        sub.add_argument("--tol-e", type=float, default=None, help="unit-modulus tolerance")
        if name == "check":
            sub.add_argument("--checks", default=None, help="comma-separated check ids to run")
        if name == "explore":
            sub.add_argument("--k", type=int, default=0, help="diagonal to probe, in the k window")
    consts = subs.add_parser("constants")
    consts.add_argument("q", type=int)
    return parser


def _cmd_constants(args) -> int:
    check_q(args.q)
    params = find_constants(args.q)
    lemma = cauchy_mvt_bound_check(args.q)
    if not lemma.passed:
        x = lemma.details["worst_x"]
        print(f"error: q={params.q}: Cauchy mean-value lemma fails at x={x!r} "
              f"(lhs {lemma.lhs!r}, rhs {lemma.rhs!r})", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(
        f"q={params.q}: alpha={params.alpha!r} gamma={params.gamma!r} "
        f"(log_{params.q + 1} positive above {positivity_threshold(params.q + 1)!r})"
    )
    return EXIT_OK


def _cmd_szego(args) -> int:
    cfg = _load_run_config(args)
    cfg.symbol.sampling_grid(cfg.grid)  # a grid too coarse for f exits 64, as for table
    verify_hypotheses(cfg)
    report = szego_check(cfg.symbol, cfg.halfspace, cfg.grid)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _build(args):
    """Load the run config and judge its table (check_table) before anything
    is sampled, then gate the config and build the table; returns (cfg, out,
    table), ``out`` not yet created, so that a run that fails leaves none."""
    cfg = _load_run_config(args)
    check_table(cfg.symbol, cfg.nu, (cfg.n_min, cfg.n_max), cfg.k_window, cfg.grid)
    sampling = verify_hypotheses(cfg)
    return cfg, Path(args.out), build_table(cfg, sampling)


def _cmd_table(args) -> int:
    cfg, out, table = _build(args)
    out.mkdir(parents=True, exist_ok=True)
    table.write_csv(out / "table.csv", meta={"config_sha256": cfg.sha256()})
    write_manifest(cfg, out, "table", ["table.csv"])
    print(f"table written to {out / 'table.csv'}")
    return EXIT_OK


def _cmd_check(args) -> int:
    cfg, out, table = _build(args)
    reports = run_checks(cfg, table)
    # after the checks, so that a check that raises leaves no --out
    out.mkdir(parents=True, exist_ok=True)
    table.write_csv(out / "table.csv", meta={"config_sha256": cfg.sha256()})
    write_reports(reports, out / "reports.jsonl")
    write_manifest(cfg, out, "check", ["table.csv", "reports.jsonl"])
    failed = [r for r in reports if not r.passed]
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.check_id} {json.dumps(rep.params, sort_keys=True)}")
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _write_dat(path: Path, xs, ys) -> None:
    with open(path, "w") as fh:
        for x, y in zip(xs, ys):
            fh.write(f"{x} {float(y)!r}\n")


def _cmd_explore(args) -> int:
    cfg, out, table = _build(args)
    (out / "plots").mkdir(parents=True, exist_ok=True)
    table.write_csv(out / "table.csv", meta={"config_sha256": cfg.sha256()})
    summary = {"k": args.k}
    outputs = ["table.csv", "summary.json"]
    for weight, q, fname in (
        ("1/n", None, "tail_inv_n"), ("Lq/n", 1, "tail_l1_over_n"), ("Lq/n", 2, "tail_l2_over_n"),
    ):
        probe = tail_series(table, args.k, weight=weight, q=q)
        _write_dat(out / f"plots/{fname}.dat", probe.n_values, probe.partial_sums)
        outputs.append(f"plots/{fname}.dat")
        summary[fname] = probe.to_summary()
    try:
        fit = decay_fit(table, args.k, M=max(1, cfg.n_min))
        summary["decay_fit"] = fit
        _write_dat(out / "plots/mean_decay.dat", fit["p_values"], fit["means"])
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
