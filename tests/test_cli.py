import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import watlab
from watlab import cli
from watlab.presets import PRESET_NAMES, preset_config


def small_preset(**overrides):
    doc = preset_config("blaschke-half")
    doc["n_max"] = 32
    doc["grid"] = [512]
    doc["checks"] = [
        {"id": "weighted_series", "N": [0], "k": [0]},
        {"id": "mean_ii", "p": [10], "k": [0]},
        {"id": "szego", "grid": 4096},
        {"id": "identity", "n": [1, 2], "k": [0], "grid": 256},
    ]
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(args):
    return cli.main(args)


def test_check_small_config_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, small_preset())
    code = run(["check", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    stdout = capsys.readouterr().out
    assert "checks passed" in stdout
    assert "FAIL" not in stdout
    out = tmp_path / "out"
    assert (out / "table.csv").exists()
    assert (out / "reports.jsonl").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "check"
    assert sorted(manifest["outputs"]) == ["reports.jsonl", "table.csv"]
    assert len(manifest["config_sha256"]) == 64


def test_check_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path, small_preset())
    for name in ("a", "b"):
        assert run(["check", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    for fname in ("table.csv", "reports.jsonl", "manifest.json"):
        assert (tmp_path / "a" / fname).read_bytes() == (
            tmp_path / "b" / fname
        ).read_bytes()


def test_table_subcommand(tmp_path):
    cfg = write_config(tmp_path, small_preset())
    code = run(["table", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    text = (tmp_path / "out" / "table.csv").read_text()
    assert "n,k,re,im,abs2" in text


def test_explore_subcommand(tmp_path):
    cfg = write_config(tmp_path, small_preset(n_max=128))
    code = run(["explore", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert "tail_inv_n" in summary
    assert (tmp_path / "out" / "plots" / "tail_inv_n.dat").exists()


def test_szego_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, small_preset())
    assert run(["szego", "--config", cfg]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["check"] == "szego"
    assert doc["pass"]


def test_constants_subcommand(capsys):
    assert run(["constants", "1"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "gamma=3.0" in out


def test_preset_flag(tmp_path):
    code = run(
        [
            "check", "--preset", "constant", "--out", str(tmp_path / "out"),
            "--n-max", "32", "--checks", "weighted_series,szego",
        ]
    )
    assert code == cli.EXIT_OK
    reports = [
        json.loads(line)
        for line in (tmp_path / "out" / "reports.jsonl").read_text().splitlines()
    ]
    assert {r["check"] for r in reports} == {"weighted_series", "szego"}


def test_flag_overrides_recorded(tmp_path):
    run(
        [
            "table", "--preset", "blaschke-half", "--out", str(tmp_path / "out"),
            "--n-max", "16", "--grid", "512", "--k-window", "2", "--tol-e", "1e-8",
        ]
    )
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["n_max"] == 16
    assert manifest["config"]["grid"] == [512]
    assert manifest["config"]["k_window"] == 2
    assert manifest["config"]["e_tol"] == 1e-8


def test_usage_errors(tmp_path, capsys):
    assert run([]) == cli.EXIT_USAGE
    assert run(["check"]) == cli.EXIT_USAGE  # neither --config nor --preset
    assert run(["check", "--preset", "nope"]) == cli.EXIT_USAGE
    assert run(["frobnicate"]) == cli.EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["check", "--config", str(bad)]) == cli.EXIT_USAGE
    unknown = write_config(tmp_path, small_preset(bogus_field=1), "unknown.json")
    assert run(["check", "--config", unknown]) == cli.EXIT_USAGE
    capsys.readouterr()
    # malformed values of the run fields
    for field, value in (
        ("k_window", [0, 1]), ("n_max", "abc"), ("e_tol", "x"), ("nu", ["a"]),
        ("grid", 512), ("n_min", None),
    ):
        cfg = write_config(tmp_path, small_preset(**{field: value}), "malformed.json")
        assert run(["check", "--config", cfg]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: malformed {field}: ")
    # grids a check cannot take: above the double-grid cap, or not a power of two
    def check(*args):
        return run(["check", *args, "--out", str(tmp_path / "out")])

    for entry in (
        {"id": "abel", "grid": 4096},
        {"id": "log_integral", "grid": 4096},
        {"id": "identity", "grid": 4096},
        {"id": "identity", "grid": 100},
    ):
        cfg = write_config(tmp_path, small_preset(checks=[entry]), "grid.json")
        assert check("--config", cfg) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
    # a table grid below the resolution the n range needs
    assert check("--preset", "blaschke-half", "--grid", "64") == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert check("--preset", "blaschke-half", "--grid", "abc") == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: malformed grid: ")
    # a q with no iterated-log constants: below 1, or log_{q+1} positive only
    # beyond the float range
    for q in ("0", "-1", "4"):
        assert run(["constants", q]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
    # unknown check ids, scalars for list-valued check parameters, and a bad
    # q are refused before the table is built
    fresh = tmp_path / "fresh"
    sources = [["--preset", "blaschke-half", "--checks", "weighted_seris"]]
    for i, entry in enumerate((
        {"id": "bogus"},
        {"id": "weighted_series", "N": 0},
        {"id": "mean_ii", "p": [10], "k": 0},
        {"id": "identity", "n": [1], "k": "window1"},
        {"id": "log_integral", "r": 0.5},
        {"id": "mean_iii", "q": 0},
        {"id": "mean_iv", "q": 4},
        {"id": "mean_iv", "q": 1.5},
        {"id": "mean_iii", "alpha": 3},  # not a parameter of mean_iii
        {"id": "mean_ii", "P": [10]},  # a typo for p
    )):
        sources.append(["--config", write_config(tmp_path, small_preset(checks=[entry]), f"c{i}.json")])
    # an E tolerance of 1 or more lets zeros of f into E, where f/|f| is undefined
    sources.append(["--config", write_config(tmp_path, small_preset(e_tol=1.0), "etol.json")])
    for source in sources:
        assert run(["check", *source, "--out", str(fresh)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not (fresh / "table.csv").exists()


@pytest.mark.parametrize("owner, cap, args", [
    ("symbols", "MAX_GRID_CELLS", ["check", "--preset", "blaschke-half"]),
    ("coeffs", "MAX_TABLE_ENTRIES", ["table", "--preset", "blaschke-half"]),
])
def test_size_caps_exit_usage(tmp_path, capsys, monkeypatch, owner, cap, args):
    """A grid or a table above its cap is refused with exit 64 before it is
    allocated (blaschke-half: grid 4096, 256 rows x 9 diagonals)."""
    monkeypatch.setattr(getattr(watlab, owner), cap, 1024)
    assert run([*args, "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out" / "table.csv").exists()


# 0.5 + 0.5 e^{2 pi i x} at e_tol 0.05: its grid E is an arc, a fifth of the
# circle, on which |f| < 1 except at x = 0, so (f/|f|)^n differs from f^n.
ARC_CONFIG = {
    "schema": 1,
    "symbol": preset_config("szego-equality")["symbol"],
    "halfspace": {"axis_order": [0], "axis_sign": [-1]},
    "nu": [1],
    "grid": [1024],
    "n_min": 1,
    "n_max": 64,
    "k_window": 2,
    "e_tol": 0.05,
    "checks": [
        {"id": "identity", "n": [1, 2, 5], "k": [-1, 0, 1], "grid": 1024},
        {"id": "abel", "grid": 2048},
        {"id": "log_integral", "r": [0.5, 0.9], "grid": 2048},
    ],
}


def test_partial_e_checks_pass(tmp_path, capsys):
    """The table, identity and abel integrate the same function on a
    tolerance-widened E, so their two sides agree there."""
    cfg = write_config(tmp_path, ARC_CONFIG)
    assert run(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "12/12 checks passed"


# Run in a fresh interpreter: this one has imported scipy.integrate already.
_IMPORT_PATH_SCRIPT = """
import sys
import watlab, watlab.cli
assert "scipy.integrate" not in sys.modules, "loaded by import watlab"
cfg, out = sys.argv[1:]
args = ["check", "--config", cfg, "--out", out]
assert watlab.cli.main(args + ["--checks", "weighted_series,mean_ii"]) == 0
assert "scipy.integrate" not in sys.modules, "loaded by a run without mean_iii"
assert watlab.cli.main(args + ["--checks", "mean_iii"]) == 0
assert "scipy.integrate" in sys.modules, "mean_iii ran without quad"
"""


def test_scipy_integrate_loaded_only_by_quadrature_checks(tmp_path):
    """Only mean_iii (and the cauchy_mvt lemma) integrate numerically;
    importing watlab and running other checks leave scipy.integrate, which
    takes about 0.6 s to import, unloaded."""
    cfg = write_config(tmp_path, small_preset(checks=[
        {"id": "weighted_series", "N": [0], "k": [0]},
        {"id": "mean_ii", "p": [10], "k": [0]},
        {"id": "mean_iii", "q": 1, "p": [10], "k": [0]},
    ]))
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PATH_SCRIPT, cfg, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_symbol_evaluated_once_per_run(tmp_path, monkeypatch):
    """The sup-norm gate's sampling of the run grid feeds the table build."""
    from watlab.symbols import TrigSymbol

    calls = []
    evaluate = TrigSymbol.evaluate_on_grid

    def counting(self, resolution):
        calls.append(resolution)
        return evaluate(self, resolution)

    monkeypatch.setattr(TrigSymbol, "evaluate_on_grid", counting)
    cfg = write_config(tmp_path, small_preset(checks=[{"id": "weighted_series"}]))
    for sub in ("table", "check", "explore"):
        calls.clear()
        assert run([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == cli.EXIT_OK
        assert calls == [(512,)]
    # both steps stay callable with the config alone
    run_cfg = cli._load_run_config(cli.build_parser().parse_args(["table", "--config", cfg]))
    calls.clear()
    cli.verify_hypotheses(run_cfg)
    alone = cli.build_table(run_cfg)
    assert len(calls) == 2
    shared = cli.build_table(run_cfg, cli.verify_hypotheses(run_cfg))
    assert np.array_equal(alone.values, shared.values)


# The parameters a bare {"id": X} has always expanded to, on a table with
# k window 1 (alpha and gamma are the q = 1 constants).
ALPHA_1 = 1.0 / math.log(3.0)
BARE_CHECK_PARAMS = {
    "weighted_series": [{"N": 0, "k": k} for k in (-1, 0, 1)],
    "mean_ii": [{"M": 1, "p": 10, "k": k} for k in (-1, 0, 1)],
    "mean_iii": [{"q": 1, "alpha": ALPHA_1, "gamma": 3.0, "M": 1, "p": 10, "k": 0}],
    "mean_iv": [
        {"q": 1, "alpha": ALPHA_1, "gamma": 3.0, "M": 1, "p": 10, "k": k} for k in (-1, 0, 1)
    ],
    "szego": [{"resolution": [512]}],
    "identity": [{"n": 1, "k": 0}],
    "log_integral": [{"r": 0.5, "resolution": 128}],
    "abel": [{"N": 0, "k": 0, "r": 0.9, "n_trunc": 200}],
}


def test_bare_check_defaults(tmp_path):
    assert set(cli.CHECKS) == set(BARE_CHECK_PARAMS)
    doc = small_preset(k_window=1, checks=[{"id": cid} for cid in cli.CHECKS])
    out = tmp_path / "out"
    assert run(["check", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    got = [json.loads(line)["params"] for line in (out / "reports.jsonl").read_text().splitlines()]
    want = [params for expected in BARE_CHECK_PARAMS.values() for params in expected]

    def canonical(params_list):
        return sorted(json.dumps(p, sort_keys=True) for p in params_list)

    assert canonical(got) == canonical(want)


def test_benchmark_tracer_sees_every_check(tmp_path, monkeypatch):
    """The benchmark's tracer wraps the check functions on the cli module;
    the registry must reach them through it, once per report."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import CHECK_IDS, Tracer

    assert set(CHECK_IDS) == set(cli.CHECKS)
    doc = small_preset(k_window=0, checks=[{"id": cid} for cid in cli.CHECKS])
    cfg = write_config(tmp_path, doc)
    tracer = Tracer()
    tracer.install()
    try:
        code = run(["check", "--config", cfg, "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    spans = Counter(span[0] for span in tracer.spans)
    assert {cid: spans[f"bounds.{cid}"] for cid in cli.CHECKS} == dict.fromkeys(cli.CHECKS, 1)


def test_config_and_preset_conflict(tmp_path):
    cfg = write_config(tmp_path, small_preset())
    assert run(["check", "--config", cfg, "--preset", "constant"]) == cli.EXIT_USAGE


def test_hypothesis_exit_nu_in_halfspace(tmp_path):
    doc = small_preset()
    doc["nu"] = [-1]  # lies in S itself, not in -S
    cfg = write_config(tmp_path, doc)
    assert run(["table", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_HYPOTHESIS


def test_hypothesis_exit_zero_mean(tmp_path):
    doc = small_preset()
    doc["symbol"] = {"dimension": 1, "spectrum": [{"index": [1], "re": 1.0}]}
    cfg = write_config(tmp_path, doc)
    assert run(["table", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_HYPOTHESIS


def test_hypothesis_exit_not_vanishing(tmp_path):
    doc = small_preset()
    doc["symbol"] = {
        "dimension": 1,
        "spectrum": [{"index": [0], "re": 0.5}, {"index": [-1], "re": 0.25}],
    }
    cfg = write_config(tmp_path, doc)
    assert run(["table", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_HYPOTHESIS


def test_hypothesis_exit_sup_norm(tmp_path):
    doc = small_preset()
    doc["symbol"] = {
        "dimension": 1,
        "spectrum": [{"index": [0], "re": 0.9}, {"index": [1], "re": 0.9}],
    }
    cfg = write_config(tmp_path, doc)
    assert run(["table", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_HYPOTHESIS


def test_check_failure_exit(tmp_path, monkeypatch):
    import watlab.cli as cli_mod

    def failing_check(table, N, k, C, tol=1e-9):
        from watlab.bounds import BoundReport

        return BoundReport("weighted_series", {"N": N, "k": k}, 2.0, 1.0, tol, False)

    monkeypatch.setattr(cli_mod, "check_weighted_series", failing_check)
    cfg = write_config(tmp_path, small_preset())
    code = run(
        [
            "check", "--config", cfg, "--out", str(tmp_path / "out"),
            "--checks", "weighted_series",
        ]
    )
    assert code == cli.EXIT_CHECK_FAILED


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_presets_parse(preset):
    from watlab.config import RunConfig

    cfg = RunConfig.from_dict(preset_config(preset))
    assert cfg.symbol.dimension == len(cfg.nu)
