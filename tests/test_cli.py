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
from watlab.bounds import ABEL_BASE_TOL, BoundReport
from watlab.coeffs import compute_b_table
from watlab.config import CHECK_PARAMS, ConfigError, RunConfig
from watlab.presets import PRESET_NAMES, preset_config
from watlab.symbols import ResolutionError, unit_modulus_set


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


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH, for a
    fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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
    assert "tail_inv_n" in summary and "tail_l2_over_n" in summary
    assert (tmp_path / "out" / "plots" / "tail_inv_n.dat").exists()


def test_explore_off_diagonal(tmp_path, capsys):
    """--k picks the diagonal the probes read; it must lie in the k window."""
    out = tmp_path / "out"
    args = ["explore", "--preset", "blaschke-half", "--n-max", "256", "--grid", "1024"]
    assert run([*args, "--k", "2", "--out", str(out)]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"k", "tail_inv_n", "tail_l1_over_n", "tail_l2_over_n", "decay_fit"}
    assert summary["k"] == 2
    assert summary["tail_l2_over_n"]["weight"] == "L2(n)/n"
    assert summary["decay_fit"]["flag"] is None
    manifest = json.loads((out / "manifest.json").read_text())
    for stem in ("tail_inv_n", "tail_l1_over_n", "tail_l2_over_n", "mean_decay"):
        assert f"plots/{stem}.dat" in manifest["outputs"]
        # two numeric columns, readable by np.loadtxt (and gnuplot)
        data = np.loadtxt(out / "plots" / f"{stem}.dat", ndmin=2)
        assert data.shape[0] > 0 and data.shape[1] == 2
    # the probes read diagonal 2 of the table
    table = np.loadtxt(out / "table.csv", delimiter=",", comments="#", skiprows=9)
    abs2 = table[table[:, 1] == 2, 4]
    tail = summary["tail_inv_n"]
    assert tail["n_last"] == 256
    assert tail["final_partial_sum"] == pytest.approx(math.fsum(abs2 / np.arange(1, 257)), rel=1e-12)
    capsys.readouterr()
    fresh = tmp_path / "fresh"
    assert run([*args, "--k", "5", "--k-window", "4", "--out", str(fresh)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: --k reads diagonal k=5, outside the k window -4..4\n")
    assert not (fresh / "table.csv").exists()


def test_explore_decay_fit_flag(tmp_path):
    """With too few rows for the dyadic ladder, explore flags the decay fit
    in summary.json and writes and lists no mean_decay.dat."""
    out = tmp_path / "out"
    assert run(["explore", "--preset", "blaschke-half", "--n-max", "8", "--out", str(out)]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["decay_fit"] == {"flag": "need at least 3 dyadic ladder points"}
    assert not (out / "plots" / "mean_decay.dat").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "plots/mean_decay.dat" not in manifest["outputs"]


def test_explore_flags_rounding_noise(tmp_path):
    """constant's k = 0 entries are exactly 0 for n >= 1 and come out of the
    table as rounding (|b|^2 ~ 1e-29): explore fits no slope to them, and
    still writes their partial sums and block means."""
    out = tmp_path / "out"
    assert run(["explore", "--preset", "constant", "--out", str(out)]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    fit = summary["decay_fit"]
    assert fit["flag"] == "zero table: slope undefined"
    assert fit["slope_vs_log_p"] is None and fit["slope_vs_log_L2"] is None
    assert 0 < max(fit["means"]) < 1e-24
    for stem in ("tail_inv_n", "tail_l1_over_n", "tail_l2_over_n"):
        assert summary[stem]["loglog_slope"] is None
        assert 0 < summary[stem]["final_partial_sum"] < 1e-24
    assert (out / "plots" / "mean_decay.dat").exists()


def test_coarse_grid_names_usable_grid(tmp_path, capsys):
    """blaschke-half at n_max 4096 needs 8202 points per axis, which is not a
    power of two; the message names the grid that works."""
    out = tmp_path / "out"
    assert run(["explore", "--preset", "blaschke-half", "--n-max", "4096", "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "16384" in err
    assert not (out / "table.csv").exists()


def test_szego_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, small_preset())
    assert run(["szego", "--config", cfg]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["check"] == "szego"
    assert doc["pass"]
    # szego builds no table, so a grid too coarse for the preset's table
    # rows but above the symbol's Nyquist bound serves it
    assert run(["szego", "--preset", "szego-equality", "--grid", "16"]) == cli.EXIT_OK


CONSTANTS_OUT = {
    1: "q=1: alpha=0.9102392266268373 gamma=3.0 (log_2 positive above 2.718281828459045)\n",
    2: "q=2: alpha=0.7143512698186916 gamma=16.0 (log_3 positive above 15.154262241479262)\n",
    3: "q=3: alpha=0.1562517105070986 gamma=3814280.0 "
       "(log_4 positive above 3814279.104760214)\n",
}


def test_constants_subcommand(capsys, monkeypatch):
    """constants prints the pair once the Cauchy lemma holds on its ladder,
    and exits 2 naming the worst point when it does not."""
    for q, want in CONSTANTS_OUT.items():
        assert run(["constants", str(q)]) == cli.EXIT_OK
        assert capsys.readouterr() == (want, "")
    seen = []

    def failing(q):
        seen.append(q)
        return BoundReport("cauchy_mvt", {}, 2.0, 1.0, 0.0, False, {"worst_x": 17.5})

    monkeypatch.setattr(cli, "cauchy_mvt_bound_check", failing)
    assert run(["constants", "2"]) == cli.EXIT_CHECK_FAILED
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: q=2: Cauchy mean-value lemma fails at x=17.5 ")
    assert seen == [2]


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_check_preset_end_to_end(tmp_path, capsys, preset):
    """Every preset runs its full check suite and passes it."""
    out = tmp_path / "out"
    assert run(["check", "--preset", preset, "--out", str(out)]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    n = len((out / "reports.jsonl").read_text().splitlines())
    assert n > 0 and lines[-1] == f"{n}/{n} checks passed"


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_report_verdicts_follow_the_pass_rule(tmp_path, preset):
    """Each report's pass is the documented rule on its own fields: a
    two-sided report passes iff |lhs - rhs| <= tolerance, any other iff
    lhs <= rhs + tolerance; abel's also needs its partial sums under their
    bound."""
    out = tmp_path / "out"
    assert run(["check", "--preset", preset, "--out", str(out)]) == cli.EXIT_OK
    for line in (out / "reports.jsonl").read_text().splitlines():
        rep = json.loads(line)
        lhs, rhs, tol, details = rep["lhs"], rep["rhs"], rep["tolerance"], rep["details"]
        rule = abs(lhs - rhs) <= tol if details.get("two_sided") else lhs <= rhs + tol
        if rep["check"] == "abel_series":
            rule = rule and details["max_partial_sum"] <= details["partial_sum_bound"] + ABEL_BASE_TOL
        assert rep["pass"] is rule, rep


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


# Check entries the config refuses before a table is built.  Grids a check
# cannot take: above the double-grid cap, or not a power of two.
BAD_GRID_ENTRIES = (
    {"id": "log_integral", "grid": 32768},
    {"id": "abel", "grid": 32768},
    {"id": "identity", "grid": 100},
)
# Unknown check ids and parameters, scalars for list-valued parameters, and a
# bad q.
REFUSED_ENTRIES = (
    {"id": "bogus"},
    {"id": "weighted_series", "N": 0},
    {"id": "mean_ii", "p": [10], "k": 0},
    {"id": "identity", "n": [1], "k": "window1"},
    {"id": "log_integral", "r": 0.5},
    {"id": "mean_iii", "q": 0},
    {"id": "mean_iv", "q": 4},
    {"id": "mean_iv", "q": 9},
    {"id": "mean_iv", "q": 1.5},
    {"id": "mean_iii", "alpha": 3},  # not a parameter of mean_iii
    {"id": "mean_ii", "P": [10]},  # a typo for p
    {"id": "mean_ii", "p": [10], "zzz": 1},
    # an empty list would run no point of the check
    {"id": "identity", "n": []},
    {"id": "log_integral", "r": []},
    {"id": "mean_ii", "p": []},
)
# Check parameters of the wrong type, in a list or on their own, with the
# parameter the message names.
MALFORMED_PARAMS = (
    ({"id": "abel", "n_trunc": "x"}, "n_trunc"),
    ({"id": "abel", "N": 0.5}, "N"),
    ({"id": "abel", "r": None}, "r"),
    ({"id": "abel", "k": True}, "k"),
    ({"id": "identity", "grid": "abc"}, "grid"),
    ({"id": "identity", "grid": [256, "x"]}, "grid"),
    ({"id": "szego", "grid": "x"}, "grid"),
    ({"id": "weighted_series", "N": ["a"]}, "N"),
    ({"id": "weighted_series", "N": [2**63]}, "N"),
    ({"id": "mean_ii", "M": 1.5}, "M"),
    ({"id": "mean_iv", "p": ["10"]}, "p"),
    ({"id": "log_integral", "r": ["0.5"]}, "r"),
    # values out of range, refused before the table as the types are
    ({"id": "log_integral", "r": [1.5]}, "r"),
    ({"id": "log_integral", "r": [2.0]}, "r"),
    ({"id": "log_integral", "r": [0]}, "r"),
    ({"id": "abel", "r": float("nan")}, "r"),
    ({"id": "abel", "r": float("inf")}, "r"),
    ({"id": "mean_ii", "p": [0]}, "p"),
    ({"id": "mean_iv", "M": 0}, "M"),
    ({"id": "abel", "n_trunc": -1}, "n_trunc"),
)


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

    for entry in BAD_GRID_ENTRIES:
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
    for i, entry in enumerate(REFUSED_ENTRIES):
        sources.append(["--config", write_config(tmp_path, small_preset(checks=[entry]), f"c{i}.json")])
    # --checks names a check the config does not run
    sources.append(["--config", write_config(tmp_path, small_preset(), "idle.json"),
                    "--checks", "abel"])
    # an E tolerance of 1 or more lets zeros of f into E, where f/|f| is undefined
    sources.append(["--config", write_config(tmp_path, small_preset(e_tol=1.0), "etol.json")])
    for source in sources:
        assert run(["check", *source, "--out", str(fresh)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not (fresh / "table.csv").exists()
    # check parameters of the wrong type, in a list or on their own
    for i, (entry, name) in enumerate(MALFORMED_PARAMS):
        cfg = write_config(tmp_path, small_preset(checks=[entry]), f"m{i}.json")
        assert run(["check", "--config", cfg, "--out", str(fresh)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: check {entry['id']!r}: malformed {name}: "), err
        assert not (fresh / "table.csv").exists()
    # a flag its subcommand does not read
    for argv in (
        ["szego", "--preset", "szego-equality", "--out", str(fresh)],
        ["table", "--preset", "blaschke-half", "--checks", "weighted_series", "--out", str(fresh)],
    ):
        assert run(argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: unrecognized arguments")
        assert not (fresh / "table.csv").exists()


def _spectrum_index(index):
    doc = small_preset(symbol=preset_config("szego-equality")["symbol"])
    doc["symbol"]["spectrum"][1]["index"] = index
    return doc


def _family(family, **params):
    return small_preset(symbol={"dimension": 1, "family": family, "params": params})


def _spectrum_re(re):
    doc = small_preset(symbol=preset_config("szego-equality")["symbol"])
    doc["symbol"]["spectrum"][1]["re"] = re
    return doc


@pytest.mark.parametrize("doc, message", [
    pytest.param(small_preset(n_max=64.9), "malformed n_max: 64.9", id="n_max-float"),
    pytest.param(small_preset(n_max="64"), "malformed n_max: '64'", id="n_max-str"),
    pytest.param(small_preset(n_min=1.0), "malformed n_min: 1.0", id="n_min-float"),
    pytest.param(small_preset(nu=[1.7]), "malformed nu: [1.7]", id="nu"),
    pytest.param(small_preset(grid=[1024.5]), "malformed grid: [1024.5]", id="grid"),
    pytest.param(small_preset(k_window=True), "malformed k_window: True", id="k_window"),
    pytest.param(small_preset(e_tol="0.05"), "malformed e_tol: '0.05'", id="e_tol"),
    pytest.param(_spectrum_index([0.5]), "malformed symbol.spectrum.index: [0.5]",
                 id="index-float"),
    pytest.param(_spectrum_index(["1"]), "malformed symbol.spectrum.index: ['1']",
                 id="index-str"),
    pytest.param(small_preset(halfspace={"axis_order": [0], "axis_sign": [-1.0]}),
                 "malformed halfspace.axis_sign: [-1.0]", id="axis_sign"),
    pytest.param(small_preset(halfspace={"axis_order": [0.0], "axis_sign": [-1]}),
                 "malformed halfspace.axis_order: [0.0]", id="axis_order"),
    pytest.param(small_preset(halfspace=1), "halfspace must be an object", id="halfspace"),
    pytest.param(small_preset(symbol=dict(preset_config("szego-equality")["symbol"], dimension=True)),
                 "symbol.dimension must be a positive integer", id="dimension"),
    # a complex number is a list of exactly two JSON numbers
    pytest.param(_spectrum_re(True), "malformed symbol.spectrum [re, im]: [True, 0.0]",
                 id="spectrum-re-bool"),
    pytest.param(_family("constant", value=[True, False]),
                 "malformed symbol.params.value: [True, False]", id="constant-bool"),
    pytest.param(_family("blaschke", zeros=[[False, False]]),
                 "malformed symbol.params.zeros: [False, False]", id="zero-bool"),
    pytest.param(_family("blaschke", zeros=[[0.5, 0, 7]]),
                 "malformed symbol.params.zeros: [0.5, 0, 7]", id="zero-three"),
])
def test_config_numbers_follow_one_rule(tmp_path, capsys, doc, message):
    """An integer field takes a JSON integer and e_tol a JSON number, as
    check parameters do: a float, a string or a bool is refused, not
    truncated (a spectrum index 0.5 would become 0 and change the symbol)."""
    cfg = write_config(tmp_path, doc)
    fresh = tmp_path / "fresh"
    assert run(["check", "--config", cfg, "--out", str(fresh)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {message}\n")
    assert not (fresh / "table.csv").exists()


# Table checks that read their table outside it, with the message they exit with.
OUTSIDE_READS = (
    (small_preset(checks=[{"id": "weighted_series", "N": [0], "k": [5]}]),
     "error: check 'weighted_series' reads diagonal k=5, outside the k window -4..4\n"),
    (small_preset(checks=[{"id": "mean_ii", "M": 30, "p": [10], "k": [0]}]),
     "error: check 'mean_ii' reads row n=40, outside the n range 1..32\n"),
)


def test_check_reading_outside_the_table_is_a_config_error(tmp_path, capsys):
    """A check that would read the table outside it exits 64, as a config
    error, before the table is built: a k outside the window, or a block
    [M, M+p] past n_max.  It leaves no --out directory."""
    for i, (doc, message) in enumerate(OUTSIDE_READS):
        out = tmp_path / f"out{i}"
        assert run(["check", "--config", write_config(tmp_path, doc), "--out", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


@pytest.mark.parametrize("doc", [
    pytest.param(_family("blaschke", zeros=[[1e-100, 0.0]]), id="f0-1e-100"),
    pytest.param(_family("blaschke", zeros=[[1e-80, 0.0]]), id="f0-1e-80"),
    pytest.param(small_preset(checks=[{"id": "log_integral", "r": [5e-324]}]), id="log_integral-r"),
    pytest.param(small_preset(checks=[{"id": "abel", "r": 1e-300}]), id="abel-r"),
])
def test_tiny_f0_or_r_gives_finite_bounds(tmp_path, doc):
    """The constant log(16 / |f-hat(0)|^4) and the bounds built on it stay
    finite for any admissible f-hat(0) and r, so no quotient overflows to
    Infinity in reports.jsonl or divides by zero."""
    out = tmp_path / "out"
    assert run(["check", "--config", write_config(tmp_path, doc), "--out", str(out)]) == cli.EXIT_OK
    lines = (out / "reports.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        rep = json.loads(line, parse_constant=_reject_constant)
        assert math.isfinite(rep["rhs"])


def test_identity_beyond_double_grid_cap(tmp_path, capsys):
    """identity sums its integrand once, so its grid may exceed the 2^14
    cells that bound the pair-grid checks."""
    checks = [{"id": "identity", "n": list(range(1, 17)), "k": list(range(-3, 4)), "grid": 32768}]
    cfg = write_config(tmp_path, small_preset(checks=checks))
    assert run(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "112/112 checks passed"


def test_module_entry_point(tmp_path):
    """``python -m watlab.cli`` exits with main's code."""
    zero_mean = small_preset(symbol={"dimension": 1, "spectrum": [{"index": [1], "re": 1.0}]})
    for args, code in (
        (["constants", "1"], cli.EXIT_OK),
        ([], cli.EXIT_USAGE),
        (["table", "--config", write_config(tmp_path, zero_mean), "--out", str(tmp_path / "o")],
         cli.EXIT_HYPOTHESIS),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "watlab.cli", *args],
            env=_src_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code, proc.stderr


def test_bad_check_grid_exits_before_table(tmp_path, capsys):
    """A check grid that is no power of two, has the wrong number of axes
    for the symbol, or is too large for log_integral or abel is refused
    before table.csv is written."""
    fresh = tmp_path / "fresh"
    for i, (entry, message) in enumerate((
        ({"id": "identity", "grid": -4}, "resolutions must be powers of two >= 2, got (-4,)"),
        ({"id": "log_integral", "grid": 100}, "resolutions must be powers of two >= 2, got (100,)"),
        ({"id": "identity", "grid": [256, 256]}, "resolution has 2 axes, symbol has 1"),
        ({"id": "szego", "grid": [4096, 4096]}, "resolution has 2 axes, symbol has 1"),
        ({"id": "log_integral", "grid": 32768},
         "double-grid check needs <= 16384 cells, got 32768"),
        ({"id": "abel", "grid": 32768},
         "double-grid check needs <= 16384 cells, got 32768"),
    )):
        cfg = write_config(tmp_path, small_preset(checks=[entry]), f"g{i}.json")
        assert run(["check", "--config", cfg, "--out", str(fresh)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: check {entry['id']!r}: {message}\n"), err
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


def test_abel_on_an_arc_runs_at_the_pair_grid_cap(tmp_path, capsys):
    """The pair-grid cap is on the grid's cells, not on those of E: abel on
    the arc config at grid 2^14, where E holds 3313 cells, runs and passes."""
    cfg = write_config(tmp_path, dict(ARC_CONFIG, checks=[{"id": "abel", "grid": 16384}]))
    assert run(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "1/1 checks passed"


def test_coarse_abel_grid_exits_usage(tmp_path, capsys):
    """abel's table shares its grid, which must resolve rows up to
    |N| + n_trunc = 101: grid 128 is refused and grid 256 named."""
    abel = {"id": "abel", "N": 1, "n_trunc": 100, "grid": 128}
    cfg = write_config(tmp_path, dict(ARC_CONFIG, checks=[abel]))
    assert run(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("smallest usable power-of-two grid: 256\n")
    assert not (tmp_path / "out" / "table.csv").exists()


# Check grids too coarse for what the check samples, with the smallest usable
# grid the message names.
COARSE_GRIDS = [
    pytest.param(dict(ARC_CONFIG, checks=[{"id": "abel", "N": 1, "n_trunc": 100, "grid": 128}]),
                 256, id="abel-rows"),
    # n 200 at the default identity grid 256: its characters need 402 points
    pytest.param(small_preset(checks=[{"id": "identity", "n": [200]}]), 512, id="identity-rows"),
    # below the spectral Nyquist bound of 0.5 + 0.5 e^{2 pi i x}
    pytest.param(small_preset(symbol=preset_config("szego-equality")["symbol"],
                              checks=[{"id": "log_integral", "grid": 2}]), 4, id="log_integral-nyquist"),
    # szego samples its grid on a d >= 2 symbol: (2, 2) is below the bound (4, 4)
    pytest.param(dict(preset_config("torus2-degenerate"), checks=[{"id": "szego", "grid": [2, 2]}]),
                 "4,4", id="szego-d2-nyquist"),
]


@pytest.mark.parametrize("doc, grid", COARSE_GRIDS)
def test_coarse_check_grid_exits_before_table(tmp_path, capsys, doc, grid):
    """A check grid too coarse for the symbol or for the check's table rows
    is refused from the config, before table.csv is written, and the
    message names the smallest usable grid."""
    out = tmp_path / "out"
    assert run(["check", "--config", write_config(tmp_path, doc), "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"smallest usable power-of-two grid: {grid}\n")
    assert f"check {doc['checks'][0]['id']!r}" in err
    assert not (out / "table.csv").exists()


@pytest.mark.parametrize("entry", [*BAD_GRID_ENTRIES, *REFUSED_ENTRIES, *(e for e, _ in MALFORMED_PARAMS)])
def test_from_dict_refuses_what_check_refuses(entry):
    """The Python API (and the benchmark's load_config path) refuses every
    check entry that ``watlab check`` refuses, as the same ConfigError."""
    with pytest.raises(ConfigError):
        RunConfig.from_dict(small_preset(checks=[entry]))


@pytest.mark.parametrize("doc, grid", COARSE_GRIDS)
def test_from_dict_refuses_coarse_check_grid(doc, grid):
    with pytest.raises(ResolutionError, match=f"smallest usable power-of-two grid: {grid}$"):
        RunConfig.from_dict(doc)


def _spectrum_term(term):
    doc = small_preset(symbol=preset_config("szego-equality")["symbol"])
    doc["symbol"]["spectrum"][1] = term
    return doc


# Configs with a key that no object of theirs takes, or a symbol given two ways,
# with the message they are refused with.
UNKNOWN_FIELDS = [
    pytest.param(small_preset(extra=1), "unknown config fields: ['extra']", id="config-key"),
    pytest.param(_spectrum_term({"index": [1], "re": 0.5, "imag": 0.3}),
                 "unknown symbol.spectrum term fields: ['imag']", id="spectrum-imag"),
    pytest.param(small_preset(symbol={"dimension": 2, "family": "blaschke", "params": {"zeros": [[0.5, 0.0]]}}),
                 "symbol.dimension: a blaschke symbol has dimension 1, got 2", id="blaschke-d2"),
    pytest.param(small_preset(symbol={**preset_config("szego-equality")["symbol"], "family": "blaschke"}),
                 "symbol takes a spectrum or a family with its params, not both", id="spectrum-and-family"),
    pytest.param(small_preset(symbol={**preset_config("blaschke-half")["symbol"], "zeros": [[0.1, 0.0]]}),
                 "unknown symbol fields: ['zeros']", id="symbol-key"),
    pytest.param(_family("blaschke", zeros=[[0.5, 0.0]], value=[0.1, 0.0]),
                 "unknown symbol.params fields: ['value']", id="params-key"),
    pytest.param(small_preset(halfspace={"axis_order": [0], "axis_signs": [1]}),
                 "unknown halfspace fields: ['axis_signs']", id="halfspace-key"),
]


@pytest.mark.parametrize("doc, message", UNKNOWN_FIELDS)
def test_config_objects_refuse_unknown_fields(doc, message):
    """The config and every object in it refuse a key they do not take, by
    one rule, rather than drop it: an "imag" typo would build the symbol
    with im = 0."""
    with pytest.raises(ConfigError) as info:
        RunConfig.from_dict(doc)
    assert str(info.value) == message


# identity builds one table over rows min(n)..max(n) and all its k: here
# 4194304 x 7 entries, above coeffs.MAX_TABLE_ENTRIES (2^24), though the grid
# resolves every character and each point alone would fit.
IDENTITY_TABLE_ENTRY = {"id": "identity", "n": [1, 4194304], "k": [-3, -2, -1, 0, 1, 2, 3],
                        "grid": 16777216}


def test_identity_table_is_judged_by_the_table_rule():
    """identity's table is judged at load by coeffs.check_table, the run
    table's rule, and refused as a ConfigError that names the check."""
    with pytest.raises(ConfigError, match=r"^check 'identity': 4194304 x 7 table entries exceed 16777216$"):
        RunConfig.from_dict(small_preset(checks=[IDENTITY_TABLE_ENTRY]))


# Runs refused as input: (argv without --out, a config written for --config
# or None, a cap of watlab.coeffs lowered to 1024 or None).
REFUSED_RUNS = [
    pytest.param(["check"], small_preset(checks=[IDENTITY_TABLE_ENTRY]), None, id="identity-table"),
    *(pytest.param(["check"], p.values[0], None, id=p.id) for p in UNKNOWN_FIELDS),
    *(pytest.param(["check"], small_preset(checks=[e]), None, id=f"{e['id']}-grid-{e['grid']}")
      for e in BAD_GRID_ENTRIES),
    *(pytest.param(["check"], p.values[0], None, id=p.id) for p in COARSE_GRIDS),
    *(pytest.param(["check"], doc, None, id=f"read-{i}") for i, (doc, _) in enumerate(OUTSIDE_READS)),
    pytest.param(["check", "--preset", "blaschke-half", "--n-min", "3"], None, None, id="n-min"),
    pytest.param(["explore", "--preset", "blaschke-half", "--k", "5"], None, None, id="explore-k"),
    pytest.param(["table", "--preset", "blaschke-half"], None, "MAX_TABLE_ENTRIES", id="entry-cap"),
]


@pytest.mark.parametrize("argv, doc, cap", REFUSED_RUNS)
def test_input_refusals_sample_nothing(tmp_path, capsys, monkeypatch, argv, doc, cap):
    """Every refusal of input (exit 64) is made before the symbol is
    sampled, so before the hypotheses are and before the table is built."""
    from watlab.symbols import TrigSymbol

    samplings = []
    evaluate = TrigSymbol.evaluate_on_grid

    def counting(self, resolution):
        sampling = evaluate(self, resolution)
        samplings.append(sampling.shape)  # a completed sampling
        return sampling

    monkeypatch.setattr(TrigSymbol, "evaluate_on_grid", counting)
    if cap:
        monkeypatch.setattr(watlab.coeffs, cap, 1024)
    source = ["--config", write_config(tmp_path, doc)] if doc else []
    out = tmp_path / "out"
    assert run([*argv, *source, "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    assert samplings == []


@pytest.mark.parametrize("grid, cells", [
    pytest.param([1000], None, id="not-pow2"),
    pytest.param([512, 512], None, id="two-axes-on-d1"),
    pytest.param([512], 256, id="above-max-cells"),
])
def test_from_dict_refuses_the_run_grid_check_refuses(tmp_path, capsys, monkeypatch, grid, cells):
    """RunConfig.from_dict refuses a run grid that ``watlab check`` refuses
    for its form (axes, powers of two, MAX_GRID_CELLS), as a ConfigError."""
    if cells:
        monkeypatch.setattr(watlab.symbols, "MAX_GRID_CELLS", cells)
    doc = small_preset(grid=grid)
    with pytest.raises(ConfigError, match="^grid: "):
        RunConfig.from_dict(doc)
    out = tmp_path / "out"
    assert run(["check", "--config", write_config(tmp_path, doc), "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: grid: ")
    assert not out.exists()


def test_szego_check_grid_below_nyquist_still_runs(tmp_path):
    """szego on a d=1 polynomial integrates through its roots and samples
    no grid, so a grid below the spectral Nyquist bound stays usable."""
    doc = small_preset(symbol=preset_config("szego-equality")["symbol"],
                       checks=[{"id": "szego", "grid": 2}])
    assert run(["check", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]) == 0


# Run in a fresh interpreter: this one has imported scipy for the references.
_IMPORT_PATH_SCRIPT = """
import sys
import watlab, watlab.cli
cfg, out = sys.argv[1:]
assert watlab.cli.main(["check", "--config", cfg, "--out", out]) == 0
assert watlab.cli.main(["constants", "1"]) == 0  # cauchy_mvt_bound_check(1)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, f"loaded by a run: {loaded}"
assert "numpy.polynomial" not in sys.modules, "loaded by a table build"
"""


def test_no_run_loads_scipy(tmp_path):
    """No run imports scipy (scipy.integrate takes about 0.6 s): mean_iii and
    the cauchy_mvt lemma integrate with accum.log_quad, and the table engine
    finds its Gauss-Legendre nodes itself and leaves numpy.polynomial
    unloaded.  The run takes every check id."""
    cfg = write_config(tmp_path, small_preset(checks=[
        *small_preset()["checks"],
        {"id": "mean_iii", "q": 1, "p": [10], "k": [0]},
        {"id": "mean_iv", "q": 2, "p": [10], "k": [0]},
        {"id": "log_integral", "r": [0.5], "grid": 64},
        {"id": "abel", "grid": 512},
    ]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PATH_SCRIPT, cfg, str(tmp_path / "out")],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_szego_refuses_coarse_grid_before_hypotheses(tmp_path, capsys, monkeypatch):
    """szego judges its grid against f's spectrum before the hypotheses, so a
    grid too coarse for f exits 64, as table does, even where f-hat(0) = 0
    would exit 65, and nothing is sampled."""
    from watlab.symbols import TrigSymbol

    samplings = []
    evaluate = TrigSymbol.evaluate_on_grid

    def counting(self, resolution):
        sampling = evaluate(self, resolution)
        samplings.append(sampling.shape)  # a completed sampling
        return sampling

    monkeypatch.setattr(TrigSymbol, "evaluate_on_grid", counting)
    cfg = write_config(tmp_path, {
        "symbol": {"dimension": 1, "spectrum": [{"index": [1], "re": 1.0}]},
        "halfspace": {"axis_order": [0], "axis_sign": [-1]}, "nu": [1], "grid": [2]})
    assert run(["szego", "--config", cfg]) == cli.EXIT_USAGE
    assert "cannot resolve the spectrum of f" in capsys.readouterr().err
    assert samplings == []
    assert run(["szego", "--config", cfg, "--grid", "4"]) == cli.EXIT_HYPOTHESIS


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


def test_grid_check_samples_its_grid_once_per_entry(tmp_path, monkeypatch):
    """identity and log_integral sample their grid and find E once for all
    the points of their entry; on torus2-degenerate the 256 x 256 grid is
    sampled by the gate, szego and identity only."""
    from watlab.symbols import TrigSymbol

    calls = Counter()
    evaluate = TrigSymbol.evaluate_on_grid

    def counting(self, resolution):
        sampling = evaluate(self, resolution)
        calls[sampling.shape] += 1
        return sampling

    monkeypatch.setattr(TrigSymbol, "evaluate_on_grid", counting)
    checks = [
        {"id": "identity", "n": list(range(1, 17)), "k": list(range(-3, 4)), "grid": 256},
        {"id": "log_integral", "r": [0.5, 0.9], "grid": 128},
    ]
    cfg = write_config(tmp_path, small_preset(grid=[4096], checks=checks))
    assert run(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert calls == {(4096,): 1, (256,): 1, (128,): 1}
    calls.clear()
    preset = ["check", "--preset", "torus2-degenerate", "--out", str(tmp_path / "torus")]
    assert run(preset) == cli.EXIT_OK
    assert calls[(256, 256)] == 3


def test_config_file_is_parsed_once(tmp_path, monkeypatch):
    """A --config file with no flag overlaid is validated once, each entry
    resolved once; an overlaid field is parsed again, and the file's own
    malformed field is still refused under the flag that overrides it."""
    from watlab import config

    calls = []
    resolve = config._resolve_check

    def counting(entry, *rest):
        calls.append(entry)
        return resolve(entry, *rest)

    monkeypatch.setattr(config, "_resolve_check", counting)
    doc = preset_config("blaschke-half")
    assert len(doc["checks"]) == 8
    cfg = write_config(tmp_path, doc)
    assert run(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert len(calls) == 8
    bad = write_config(tmp_path, dict(doc, n_max="64"), name="bad.json")
    fresh = tmp_path / "bad"
    assert run(["check", "--config", bad, "--n-max", "32", "--out", str(fresh)]) == cli.EXIT_USAGE
    assert not fresh.exists()


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
    assert set(cli.CHECKS) == set(CHECK_PARAMS) == set(BARE_CHECK_PARAMS)
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
    the registry must reach them through it, once per check entry."""
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


def test_benchmark_tracer_reads_a_traced_pass(tmp_path, monkeypatch):
    """The tracer's layer metrics read a symbols.evaluate span under every
    log_integral span and a symbols.mask span under every identity span;
    each multi-point entry is one call."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import Tracer, layer_metrics

    checks = [
        {"id": "identity", "n": [1, 2], "k": [0, 1]},
        {"id": "log_integral", "r": [0.5, 0.9]},
    ]
    cfg = write_config(tmp_path, small_preset(checks=checks))
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.traced("pass", run, ["check", "--config", cfg, "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    metrics = layer_metrics(tracer.spans)
    assert metrics["bounds.identity_calls"] == metrics["bounds.log_integral_calls"] == 1


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

    def failing_check(table, N, k, C):
        from watlab.bounds import BoundReport

        return BoundReport("weighted_series", {"N": N, "k": k}, 2.0, 1.0, 1e-9, False)

    monkeypatch.setattr(cli_mod, "check_weighted_series", failing_check)
    cfg = write_config(tmp_path, small_preset())
    code = run(
        [
            "check", "--config", cfg, "--out", str(tmp_path / "out"),
            "--checks", "weighted_series",
        ]
    )
    assert code == cli.EXIT_CHECK_FAILED


def test_from_dict_resolves_check_entries():
    """from_dict merges each entry over its defaults and expands a "k" of
    "window" and a szego grid of None; raw keeps the entries as given, so
    the hash is unchanged."""
    doc = preset_config("blaschke-half")
    cfg = RunConfig.from_dict(doc)
    window = tuple(range(-4, 5))
    assert cfg.checks == [dict(c, k=window) if c.get("k") == "window" else c for c in doc["checks"]]
    assert cfg.raw["checks"] == doc["checks"]
    assert cfg.sha256() == "349055b539f14e7e0feb4877618137347e8d19fb5ec2eb21de48758722bfc593"
    bare = RunConfig.from_dict(small_preset(k_window=1, checks=[{"id": cid} for cid in CHECK_PARAMS]))
    assert bare.checks == [
        {"id": "weighted_series", "N": [0], "k": (-1, 0, 1)},
        {"id": "mean_ii", "p": [10], "k": (-1, 0, 1), "M": 1},
        {"id": "mean_iii", "p": [10], "k": [0], "q": 1, "M": 1},
        {"id": "mean_iv", "p": [10], "k": (-1, 0, 1), "q": 1, "M": 1},
        {"id": "szego", "grid": (512,)},
        {"id": "identity", "n": [1], "k": [0], "grid": 256},
        {"id": "log_integral", "r": [0.5], "grid": 128},
        {"id": "abel", "N": 0, "k": 0, "r": 0.9, "n_trunc": 200, "grid": 1024},
    ]


@pytest.mark.parametrize("preset", [
    name for name in PRESET_NAMES if any(c["id"] == "abel" for c in preset_config(name)["checks"])])
def test_preset_abel_table_does_not_alias(preset):
    """The abel entry's table, rows N - n_trunc .. N + n_trunc on the entry's
    grid, matches the same rows on grid 16384, for the preset's entry and
    for a bare {"id": "abel"} on the preset's symbol.  B^n reaches frequency
    n * sum (1+|a|)/(1-|a|), so at grid 512 blaschke-two's row -200 is off
    by 2.4e-2 and blaschke-half's rows by 5e-12."""
    for checks in (preset_config(preset)["checks"], [{"id": "abel"}]):
        cfg = RunConfig.from_dict(dict(preset_config(preset), checks=checks))
        (abel,) = [c for c in cfg.checks if c["id"] == "abel"]
        rows, k = (abel["N"] - abel["n_trunc"], abel["N"] + abel["n_trunc"]), abel["k"]

        def column(grid):
            E = unit_modulus_set(cfg.symbol.evaluate_on_grid(grid), cfg.e_tol)
            return compute_b_table(cfg.symbol, E, cfg.nu, rows, [k]).column(k)

        assert np.abs(column(abel["grid"]) - column(16384)).max() <= 1e-13


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_presets_parse(preset):
    cfg = RunConfig.from_dict(preset_config(preset))
    assert cfg.symbol.dimension == len(cfg.nu)
