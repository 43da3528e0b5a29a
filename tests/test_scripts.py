"""Smoke tests: the scripts under scripts/ run end to end."""

import json
import os
import subprocess
import sys
from pathlib import Path

from watlab.presets import PRESET_NAMES

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_run_all_presets(tmp_path):
    out = tmp_path / "presets"
    proc = run_script("run_all_presets.py", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in PRESET_NAMES:
        assert name in proc.stdout
        assert (out / name / "reports.jsonl").stat().st_size > 0


def test_decay_curves(tmp_path):
    out = tmp_path / "decay"
    proc = run_script("decay_curves.py", "--n-max", "256", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_max"] == 256
    for stem in ("tail_inv_n", "tail_l1", "tail_l2", "mean_decay"):
        assert len((out / f"{stem}.dat").read_text().splitlines()) > 0
