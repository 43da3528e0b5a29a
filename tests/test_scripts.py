"""Smoke tests: the scripts under scripts/ run end to end."""

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
