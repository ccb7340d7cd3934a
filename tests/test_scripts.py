"""Smoke runs of the experiment script on a tiny corpus (it exits 0 and
prints the same report twice, its closing timing line aside, and a bad
value exits 3 with its message) and of README's library example."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import vistrack

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(vistrack.__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["sweep_association.py"])
def test_script_runs_and_repeats(script):
    argv = [sys.executable, str(ROOT / "scripts" / script), "--videos", "2", "--frames", "5"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    reports = []
    for _ in range(2):
        run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        *report, timing = run.stdout.splitlines()
        assert timing.startswith("wall time")
        reports.append(report)
    assert any("mAP" in line and "switch-free" in line for line in reports[0])
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--thresholds", "1.5"], "error: match_threshold must lie in [0, 1]"),
        (["--videos", "0"], "error: n_videos and frames_per_video must be positive"),
    ],
)
def test_sweep_rejects_a_bad_value_with_exit_3(flags, message):
    argv = [sys.executable, str(ROOT / "scripts" / "sweep_association.py"), "--frames", "2", *flags]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 3
    assert run.stderr == message + "\n"
    assert run.stdout == ""


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", blocks[0]], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert 0.0 <= float(run.stdout) <= 1.0
