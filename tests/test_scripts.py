"""Smoke runs of the experiment script on tiny corpora (it exits 0 and
prints the same report twice, its closing timing line aside; several
seeds give each one-seed column's median and range; a bad file or value
exits with its message) and of README's library example."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import vistrack

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(vistrack.__file__).resolve().parents[1]


def _sweep(tmp_path, *args):
    """Run the sweep script on ``args`` with ``tmp_path`` as its working
    directory."""
    argv = [sys.executable, str(ROOT / "scripts" / "sweep_association.py"), *args]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


def test_script_runs_and_repeats(tmp_path):
    (tmp_path / "corpus.json").write_text(json.dumps({"synth": {"n_videos": 2, "frames_per_video": 5}}))
    reports = []
    for _ in range(2):
        run = _sweep(tmp_path, "--corpus", "corpus.json")
        assert run.returncode == 0, run.stderr
        *report, timing = run.stdout.splitlines()
        assert timing.startswith("wall time")
        reports.append(report)
    assert reports[0][0] == "corpus: 2 videos x 5 frames x 4 objects, seed 0"
    assert reports[0][2].split() == [
        "config", "similarity", "threshold", "mAP", "AP50", "AP75", "AR@1", "AR@10", "switches", "switch-free"
    ]
    assert reports[0][3].split()[:3] == ["defaults", "bisoftmax", "0.50"]
    assert len(reports[0]) == 4
    assert reports[0] == reports[1]


def test_sweep_rows_come_from_config_files_and_seeds(tmp_path):
    """One row per config file, tracked under its association section;
    over several seeds each column is the median and [min, max] of the
    one-seed rows."""
    (tmp_path / "corpus.json").write_text(
        json.dumps({"synth": {"n_videos": 2, "frames_per_video": 8, "embedding_noise_sigma": 0.3, "clutter_rate": 1.0}})
    )
    (tmp_path / "defaults.json").write_text("{}")
    (tmp_path / "cosine.json").write_text(json.dumps({"association": {"similarity_kind": "cosine", "match_threshold": 0.7}}))
    configs = ["defaults.json", "cosine.json"]
    one_seed = {}
    for seed in (1, 2, 3):
        run = _sweep(tmp_path, *configs, "--corpus", "corpus.json", "--seed", str(seed))
        assert run.returncode == 0, run.stderr
        one_seed[seed] = [line.split() for line in run.stdout.splitlines()[3:5]]
    run = _sweep(tmp_path, *configs, "--corpus", "corpus.json", "--seed", "1", "2", "3")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "corpus: 2 videos x 8 frames x 4 objects, seed 1, 2, 3"
    for r, line in enumerate(lines[3:5]):
        rows = [one_seed[seed][r] for seed in (1, 2, 3)]
        assert line.split()[:3] == rows[0][:3] == [configs[r], ["bisoftmax", "cosine"][r], ["0.50", "0.70"][r]]
        for c in range(3, 9):  # mAP .. switches
            values = sorted(float(row[c]) for row in rows)
            median, low, high = line.split()[3 * c - 6 : 3 * c - 3]
            assert (float(median), float(low.strip("[,")), float(high.strip("]"))) == (values[1], values[0], values[2])


@pytest.mark.parametrize(
    "files, args, code, message",
    [
        ({"bad.json": {"association": {"match_threshold": 1.5}}}, ["bad.json"], 3,
         "error: bad.json: config.association: match_threshold must lie in [0, 1]"),
        ({"c.json": {"synth": {"n_videos": 0}}}, ["--corpus", "c.json"], 3,
         "error: c.json: config.synth: n_videos and frames_per_video must be positive"),
        ({}, ["--seed", "-1"], 3, "error: rng_seed must lie in [0, 2**64 - n_videos), as video v is seeded with rng_seed + v; got -1"),
        ({"bad.json": "{"}, ["bad.json"], 2, "error: bad.json: line 1 column 2: Expecting property name enclosed in double quotes"),
        ({}, ["missing.json"], 1, "error: [Errno 2] No such file or directory: 'missing.json'"),
    ],
    ids=["threshold", "videos", "seed", "malformed", "missing"],
)
def test_sweep_rejects_a_bad_file_or_value(tmp_path, files, args, code, message):
    """A malformed file exits 2 and a bad value 3, as the command line
    does, with ``error: ...`` and no traceback."""
    for name, content in files.items():
        (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))
    run = _sweep(tmp_path, *args)
    assert run.returncode == code
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
