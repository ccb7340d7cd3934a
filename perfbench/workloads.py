"""Workload corpora and the command sequence the benchmark times.

Shared by run.py (which times each command as a child process) and
layers.py (which runs the same commands in process for the per-layer
numbers), so both measure exactly the same calls.
"""

from __future__ import annotations

import json
from pathlib import Path

# Synth sections of the run config, one per workload. The seed comes
# from the benchmark's --seed and is passed to `synth --seed`.
WORKLOADS = {
    # Large frames and files: ~3k detections, a ~12 MB detections file and
    # a ~4.5 MB annotations file. Time goes to JSON parse, validation and
    # serialization and to RLE over long runs. The bank stays small, so
    # association is bypassed. (Half the videos of the ROADMAP "big" corpus,
    # which has the same per-video geometry, so that all runs fit the
    # benchmark's time budget.)
    "wide": {
        "n_videos": 10,
        "frames_per_video": 40,
        "objects_per_video": 6,
        "canvas": [256, 256],
        "embedding_dim": 32,
        "embedding_noise_sigma": 0.1,
        "detector_dropout": 0.1,
        "clutter_rate": 2.0,
    },
    # One 600-frame video: the memory bank grows to ~480 instances, so time
    # goes to association and to O(tracks^2) fusion/evaluation pairs of
    # short masks. (600 rather than 800 frames so that all runs fit the
    # benchmark's time budget; per-frame cost still grows with the bank.)
    "long": {"n_videos": 1, "frames_per_video": 600, "objects_per_video": 4, "clutter_rate": 2.0},
}

# `map` and `id_switches` saturate on both workloads (mAP 1.0, no
# switches), so every run also makes, tracks and evaluates this corpus:
# default frame geometry (20 frames x 4 objects, 96x96) in the hard regime,
# the only one where quality is not saturated. 40 videos rather than the
# default 10: over independent seeds the id-switch count of 10 videos
# spreads by ~29% (IQR/median), that of 40 by ~15%.
QUALITY = {"n_videos": 40, "embedding_noise_sigma": 0.3, "detector_dropout": 0.2, "clutter_rate": 1.0}

# Second tracker run whose results `fuse` merges with the default one.
# (similarity_kind cannot be set from a config file, so only the threshold.)
ALT_TRACK = {"association": {"match_threshold": 0.7}}
LOSSCHECK_SAMPLES = 100

# Commands whose wall time is an end-to-end metric, in pipeline order.
TIMED = ("synth", "track", "eval", "fuse", "pseudopair", "losscheck")


def write_configs(directory: Path, synth: dict) -> tuple[Path, Path]:
    """Write the synth and alternate-tracker configs; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    synth_cfg = directory / "synth_config.json"
    synth_cfg.write_text(json.dumps({"synth": synth}, sort_keys=True))
    alt_cfg = directory / "alt_config.json"
    alt_cfg.write_text(json.dumps(ALT_TRACK, sort_keys=True))
    return synth_cfg, alt_cfg


def commands(out: Path, seed: int, synth_cfg: Path, alt_cfg: Path) -> list[tuple[str, list[str], list[str]]]:
    """The pipeline as (label, vistrack argv, output file names in ``out``).

    Each command reads only what an earlier one wrote into ``out``.
    """
    def p(name: str) -> str:
        return str(out / name)

    return [
        ("synth", ["synth", "--config", str(synth_cfg), "--seed", str(seed), "--out-dir", str(out)],
         ["annotations.json", "detections.json", "identity.json"]),
        ("track", ["track", "--detections", p("detections.json"), "--out", p("results.json")],
         ["results.json"]),
        ("track_alt", ["track", "--detections", p("detections.json"), "--config", str(alt_cfg),
                       "--out", p("results_alt.json")],
         ["results_alt.json"]),
        ("eval", ["eval", "--gt", p("annotations.json"), "--results", p("results.json"), "--out", p("report.json")],
         ["report.json"]),
        ("fuse", ["fuse", "--inputs", p("results.json"), p("results_alt.json"), "--out", p("fused.json")],
         ["fused.json"]),
        ("pseudopair", ["pseudopair", "--annotations", p("annotations.json"), "--seed", str(seed),
                        "--out", p("pairs.json")],
         ["pairs.json"]),
        # losscheck reads no corpus and keeps its default seed: the seed draws
        # the vector lengths and set sizes, so it would move the work by ~20%.
        ("losscheck", ["losscheck", "--samples", str(LOSSCHECK_SAMPLES)], []),
    ]
