"""Documented input checks, one row each: a fault in a file exits 2
through the command that reads the file, with its exact message, and a
check that only a library caller reaches raises its own error. Each row
fails when its check is deleted."""

import copy
import json
import re
import runpy
import sys

import numpy as np
import pytest

from vistrack import (
    AssociationConfig,
    BBox,
    SplitMix64,
    SynthConfig,
    Track,
    TrackEntry,
    VideoGroundTruth,
    embed_loss,
    evaluate,
    formats,
    rle_encode,
)
from vistrack.cli import entrypoint
from vistrack.core import embedding_rows
from vistrack.errors import ConfigError, SchemaError, ToolkitError
from vistrack.evaluation import MAX_DETECTIONS
from vistrack.synth import _noisy_embedding

_ANNOTATIONS = {
    "videos": [{"id": 1, "width": 4, "height": 4, "length": 2}],
    "categories": [{"id": 1, "name": "thing"}],
    "annotations": [
        {
            "id": 1,
            "video_id": 1,
            "category_id": 1,
            "segmentations": [{"size": [4, 4], "counts": [0, 1, 15]}, None],
            "bboxes": [[0, 0, 1, 1], None],
        }
    ],
}
_DETECTION = {"bbox": [0, 0, 1, 1], "score": 0.5, "category_id": 1, "class_probs": [0.5], "embedding": [1.0, 0.0]}
_DETECTIONS = {
    "embedding_dim": 2,
    "videos": [{"video_id": 1, "frames": [{"frame_index": 0, "detections": [_DETECTION]}]}],
}
_RESULTS = [
    {
        "video_id": 1,
        "id": 1,
        "category_id": 1,
        "score": 0.5,
        "segmentations": [None, None],
        "bboxes": [[0, 0, 1, 1], None],
    }
]
_BASE = {"annotations": _ANNOTATIONS, "detections": _DETECTIONS, "results": _RESULTS}

_SEG, _SEG_AT = ("annotations", 0, "segmentations", 0), "annotations[0].segmentations[0]"
_DET, _DET_AT = ("videos", 0, "frames", 0, "detections", 0), "videos[0].frames[0].detections[0]"

# name -> (file, JSON path of the value to set, the value, message). A
# key one past the end of an array appends the value.
_FILE_FAULTS = {
    "mask-size-not-array": ("annotations", (*_SEG, "size"), 4, f"{_SEG_AT}.size: expected a JSON array"),
    "mask-size-of-three": ("annotations", (*_SEG, "size"), [4, 4, 1], f"{_SEG_AT}.size: must be [height, width]"),
    "mask-counts-not-array": ("annotations", (*_SEG, "counts"), 16, f"{_SEG_AT}.counts: expected a JSON array"),
    "segmentations-not-array": (
        "annotations",
        ("annotations", 0, "segmentations"),
        {},
        "annotations[0].segmentations: expected a JSON array",
    ),
    "bboxes-not-array": (
        "annotations",
        ("annotations", 0, "bboxes"),
        {},
        "annotations[0].bboxes: expected a JSON array",
    ),
    "videos-not-array": ("annotations", ("videos",), {}, "videos: expected a JSON array"),
    "categories-not-array": ("annotations", ("categories",), {}, "categories: expected a JSON array"),
    "annotations-not-array": ("annotations", ("annotations",), {}, "annotations: expected a JSON array"),
    "undeclared-video": ("annotations", ("annotations", 0, "video_id"), 2, "annotations[0]: unknown video_id 2"),
    "duplicate-category": (
        "annotations",
        ("categories", 1),
        {"id": 1, "name": "other"},
        "categories[1]: duplicate category id 1",
    ),
    "frame-detections-not-array": (
        "detections",
        _DET[:-1],
        {},
        "videos[0].frames[0].detections: expected a JSON array",
    ),
    "class-probs-not-array": (
        "detections",
        (*_DET, "class_probs"),
        0.5,
        f"{_DET_AT}.class_probs: expected a JSON array",
    ),
    "embedding-not-array": ("detections", (*_DET, "embedding"), {}, f"{_DET_AT}.embedding: expected a JSON array"),
    "class-probs-empty": ("detections", (*_DET, "class_probs"), [], f"{_DET_AT}: class_probs must be non-empty"),
    "class-prob-negative": (
        "detections",
        (*_DET, "class_probs"),
        [0.5, -0.125],
        f"{_DET_AT}: class probabilities must be finite and non-negative",
    ),
    "score-below-zero": ("detections", (*_DET, "score"), -0.5, f"{_DET_AT}: score must lie in [0, 1]"),
    "score-not-the-max": ("detections", (*_DET, "score"), 0.25, f"{_DET_AT}: score must equal max(class_probs)"),
    "category-negative": ("detections", (*_DET, "category_id"), -1, f"{_DET_AT}: category_id must be non-negative"),
    "record-of-null-slots": (
        "results",
        (0, "bboxes"),
        [None, None],
        "{path}: results[0]: track must have at least one entry",
    ),
}


def _edited(doc, path, value):
    doc = copy.deepcopy(doc)
    *where, key = path
    parent = doc
    for k in where:
        parent = parent[k]
    if isinstance(parent, list) and key == len(parent):
        parent.append(value)
    else:
        parent[key] = value
    return doc


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name", list(_FILE_FAULTS))
def test_a_file_fault_exits_2_with_its_message(tmp_path, capsys, name):
    kind, path, value, message = _FILE_FAULTS[name]
    bad = _write(tmp_path / f"{kind}.json", _edited(_BASE[kind], path, value))
    out = str(tmp_path / "out.json")
    argv = {
        "annotations": ["eval", "--gt", bad, "--results", _write(tmp_path / "r.json", _RESULTS), "--out", out],
        "detections": ["track", "--detections", bad, "--out", out],
        "results": ["fuse", "--inputs", bad, "--out", out],
    }[kind]
    assert entrypoint(argv) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=bad)}\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({}, "identity: expected a JSON array"),
        ([[1, 0, 0, 1], 5], "identity[1]: expected a JSON array"),
        ([[1, 0, 0]], "identity[0]: expected [video, frame, detection, track]"),
    ],
    ids=["root-not-array", "row-not-array", "row-of-three"],
)
def test_a_malformed_identity_file_is_a_schema_error(tmp_path, doc, message):
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        formats.load_identity(_write(tmp_path / "identity.json", doc))


def test_a_frame_with_only_an_empty_mask_has_no_entry(tmp_path):
    record = {**_RESULTS[0], "segmentations": [{"size": [4, 4], "counts": [16]}, None], "bboxes": [None, [0, 0, 1, 1]]}
    (track,) = formats.load_results(_write(tmp_path / "results.json", [record]))[1]
    assert list(track.entries) == [1]


def _gt():
    return VideoGroundTruth(video_id=1, height=4, width=4, length=1, gt_tracks=[], category_set=[1])


# name -> (call, error type, message)
_LIBRARY_CHECKS = {
    "new-instance-score": (
        lambda: AssociationConfig(new_instance_score=1.5),
        ConfigError,
        "new_instance_score must lie in [0, 1]",
    ),
    "memory-momentum": (
        lambda: AssociationConfig(memory_momentum=-0.5),
        ConfigError,
        "memory_momentum must lie in [0, 1]",
    ),
    "keep-top-n": (
        lambda: AssociationConfig(keep_top_n_per_frame=0),
        ConfigError,
        "keep_top_n_per_frame must be at least 1",
    ),
    "clutter-rate": (lambda: SynthConfig(clutter_rate=-0.5), ConfigError, "clutter_rate must be non-negative"),
    "motion-step-max": (lambda: SynthConfig(motion_step_max=-1), ConfigError, "motion_step_max must be non-negative"),
    "duplicate-ground-truth": (lambda: evaluate({}, [_gt(), _gt()]), SchemaError, "duplicate ground-truth video id 1"),
    "loss-set-length": (
        lambda: embed_loss((1.0, 0.0), [(1.0, 0.0, 0.0)], [(0.0, 1.0)]),
        ToolkitError,
        "positive/negative embeddings must match the anchor length",
    ),
    "embedding-rows-empty": (
        lambda: embedding_rows([[]]),
        ToolkitError,
        "embeddings must be n non-empty rows of one length",
    ),
    "ground-truth-size": (
        lambda: VideoGroundTruth(video_id=1, height=0, width=4, length=1, gt_tracks=[], category_set=[1]),
        ValueError,
        "video dimensions and length must be positive",
    ),
    "rle-encode-empty": (
        lambda: rle_encode(np.zeros((0, 3), dtype=bool)),
        ValueError,
        "bitmap must be a non-empty 2-D array",
    ),
    "randint-empty-range": (lambda: SplitMix64(1).randint(3, 2), ValueError, "empty integer range"),
    "track-negative-frame": (
        lambda: Track(1, 1, 0.5, {-1: TrackEntry(BBox(0.0, 0.0, 1.0, 1.0), None)}),
        ValueError,
        "track entry frame indices must be non-negative",
    ),
}


@pytest.mark.parametrize("name", list(_LIBRARY_CHECKS))
def test_a_library_check_raises_its_error(name):
    call, error, message = _LIBRARY_CHECKS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_poisson_of_mean_zero_is_zero_and_draws_nothing():
    rng = SplitMix64(1)
    assert rng.poisson(0.0) == 0
    assert rng.state == SplitMix64(1).state


def test_a_noisy_embedding_of_norm_zero_falls_back_to_the_base():
    base = np.array([0.6, 0.8])

    class Cancelling:  # noise that cancels the base exactly
        def gauss_many(self, n, sigma):
            return -base

    assert _noisy_embedding(base, Cancelling(), 0.5, 2.0) == (1.2, 1.6)


def test_table_prints_dashes_for_a_category_without_ground_truth(tmp_path, capsys):
    annotations = _edited(_ANNOTATIONS, ("categories", 1), {"id": 2, "name": "other"})
    gt, results = _write(tmp_path / "a.json", annotations), _write(tmp_path / "r.json", _RESULTS)
    assert entrypoint(["eval", "--gt", gt, "--results", results, "--out", str(tmp_path / "report.json"), "--table"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[3] == ["2"] + ["-"] * (3 + len(MAX_DETECTIONS))


def test_a_fault_the_json_parser_accepts_is_still_not_valid_json(tmp_path, capsys, monkeypatch):
    """The reader asks the parser for a fault's message; should the
    parser find none, the fault is still reported."""
    bad = tmp_path / "detections.json"
    bad.write_text('{"embedding_dim": 2 "videos": []}')
    monkeypatch.setattr(formats, "_read_json", lambda path: None)
    assert entrypoint(["track", "--detections", str(bad), "--out", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == f"error: {bad}: not valid JSON\n"


def test_python_m_vistrack_exits_with_the_entrypoints_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["vistrack", "losscheck", "--samples", "0"])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("vistrack", run_name="__main__")
    assert info.value.code == 3
    assert capsys.readouterr().err == "error: --samples must be at least 1, got 0\n"
