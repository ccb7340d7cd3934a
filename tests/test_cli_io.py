"""JSON formats (golden bytes, round trips, rejection messages), the
run-config loader, and the command-line entrypoints with their exit codes."""

import enum
import filecmp
import hashlib
import importlib
import inspect
import json
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
import typing
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vistrack
from helpers import quantize, reference_dumps, streamed_json
from vistrack import (
    BBox,
    ConfigError,
    Detection,
    FrameDetections,
    SchemaError,
    ScoreRule,
    SimilarityKind,
    Track,
    TrackEntry,
    VideoGroundTruth,
    bbox_of_mask,
    rle_encode,
)
from vistrack import cli, core, formats, pseudo_pair
from vistrack.cli import entrypoint
from vistrack.core import VideoMeta
from vistrack.formats import (
    load_annotations,
    load_detections,
    load_identity,
    load_results,
    load_run_config,
    save_annotations,
    save_detections,
    save_identity,
    save_results,
)


def tiny_mask():
    g = np.zeros((4, 4), dtype=bool)
    g[1:3, 0:2] = True
    return rle_encode(g)


def tiny_gt():
    m = tiny_mask()
    track = Track(
        track_id=1,
        category_id=1,
        score=1.0,
        entries={0: TrackEntry(bbox=bbox_of_mask(m), mask=m)},
    )
    return [
        VideoGroundTruth(
            video_id=1, height=4, width=4, length=2, gt_tracks=[track], category_set=[1]
        )
    ]


def tiny_detection(mask=None):
    return Detection(
        bbox=BBox(0, 1, 2, 2),
        score=1 / 3,
        category_id=1,
        class_probs=(0.0, 1 / 3),
        embedding=(0.6, 0.8),
        mask=tiny_mask() if mask is None else mask,
    )


TINY_META = VideoMeta(length=2, height=4, width=4)


def tiny_detections():
    """``save_detections``' videos: one 2-frame 4x4 video with one
    detection of embedding width 2."""
    return [(1, [FrameDetections(frame_index=0, detections=[tiny_detection()])], TINY_META)]


GOLDEN_ANNOTATIONS = """{
  "annotations": [
    {
      "bboxes": [
        [
          0.0,
          1.0,
          2.0,
          2.0
        ],
        null
      ],
      "category_id": 1,
      "id": 1,
      "segmentations": [
        {
          "counts": [
            1,
            2,
            2,
            2,
            9
          ],
          "size": [
            4,
            4
          ]
        },
        null
      ],
      "video_id": 1
    }
  ],
  "categories": [
    {
      "id": 1,
      "name": "category_1"
    }
  ],
  "videos": [
    {
      "height": 4,
      "id": 1,
      "length": 2,
      "width": 4
    }
  ]
}
"""

GOLDEN_DETECTIONS = """{
  "embedding_dim": 2,
  "videos": [
    {
      "frames": [
        {
          "detections": [
            {
              "bbox": [
                0.0,
                1.0,
                2.0,
                2.0
              ],
              "category_id": 1,
              "class_probs": [
                0.0,
                0.333333
              ],
              "embedding": [
                0.6,
                0.8
              ],
              "score": 0.333333,
              "segmentation": {
                "counts": [
                  1,
                  2,
                  2,
                  2,
                  9
                ],
                "size": [
                  4,
                  4
                ]
              }
            }
          ],
          "frame_index": 0
        }
      ],
      "height": 4,
      "length": 2,
      "video_id": 1,
      "width": 4
    }
  ]
}
"""

GOLDEN_RESULTS = """[
  {
    "bboxes": [
      [
        0.0,
        1.0,
        2.0,
        2.0
      ],
      null
    ],
    "category_id": 1,
    "id": 1,
    "score": 1.0,
    "segmentations": [
      {
        "counts": [
          1,
          2,
          2,
          2,
          9
        ],
        "size": [
          4,
          4
        ]
      },
      null
    ],
    "video_id": 1
  }
]
"""


# ---------------------------------------------------------------------------
# golden bytes and round trips


def test_annotations_golden_bytes(tmp_path):
    p = tmp_path / "ann.json"
    save_annotations(tiny_gt(), str(p))
    assert p.read_text() == GOLDEN_ANNOTATIONS


def test_detections_golden_bytes(tmp_path):
    p = tmp_path / "det.json"
    save_detections(tiny_detections(), str(p), embedding_dim=2)
    assert p.read_text() == GOLDEN_DETECTIONS


def test_results_golden_bytes(tmp_path):
    p = tmp_path / "res.json"
    save_results({1: tiny_gt()[0].gt_tracks}, str(p), video_lengths={1: 2})
    assert p.read_text() == GOLDEN_RESULTS


# ---------------------------------------------------------------------------
# the writer against the stdlib encoder

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e-05, 1e16, 1e-7, 123456789.0]),
    st.text(),
)


def _mostly_null(length, slots, as_tuple):
    values = [None] * length
    for k, v in slots.items():
        values[k % length] = v
    return tuple(values) if as_tuple else values


def mostly_null_arrays(children):
    """Arrays of up to ~700 slots with values at a few random slots, like a
    results file's per-frame ``segmentations`` and ``bboxes``."""
    return st.builds(
        _mostly_null,
        st.integers(1, 700),
        st.dictionaries(st.integers(0, 699), children, max_size=6),
        st.booleans(),
    )


json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=5),
        mostly_null_arrays(children),
    ),
    max_leaves=30,
)


@given(json_values)
def test_stream_matches_reference(obj):
    assert streamed_json(obj) == reference_dumps(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        [[], {}, ()],
        {"a": [], "b": {}},
        "",
        "caf\u00e9 \u2603 \U0001f600 \u2028 \x00 \x1f \x7f \" \\ /",
        -0.0,
        [1e-05, 1e16, -0.0, 0.1, 2.5e-300],
        2**100,
        [2**100, -(2**70), 0],
        True,
        None,
        [True, False, None, 1, 1.0, "x"],
        [None, {"counts": [1, 3], "size": [2, 2]}, None],
        [None] * 700,
        [[1]] + [None] * 699,
        [None] * 699 + [{"a": 1}],
        [None, None, [1], None],
        (None, None, (1,), None),
        [None, [], None, None, {}, [None, [2]], None],
        [{"a": None}, None, [0.5], None, None],
        {"ar": {"1": 0.5, "10": 0.25}, "ap": 0.75},
        {"score": 0.123456789, "ap": 1e-7, "n": 3},
        [1, 0.1234567, "x", None, 123456789.0, True],
        [np.float64(0.1234567), np.float64(1e-05), np.float64(-0.0)],
        (1, (2.0, "x")),
    ],
)
def test_stream_matches_reference_on_edge_cases(obj):
    assert streamed_json(obj) == reference_dumps(obj)


@pytest.mark.parametrize(
    "obj",
    [float("nan"), float("inf"), [1.0, float("-inf")], [0.5, "x", float("nan")], {"a": [[float("inf")]]}],
)
def test_stream_rejects_non_finite_floats(obj):
    with pytest.raises(ValueError):
        reference_dumps(obj)
    with pytest.raises(ValueError):
        streamed_json(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {1, 2},
        [0, {1}],
        {"a": frozenset()},
        {(1, 2): 0},
        np.int64(3),
        map(int, "12"),
        iter([1, 2]),
        {3: "c", 1: None, 2: [1.5]},
        {2.5: 1, -1.0: 0},
        {None: 0},
    ],
)
def test_stream_rejects_other_types(obj):
    with pytest.raises(TypeError):
        reference_dumps(obj)
    with pytest.raises(TypeError):
        streamed_json(obj)


# ---------------------------------------------------------------------------
# float arrays, each float quantized and formatted once


def _quantized_text(values) -> str:
    """The arrays' text by definition: quantize each float, then write
    the list with json.dumps (float.__repr__)."""
    return json.dumps([quantize(v) for v in values], indent=2, allow_nan=False) + "\n"


# mantissa x 10^exponent over magnitudes 1e-12 to 1e17, either sign
_magnitudes = st.builds(
    lambda m, e, sign: sign * m * 10.0**e, st.floats(1.0, 10.0), st.integers(-12, 17), st.sampled_from([-1.0, 1.0])
)


@given(
    st.lists(
        st.one_of(
            _magnitudes,
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(-(10**7), 10**7).map(float),  # integral values
            st.sampled_from([0.0, -0.0]),
        ),
        max_size=12,
    )
)
def test_quantized_floats_are_written_as_quantize_then_repr(values):
    assert streamed_json(tuple(values)) == streamed_json(values) == _quantized_text(values)


@pytest.mark.parametrize(
    "x",
    [
        0.0, -0.0, 1.0, -3.0, 12.0, 100000.0, 999999.0, 999999.4, 999999.5, 1e6, -1e6, 1234567.0,
        1e16, 1e17, 9.9999995e15, 1e-12, 1e-5, 9.999995e-5, 0.0001, 0.1, 1 / 3, 123456.5, 0.000123456789,
        2.2250738585072014e-308, 1e-310, 5e-324, 1.7976931348623157e308,
    ],
)
def test_quantized_float_edge_cases(x):
    assert streamed_json((x, -x)) == streamed_json([x, -x]) == _quantized_text((x, -x))
    assert streamed_json({"x": x}) == json.dumps({"x": quantize(x)}, indent=2) + "\n"


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_quantized_non_finite_float_raises_the_same_error(x):
    with pytest.raises(ValueError) as stdlib:
        json.dumps([1.5, x], indent=2, allow_nan=False)
    for obj in [(1.5, x), [1.5, x], [1, x], {"x": x}]:
        with pytest.raises(ValueError) as streamed:
            streamed_json(obj)
        assert str(streamed.value) == str(stdlib.value)


def test_empty_quantized_array():
    assert streamed_json({"a": (), "b": []}) == '{\n  "a": [],\n  "b": []\n}\n'


# ---------------------------------------------------------------------------
# the streamed writer


def _as_generators(obj, pick):
    """``obj`` with each array for which ``pick()`` is true turned into a
    generator of its items, recursively."""
    if isinstance(obj, dict):
        return {k: _as_generators(v, pick) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        items = [_as_generators(v, pick) for v in obj]
        return (v for v in items) if pick() else items
    return obj


def _written(obj, tmp_path) -> str:
    path = tmp_path / "out.json"
    formats._write(obj, str(path))
    return path.read_bytes().decode("utf-8")


@given(json_values, st.randoms(use_true_random=False))
def test_streamed_write_matches_reference(tmp_path_factory, obj, rnd):
    tmp_path = tmp_path_factory.mktemp("w")
    expected = reference_dumps(obj)
    assert _written(_as_generators(obj, lambda: rnd.random() < 0.5), tmp_path) == expected
    assert _written(_as_generators(obj, lambda: True), tmp_path) == expected
    assert streamed_json(_as_generators(obj, lambda: True)) == expected


BIG = formats._FLUSH_PIECES * 3


@pytest.mark.parametrize(
    "obj",
    [
        [],
        [[]],
        {"a": [], "b": [[], {}]},
        {"a": list(range(5)), "b": [1], "c": {"d": [None, [2.5], None]}},
        [{"k": i, "v": [None] * (i % 7) + [[i]], "s": "x" * (i % 3)} for i in range(BIG)],
        {"rows": [{"frames": [{"i": j, "d": [[0.5, j]]} for j in range(40)]} for i in range(BIG // 40)]},
        [[None, None, {"a": [i]}] for i in range(BIG)],
        list(range(BIG)),
    ],
    ids=["empty", "nested-empty", "in-dict-empty", "in-dict", "records", "nested-records", "null-runs", "ints"],
)
def test_streamed_write_matches_reference_on_edge_cases(tmp_path, obj):
    assert _written(_as_generators(obj, lambda: True), tmp_path) == reference_dumps(obj)


def _past_the_end():
    """Tracks of video 1 whose second track has an entry at frame 5, past
    a length of 2, so that ``save_results`` fails after its first record."""
    good = tiny_gt()[0].gt_tracks[0]
    bad = Track(track_id=2, category_id=1, score=0.5, entries={5: good.entries[0]})
    return {1: [good, bad]}


def test_failed_write_leaves_a_missing_path_missing(tmp_path):
    p = tmp_path / "res.json"
    with pytest.raises(SchemaError, match=r"^results\[1\]: track 2 entry frame 5 outside video length 2$"):
        save_results(_past_the_end(), str(p), video_lengths={1: 2})
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_an_existing_file_as_it_was(tmp_path):
    p = tmp_path / "res.json"
    p.write_bytes(b"earlier bytes\n")
    with pytest.raises(SchemaError, match=r"^results\[1\]: track 2 entry frame 5 outside video length 2$"):
        save_results(_past_the_end(), str(p), video_lengths={1: 2})
    assert p.read_bytes() == b"earlier bytes\n"
    assert list(tmp_path.iterdir()) == [p]


def test_save_results_checks_every_length_before_opening_the_file(tmp_path):
    p = tmp_path / "res.json"
    with pytest.raises(SchemaError, match="no video length provided for video 2"):
        save_results({1: tiny_gt()[0].gt_tracks, 2: []}, str(p), video_lengths={1: 2})
    assert list(tmp_path.iterdir()) == []


def _two_frames(first_mask, second_mask, meta=None, indices=(0, 1)):
    """One video of two frames, one detection each, with these masks."""
    frames = [FrameDetections(f, [tiny_detection(m)]) for f, m in zip(indices, (first_mask, second_mask))]
    return [(1, frames, meta)]


_EIGHT = rle_encode(np.zeros((8, 8), dtype=bool))


@pytest.mark.parametrize(
    "videos,embedding_dim,message",
    [
        ([(1, [FrameDetections(frame_index=0, detections=[])], None)], None, "embedding_dim: expected an integer"),
        ([], 0, "embedding_dim: must be at least 1"),
        (
            tiny_detections(),
            5,
            r"videos\[0\]\.frames\[0\]\.detections\[0\]\.embedding: length 2 violates the declared "
            r"embedding_dim 5 \(dimension must be constant per file\)",
        ),
        (
            _two_frames(None, None, indices=(1, 0)),
            2,
            r"videos\[0\]\.frames\[1\]: frame_index must be strictly increasing within a video",
        ),
        (_two_frames(None, None, TINY_META, (0, 2)), 2, r"videos\[0\]: frame_index 2 outside declared length 2"),
        (
            _two_frames(None, None, VideoMeta(length=2, height=8, width=4)),
            2,
            r"videos\[0\]\.frames\[0\]\.detections\[0\]\.segmentation: mask size \[4, 4\] differs from "
            r"\[8, 4\], the size of video 1",
        ),
        (
            _two_frames(None, _EIGHT),
            2,
            r"videos\[0\]\.frames\[1\]\.detections\[0\]\.segmentation: mask size \[8, 8\] differs from "
            r"\[4, 4\], the size of video 1",
        ),
        (tiny_detections() * 2, 2, r"videos\[1\]: duplicate video_id 1"),
    ],
    ids=[
        "no-detections",
        "zero",
        "declared-5-given-2",
        "frames-out-of-order",
        "frame-beyond-length",
        "mask-size-not-declared",
        "two-mask-sizes",
        "duplicate-video",
    ],
)
def test_save_detections_writes_only_files_that_load(tmp_path, videos, embedding_dim, message):
    """A video that load_detections would reject is refused, with the
    loader's message, while it is written, and no file is left."""
    p = tmp_path / "det.json"
    with pytest.raises(SchemaError, match=f"^{message}$"):
        save_detections(videos, str(p), embedding_dim=embedding_dim)
    assert list(tmp_path.iterdir()) == []


_FULL_EIGHT = rle_encode(np.ones((8, 8), dtype=bool))


def _track(tid, *masks, score=0.5):
    """A track with one entry per mask, at frames 0, 1, ..."""
    entries = {f: TrackEntry(bbox_of_mask(m), m) for f, m in enumerate(masks)}
    return Track(track_id=tid, category_id=1, score=score, entries=entries)


def _write_unchecked(monkeypatch, save, *args):
    """``save(*args)`` with the size and duplicate-id rules switched off,
    which writes the file the checked writer refuses."""
    with monkeypatch.context() as m:
        m.setattr(formats, "_fit_size", lambda *a: None)
        m.setattr(formats, "_new_track", lambda *a: None)
        save(*args)


_TRACK_FAULTS = {
    "two-mask-sizes": (
        [_track(1, tiny_mask()), _track(2, _FULL_EIGHT, score=0.25)],
        "[1].segmentations[0]: mask size [8, 8] differs from [4, 4], the size of video 1",
    ),
    "two-mask-sizes-in-a-track": (
        [_track(1, tiny_mask(), _FULL_EIGHT)],
        "[0].segmentations[1]: mask size [8, 8] differs from [4, 4], the size of video 1",
    ),
    "duplicate-track-id": ([_track(1, tiny_mask()), _track(1, tiny_mask())], "[1]: duplicate track id 1 for video 1"),
}


@pytest.mark.parametrize("name", list(_TRACK_FAULTS))
def test_save_results_writes_only_files_that_load(tmp_path, monkeypatch, name):
    """Tracks that load_results would reject are refused, with the
    loader's message, while they are written, and no file is left."""
    tracks, message = _TRACK_FAULTS[name]
    p = tmp_path / "res.json"
    with pytest.raises(SchemaError) as e:
        save_results({1: tracks}, str(p), video_lengths={1: 2})
    assert str(e.value) == f"results{message}"
    assert list(tmp_path.iterdir()) == []
    _write_unchecked(monkeypatch, save_results, {1: tracks}, str(p), {1: 2})
    with pytest.raises(SchemaError) as e:
        load_results(str(p))
    assert str(e.value) == f"{p}: results{message}"


def _video(*tracks, names=None) -> VideoGroundTruth:
    """Video 1, 4x4 and 2 frames long, of category 1."""
    return VideoGroundTruth(
        video_id=1, height=4, width=4, length=2, gt_tracks=list(tracks), category_set=[1], category_names=names or {}
    )


_VIDEO_JSON = {"id": 1, "width": 4, "height": 4, "length": 2}
_CATEGORY_JSON = {"id": 1, "name": "thing"}

# Faults of the ground truth that no track rule catches: each with the
# annotations file, written by hand, that shows the loader's message.
_ANNOTATION_FAULTS = {
    "unknown-category": (
        [_video(Track(track_id=1, category_id=9, score=1.0, entries={0: TrackEntry(BBox(0, 0, 1, 1), None)}))],
        {
            "videos": [_VIDEO_JSON],
            "annotations": [
                {"id": 1, "video_id": 1, "category_id": 9, "segmentations": [None, None], "bboxes": [[0, 0, 1, 1], None]}
            ],
            "categories": [_CATEGORY_JSON],
        },
        "annotations[0]: unknown category_id 9",
    ),
    "duplicate-video": (
        [_video(), _video()],
        {"videos": [_VIDEO_JSON, _VIDEO_JSON], "annotations": [], "categories": [_CATEGORY_JSON]},
        "videos[1]: duplicate video id 1",
    ),
    "category-name-not-a-string": (
        [_video(names={1: 7})],
        {"videos": [_VIDEO_JSON], "annotations": [], "categories": [{"id": 1, "name": 7}]},
        "categories[0].name: expected a string",
    ),
}


@pytest.mark.parametrize("name", [*_TRACK_FAULTS, "mask-size-not-declared", *_ANNOTATION_FAULTS])
def test_save_annotations_writes_only_files_that_load(tmp_path, monkeypatch, name):
    """As for results, with the video's declared size the size rule's
    start: an 8x8 mask in a 4x4 video is refused too. So are a track of
    an undeclared category, a repeated video id and a category name that
    is not a string, each with the message the loader gives its file."""
    p = tmp_path / "ann.json"
    if name in _ANNOTATION_FAULTS:
        gt, doc, message = _ANNOTATION_FAULTS[name]
    else:
        tracks, message = _TRACK_FAULTS.get(
            name,
            ([_track(1, _FULL_EIGHT)], "[0].segmentations[0]: mask size [8, 8] differs from [4, 4], the size of video 1"),
        )
        gt, message = [_video(*tracks)], f"annotations{message}"
    with pytest.raises(SchemaError) as e:
        save_annotations(gt, str(p))
    assert str(e.value) == message
    assert list(tmp_path.iterdir()) == []
    if name in _ANNOTATION_FAULTS:
        p.write_text(json.dumps(doc))
    else:
        _write_unchecked(monkeypatch, save_annotations, gt, str(p))
    with pytest.raises(SchemaError) as e:
        load_annotations(str(p))
    assert str(e.value) == message


def test_write_through_a_symlink_keeps_the_link(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old\n")
    link.symlink_to(target)
    save_results({1: tiny_gt()[0].gt_tracks}, str(link), video_lengths={1: 2})
    assert link.is_symlink()
    assert target.read_text() == GOLDEN_RESULTS
    assert sorted(q.name for q in tmp_path.iterdir()) == ["link.json", "target.json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_write_to_a_pipe_streams_into_it(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    save_results({1: tiny_gt()[0].gt_tracks}, str(fifo), video_lengths={1: 2})
    reader.join(timeout=10)
    assert received == [GOLDEN_RESULTS]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(q.name for q in tmp_path.iterdir()) == ["pipe"]


def test_save_results_memory_is_bounded_by_a_record(tmp_path):
    """A sparse 2,000-frame video of 300 one-entry tracks: the file is
    ~14 MB, nearly all nulls, and the writer holds only a few records."""
    length = 2000
    m = tiny_mask()
    tracks = [
        Track(track_id=i, category_id=1, score=0.5, entries={(7 * i) % length: TrackEntry(bbox_of_mask(m), m)})
        for i in range(1, 301)
    ]
    p = tmp_path / "res.json"
    tracemalloc.start()
    try:
        save_results({1: tracks}, str(p), video_lengths={1: length})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = p.stat().st_size
    assert size > 10_000_000
    assert peak < size / 4, (peak, size)


def test_annotations_round_trip(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_annotations(tiny_gt(), str(a))
    save_annotations(load_annotations(str(a)), str(b))
    assert filecmp.cmp(a, b, shallow=False)


def test_save_annotations_writes_a_numpy_category_id_as_an_int(tmp_path):
    p = tmp_path / "a.json"
    gt = VideoGroundTruth(video_id=1, height=4, width=4, length=2, gt_tracks=[], category_set=[np.int64(1)])
    assert type(gt.category_set[0]) is int
    save_annotations([gt], str(p))
    assert json.loads(p.read_text())["categories"] == [{"id": 1, "name": "category_1"}]
    assert load_annotations(str(p))[0].category_set == [1]


def test_detections_round_trip(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_detections(tiny_detections(), str(a), embedding_dim=2)
    loaded = load_detections(str(a))
    videos = ((vid, frames, loaded.metas[vid]) for vid, frames in loaded.videos.items())
    save_detections(videos, str(b), embedding_dim=loaded.embedding_dim)
    assert filecmp.cmp(a, b, shallow=False)


def test_results_round_trip(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_results({1: tiny_gt()[0].gt_tracks}, str(a), video_lengths={1: 2})
    videos = {}
    tracks = load_results(str(a), videos)
    assert videos == {1: (2, [4, 4])}
    save_results(tracks, str(b), video_lengths={vid: length for vid, (length, _) in videos.items()})
    assert filecmp.cmp(a, b, shallow=False)


def test_results_meta_of_a_video_without_masks(tmp_path, capsys):
    """A video whose tracks carry only boxes has no mask size, so fuse
    takes it beside a file that has masks for the same video."""
    boxes_only = {"video_id": 1, "id": 1, "category_id": 1, "score": 0.5}
    boxes_only.update(segmentations=[None, None, None], bboxes=[[0, 0, 2, 2], None, [1, 1, 2, 2]])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps([boxes_only]))
    b.write_text(json.dumps([_result_record(1, {0}, (4, 4), length=3)]))
    videos = {}
    load_results(str(a), videos)
    assert videos == {1: (3, [None, None])}
    assert entrypoint(["fuse", "--inputs", str(a), str(b), "--out", str(tmp_path / "fused.json")]) == 0
    fused = {}
    load_results(str(tmp_path / "fused.json"), fused)
    assert fused == {1: (3, [4, 4])}


def test_identity_round_trip(tmp_path):
    p = tmp_path / "id.json"
    key = {(1, 0, 0): 1, (1, 0, 1): -1, (2, 3, 0): 2}
    save_identity(key, str(p))
    assert load_identity(str(p)) == key


@pytest.mark.parametrize(
    "key,row",
    [
        ({(1, 0, 0): True}, [1, 0, 0, True]),
        ({(1, 0, 0): 1, (1, 0.0, 1): 2}, [1, 0.0, 1, 2]),
        ({("1", 0, 0): 1}, ["1", 0, 0, 1]),
        ({(1, 0, 0): 2, ("1", 0, 0): 1}, ["1", 0, 0, 1]),
    ],
    ids=["bool", "float", "string", "mixed"],
)
def test_save_identity_writes_only_files_that_load(tmp_path, key, row):
    """A value that is not an integer is refused with the message that
    load_identity gives the row written by hand, and no file is left.
    Rows are checked before they are sorted, so a string key next to an
    int key is this refusal too, not sorted's TypeError."""
    p = tmp_path / "id.json"
    index = len(key) - 1
    with pytest.raises(SchemaError) as e:
        save_identity(key, str(p))
    assert str(e.value) == f"identity[{index}]: expected an integer"
    assert list(tmp_path.iterdir()) == []
    p.write_text(json.dumps([[1, 0, 0, 1]] * index + [row]))
    with pytest.raises(SchemaError) as loaded:
        load_identity(str(p))
    assert str(loaded.value) == str(e.value)


def test_save_identity_writes_numpy_integers_as_ints(tmp_path):
    p = tmp_path / "id.json"
    save_identity({(np.int64(1), np.int32(0), np.uint8(2)): np.int64(-1)}, str(p))
    assert p.read_text() == "[\n  [\n    1,\n    0,\n    2,\n    -1\n  ]\n]\n"
    assert load_identity(str(p)) == {(1, 0, 2): -1}


# ---------------------------------------------------------------------------
# loader rejections


def test_malformed_json_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"videos": [}')
    with pytest.raises(SchemaError, match=r"line 1 column"):
        load_annotations(str(p))


def test_rle_counts_sum_rejected(tmp_path):
    p = tmp_path / "ann.json"
    save_annotations(tiny_gt(), str(p))
    doc = json.loads(p.read_text())
    doc["annotations"][0]["segmentations"][0]["counts"] = [1, 2, 2, 2, 8]
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="sum"):
        load_annotations(str(p))


def test_string_rle_counts_rejected(tmp_path):
    p = tmp_path / "ann.json"
    save_annotations(tiny_gt(), str(p))
    doc = json.loads(p.read_text())
    doc["annotations"][0]["segmentations"][0]["counts"] = "ab12"
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="integer array"):
        load_annotations(str(p))


def test_wrong_embedding_length_rejected(tmp_path):
    p = tmp_path / "det.json"
    save_detections(tiny_detections(), str(p), embedding_dim=2)
    doc = json.loads(p.read_text())
    doc["videos"][0]["frames"][0]["detections"][0]["embedding"] = [0.6, 0.8, 0.0]
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="embedding_dim"):
        load_detections(str(p))


def test_duplicate_identity_row_rejected(tmp_path):
    p = tmp_path / "id.json"
    p.write_text("[[1, 0, 0, 1], [1, 0, 0, 2]]")
    with pytest.raises(SchemaError, match=r"identity\[1\]: duplicate row for video 1 frame 0 detection 0"):
        load_identity(str(p))


@pytest.mark.parametrize(
    "rows,index,key",
    [
        ([[1, 0, 0, 1], [1, 0, 1, 1], [1, 0, 0, 1]], 2, (1, 0, 0)),
        ([[1, 0, 0, 1], [2, 3, 1, 4], [2, 3, 1, -1]], 2, (2, 3, 1)),
        ([[2, 5, 0, 3], [1, 0, 0, 1], [2, 5, 0, 7]], 2, (2, 5, 0)),
    ],
    ids=["not-adjacent", "later-video", "out-of-order"],
)
def test_duplicate_identity_row_rejected_anywhere(tmp_path, rows, index, key):
    p = tmp_path / "id.json"
    p.write_text(json.dumps(rows))
    v, f, d = key
    with pytest.raises(SchemaError, match=rf"identity\[{index}\]: duplicate row for video {v} frame {f} detection {d}"):
        load_identity(str(p))


@pytest.mark.parametrize("other", [[2, 0, 0, 1], [1, 1, 0, 1], [1, 0, 1, 1]], ids=["video", "frame", "detection"])
def test_identity_rows_that_differ_in_one_key_are_both_kept(tmp_path, other):
    p = tmp_path / "id.json"
    p.write_text(json.dumps([[1, 0, 0, 1], other]))
    assert load_identity(str(p)) == {(1, 0, 0): 1, tuple(other[:3]): 1}


# Each loader's file with "{x}" where a value goes, and two values past a
# limit of the JSON decoder: an integer longer than int() takes (none on
# a Python without the limit) and nesting deeper than its recursion goes.
_LIMIT_FILES = {
    "detections": (load_detections, '{{"embedding_dim": {x}, "videos": []}}'),
    "results": (load_results, "[{x}]"),
    "annotations": (load_annotations, '{{"videos": [], "annotations": [{x}], "categories": []}}'),
    "identity": (load_identity, "[{x}]"),
    "config": (load_run_config, '{{"synth": {{"n_videos": {x}}}}}'),
}
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_LIMITS = {
    "huge-integer": ("9" * (_INT_DIGITS + 1), f"an integer of more than {_INT_DIGITS} digits"),
    "deep-nesting": ("[" * 100_000 + "]" * 100_000, "JSON nested too deeply to decode"),
}


def _past_a_limit(limit):
    if limit == "huge-integer" and not _INT_DIGITS:
        pytest.skip("this Python converts integers of any length")
    return _LIMITS[limit]


@pytest.mark.parametrize("limit", list(_LIMITS))
@pytest.mark.parametrize("loader", list(_LIMIT_FILES))
def test_a_value_past_the_decoders_limits_is_a_schema_error(tmp_path, loader, limit):
    value, message = _past_a_limit(limit)
    load, doc = _LIMIT_FILES[loader]
    p = tmp_path / "in.json"
    p.write_text(doc.format(x=value))
    with pytest.raises(SchemaError) as e:
        load(str(p))
    assert str(e.value) == f"{p}: {message}"


@pytest.mark.parametrize("limit", list(_LIMITS))
@pytest.mark.parametrize(
    "loader, argv",
    [
        ("detections", ["track", "--detections", "{bad}", "--out", "{out}"]),
        ("results", ["eval", "--gt", "{gt}", "--results", "{bad}", "--out", "{out}"]),
        ("results", ["fuse", "--inputs", "{bad}", "--out", "{out}"]),
        ("annotations", ["eval", "--gt", "{bad}", "--results", "{results}", "--out", "{out}"]),
        ("config", ["synth", "--config", "{bad}", "--out-dir", "{out}"]),
    ],
    ids=["track", "eval-results", "fuse", "eval-annotations", "synth-config"],
)
def test_a_value_past_the_decoders_limits_exits_2(tmp_path, capsys, loader, argv, limit):
    value, message = _past_a_limit(limit)
    bad, gt, results, out = (tmp_path / name for name in ("bad.json", "gt.json", "results.json", "out"))
    bad.write_text(_LIMIT_FILES[loader][1].format(x=value))
    gt.write_text('{"videos": [], "annotations": [], "categories": []}')
    results.write_text("[]")
    assert entrypoint([a.format(bad=bad, gt=gt, results=results, out=out) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not out.exists()


def test_duplicate_annotation_id_rejected(tmp_path):
    p = tmp_path / "ann.json"
    save_annotations(tiny_gt(), str(p))
    doc = json.loads(p.read_text())
    doc["annotations"].append(dict(doc["annotations"][0]))
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"^annotations\[1\]: duplicate track id 1 for video 1$"):
        load_annotations(str(p))


def test_out_of_order_frames_rejected(tmp_path):
    p = tmp_path / "det.json"
    save_detections(tiny_detections(), str(p), embedding_dim=2)
    doc = json.loads(p.read_text())
    frame = doc["videos"][0]["frames"][0]
    doc["videos"][0]["frames"] = [frame, dict(frame)]  # frame_index repeats
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="frame_index"):
        load_detections(str(p))


def _tiny_detections_doc(tmp_path):
    p = tmp_path / "det.json"
    save_detections(tiny_detections(), str(p), embedding_dim=2)
    return p, json.loads(p.read_text())


@pytest.mark.parametrize("length", [0, -3])
def test_declared_length_below_one_rejected(tmp_path, length):
    p, doc = _tiny_detections_doc(tmp_path)
    doc["videos"][0]["length"] = length
    doc["videos"][0]["frames"] = []
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="length"):
        load_detections(str(p))


@pytest.mark.parametrize("key", ["height", "width"])
@pytest.mark.parametrize("value", [0, -4])
def test_declared_dimension_not_positive_rejected(tmp_path, key, value):
    p, doc = _tiny_detections_doc(tmp_path)
    doc["videos"][0][key] = value
    doc["videos"][0]["frames"] = []
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=key):
        load_detections(str(p))


@pytest.mark.parametrize("fidx", [-1, -7])
def test_negative_frame_index_rejected(tmp_path, fidx):
    p, doc = _tiny_detections_doc(tmp_path)
    doc["videos"][0]["frames"][0]["frame_index"] = fidx
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="non-negative"):
        load_detections(str(p))


@pytest.mark.parametrize("key, size", [("height", [64, 4]), ("width", [4, 64])], ids=["height", "width"])
def test_track_checks_a_size_declared_alone(tmp_path, capsys, key, size):
    """A 4x4 mask in a video that declares only its height (or width) as
    64 is a schema error, as when both sides are declared; the side not
    declared is the first mask's."""
    p, doc = _tiny_detections_doc(tmp_path)
    video = doc["videos"][0]
    del video["height"], video["width"]
    video[key] = 64
    p.write_text(json.dumps(doc))
    out = tmp_path / "res.json"
    assert entrypoint(["track", "--detections", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: videos[0].frames[0].detections[0].segmentation: mask size [4, 4] differs from {size}, the size of video 1\n"
    )
    assert not out.exists()


def test_video_without_frames_or_length_has_length_one(tmp_path):
    p, doc = _tiny_detections_doc(tmp_path)
    del doc["videos"][0]["length"]
    doc["videos"][0]["frames"] = []
    p.write_text(json.dumps(doc))
    assert load_detections(str(p)).metas[1].length == 1


def test_duplicate_result_track_rejected(tmp_path):
    p = tmp_path / "res.json"
    save_results({1: tiny_gt()[0].gt_tracks}, str(p), video_lengths={1: 2})
    doc = json.loads(p.read_text())
    doc.append(dict(doc[0]))
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="duplicate"):
        load_results(str(p))


def test_null_bbox_of_huge_mask_is_taken_from_runs(tmp_path, monkeypatch):
    def no_decode(mask):
        raise AssertionError("the mask was decoded to a dense grid")

    monkeypatch.setattr(core, "rle_decode", no_decode)
    side = 100_000
    # one-runs over rows 5..6 of column 3 and from the last row of
    # column 7 to the first row of column 8, at column-major positions
    first, second = 3 * side + 5, 7 * side + side - 1
    counts = [first, 2, second - (first + 2), 2, side * side - (second + 2)]
    record = {"video_id": 1, "id": 1, "category_id": 1, "score": 0.5, "bboxes": [None]}
    record["segmentations"] = [{"size": [side, side], "counts": counts}]
    p = tmp_path / "res.json"
    p.write_text(json.dumps([record]))
    tracks = load_results(str(p))
    assert tracks[1][0].entries[0].bbox == BBox(3.0, 0.0, 6.0, float(side))


def _result_record(tid, frames, size, length=2, vid=1):
    """A results record of one video with a full mask of ``size`` on each
    of ``frames``."""
    h, w = size
    segs = [{"size": [h, w], "counts": [0, h * w]} if f in frames else None for f in range(length)]
    return {"video_id": vid, "id": tid, "category_id": 1, "score": 0.5, "segmentations": segs, "bboxes": [None] * length}


@pytest.mark.parametrize("frame", [0, 1], ids=["shared-frame", "no-shared-frame"])
def test_results_masks_of_one_video_must_share_a_size(tmp_path, capsys, frame):
    """Whether or not the two tracks share a frame, the second mask size
    is a schema error naming the record and frame, and fuse exits 2."""
    p = tmp_path / "res.json"
    p.write_text(json.dumps([_result_record(1, {0}, (4, 4)), _result_record(2, {frame}, (4, 5))]))
    with pytest.raises(SchemaError, match=rf"results\[1\]\.segmentations\[{frame}\]"):
        load_results(str(p))
    assert entrypoint(["fuse", "--inputs", str(p), "--out", str(tmp_path / "fused.json")]) == 2
    assert f"results[1].segmentations[{frame}]" in capsys.readouterr().err


def test_results_masks_of_different_videos_may_differ_in_size(tmp_path):
    p = tmp_path / "res.json"
    p.write_text(json.dumps([_result_record(1, {0}, (4, 4)), _result_record(2, {0}, (4, 5), vid=2)]))
    videos = {}
    tracks = load_results(str(p), videos)
    assert [t.entries[0].mask.width for vid in (1, 2) for t in tracks[vid]] == [4, 5]
    assert videos == {1: (2, [4, 4]), 2: (2, [4, 5])}


@pytest.mark.parametrize("frame", [0, 1], ids=["shared-frame", "no-shared-frame"])
def test_fuse_inputs_must_agree_on_mask_size(tmp_path, capsys, frame):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps([_result_record(1, {0}, (4, 4))]))
    b.write_text(json.dumps([_result_record(1, {frame}, (5, 4))]))
    assert entrypoint(["fuse", "--inputs", str(a), str(b), "--out", str(tmp_path / "fused.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: {b}: results[0].segmentations[{frame}]: mask size [5, 4] differs from [4, 4], the size of video 1\n"
    )
    assert not (tmp_path / "fused.json").exists()


def test_fuse_names_the_input_and_record_that_disagree_with_those_before(tmp_path, capsys):
    """Each input is checked against the videos of the inputs before it,
    so a file read twice agrees with itself and the third file's second
    record, which gives video 1 a third frame, is the fault."""
    a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "fused.json"
    a.write_text(json.dumps([_result_record(1, {0}, (4, 4))]))
    b.write_text(json.dumps([_result_record(1, {0}, (4, 4), vid=2), _result_record(2, {0}, (4, 4), length=3)]))
    assert entrypoint(["fuse", "--inputs", str(a), str(a), str(b), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {b}: results[1]: segmentations and bboxes must have video 1's length, 2\n"
    assert not out.exists()


def test_fuse_refuses_a_zero_source_weight(tmp_path, capsys):
    """A cluster of zero-weight members alone would have no weighted mean:
    every weight must be positive, and the config error names the file."""
    a, b, cfg, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "w.json", tmp_path / "fused.json"
    a.write_text(json.dumps([_result_record(1, {0}, (4, 4))]))
    b.write_text(json.dumps([_result_record(1, {1}, (4, 4))]))
    cfg.write_text(json.dumps({"fusion": {"source_weights": [1.0, 0.0]}}))
    assert entrypoint(["fuse", "--inputs", str(a), str(b), "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {cfg}: config.fusion: source_weights must all be positive\n"
    assert not out.exists()


def test_fuse_checks_the_weight_count_before_reading_any_input(tmp_path, capsys):
    """The inputs do not exist: the count is checked against --inputs first."""
    cfg, out = tmp_path / "w.json", tmp_path / "fused.json"
    cfg.write_text(json.dumps({"fusion": {"source_weights": [1.0, 2.0]}}))
    inputs = [str(tmp_path / f"missing_{i}.json") for i in range(3)]
    assert entrypoint(["fuse", "--inputs", *inputs, "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: {cfg}: config.fusion: source_weights has 2 weights, but --inputs names 3 files\n"
    )
    assert not out.exists()


def test_load_results_checks_and_fills_the_videos_it_is_given(tmp_path):
    """A given video's length and size bind the file's records; a size
    given as [None, None] takes the first mask's, and the file's other
    videos are added. The tracks are those of the file's videos only."""
    p = tmp_path / "res.json"
    p.write_text(json.dumps([_result_record(1, {1}, (4, 5)), _result_record(1, {0}, (6, 6), length=3, vid=2)]))
    videos = {1: (2, [None, None]), 3: (7, [8, 8])}
    tracks = load_results(str(p), videos)
    assert videos == {1: (2, [4, 5]), 2: (3, [6, 6]), 3: (7, [8, 8])}
    assert sorted(tracks) == [1, 2]
    with pytest.raises(SchemaError) as length_fault:
        load_results(str(p), {1: (3, [None, None])})
    assert str(length_fault.value) == f"{p}: results[0]: segmentations and bboxes must have video 1's length, 3"
    with pytest.raises(SchemaError) as size_fault:
        load_results(str(p), {1: (2, [4, 4])})
    assert str(size_fault.value) == (
        f"{p}: results[0].segmentations[1]: mask size [4, 5] differs from [4, 4], the size of video 1"
    )


def test_eval_results_must_match_the_video_mask_size(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"n_videos": 1, "frames_per_video": 4, "canvas": [64, 64]}}))
    assert entrypoint(["synth", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    res, rep = tmp_path / "res.json", tmp_path / "rep.json"
    res.write_text(json.dumps([_result_record(1, {0}, (10, 12), length=4)]))
    code = entrypoint(["eval", "--gt", str(tmp_path / "annotations.json"), "--results", str(res), "--out", str(rep)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {res}: results[0].segmentations[0]: mask size [10, 12] differs from [64, 64], the size of video 1\n"
    )
    assert not rep.exists()


def _one_pixel_wide_gt():
    m = rle_encode(np.ones((4, 1), dtype=bool))
    track = Track(track_id=1, category_id=1, score=1.0, entries={0: TrackEntry(bbox=bbox_of_mask(m), mask=m)})
    return [VideoGroundTruth(video_id=1, height=4, width=1, length=1, gt_tracks=[track], category_set=[1])]


@pytest.mark.parametrize(
    "command,results,message",
    [
        ("eval", [[_result_record(1, {0}, (4, 4), vid=2)]], "predictions reference unknown video id 2"),
        ("eval", [[{**_result_record(1, {0}, (4, 4)), "category_id": 9}]], "video 1 track 1: predicted category 9 not in category set"),
        (
            "eval",
            [[_result_record(1, {0}, (4, 4), length=3)]],
            "{0}: results[0]: segmentations and bboxes must have video 1's length, 2",
        ),
        (
            "eval",
            [[_result_record(1, {0}, (4, 5))]],
            "{0}: results[0].segmentations[0]: mask size [4, 5] differs from [4, 4], the size of video 1",
        ),
        (
            "fuse",
            [[_result_record(1, {0}, (4, 4))], [_result_record(1, {0}, (4, 4), length=3)]],
            "{1}: results[0]: segmentations and bboxes must have video 1's length, 2",
        ),
        (
            "fuse",
            [[_result_record(1, {0}, (4, 4))], [_result_record(1, {0}, (5, 4))]],
            "{1}: results[0].segmentations[0]: mask size [5, 4] differs from [4, 4], the size of video 1",
        ),
        ("pseudopair", [], "video 1: images must be at least 2 pixels per side to crop"),
    ],
    ids=[
        "eval-unknown-video",
        "eval-unknown-category",
        "eval-length",
        "eval-mask-size",
        "fuse-length",
        "fuse-mask-size",
        "pseudopair-one-pixel-wide",
    ],
)
def test_input_files_that_disagree_exit_2(tmp_path, capsys, command, results, message):
    """A fault between input files is an input fault like one inside a
    file: exit 2 with the message naming it, and no output. ``{i}`` in a
    message is the path of the ``i``-th results file. Except for
    pseudopair's, the ground truth is tiny_gt's one 4x4 video of length 2."""
    gt = tmp_path / "gt.json"
    save_annotations(_one_pixel_wide_gt() if command == "pseudopair" else tiny_gt(), str(gt))
    inputs = []
    for i, records in enumerate(results):
        p = tmp_path / f"results_{i}.json"
        p.write_text(json.dumps(records))
        inputs.append(str(p))
    out = tmp_path / "out.json"
    argv = {
        "eval": ["eval", "--gt", str(gt), "--results", *inputs],
        "fuse": ["fuse", "--inputs", *inputs],
        "pseudopair": ["pseudopair", "--annotations", str(gt)],
    }[command]
    assert entrypoint(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(*inputs)}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# run config


def _sections():
    """(name, config class) of every RunConfig section."""
    return [(name, formats._section_class(name)) for name in formats._SECTIONS]


def test_run_config_defaults():
    cfg = load_run_config(None)
    assert cfg.association.match_threshold == 0.5
    assert cfg.fusion.score_rule is ScoreRule.MEAN
    assert [(name, cls.__name__) for name, cls in _sections()] == [
        ("association", "AssociationConfig"),
        ("crop", "CropConfig"),
        ("fusion", "FusionConfig"),
        ("synth", "SynthConfig"),
    ]
    for name, cls in _sections():
        assert getattr(cfg, name) == cls()
    with pytest.raises(AttributeError, match="tracking"):
        cfg.tracking


def test_run_config_overrides(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(
        json.dumps(
            {
                "association": {"match_threshold": 0.6},
                "fusion": {"score_rule": "max", "source_weights": [2, 1]},
                "synth": {"canvas": [48, 32]},
            }
        )
    )
    cfg = load_run_config(str(p))
    assert cfg.association.match_threshold == 0.6
    assert cfg.fusion.score_rule is ScoreRule.MAX
    assert cfg.fusion.source_weights == (2.0, 1.0)
    assert cfg.synth.canvas == (48, 32)


@pytest.mark.parametrize("section", ["tracking", "match_weights", "loss_weights", "eval"])
def test_run_config_unknown_section(tmp_path, capsys, section):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({section: {}}))
    with pytest.raises(ConfigError, match=section):
        load_run_config(str(p))
    assert entrypoint(["synth", "--config", str(p), "--out-dir", str(tmp_path / "corpus")]) == 3
    assert capsys.readouterr().err == f"error: {p}: config: unknown section '{section}'\n"


@pytest.mark.parametrize(
    "doc,where",
    [
        ([], "config"),
        (5, "config"),
        ("config", "config"),
        (None, "config"),
        (True, "config"),
        ({"association": 5}, "config.association"),
        ({"fusion": [1]}, "config.fusion"),
        ({"crop": "min_scale"}, "config.crop"),
        ({"synth": None}, "config.synth"),
        ({"association": False}, "config.association"),
    ],
    ids=[
        "array",
        "number",
        "string",
        "null",
        "bool",
        "number-section",
        "array-section",
        "string-section",
        "null-section",
        "bool-section",
    ],
)
def test_run_config_of_the_wrong_shape_exits_3(tmp_path, capsys, doc, where):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert entrypoint(["synth", "--config", str(p), "--out-dir", str(tmp_path / "corpus")]) == 3
    assert capsys.readouterr().err == f"error: {p}: {where}: expected a JSON object\n"


@pytest.mark.parametrize(
    "section,value,message",
    [
        ("association", {"match_threshold": 1.5}, "match_threshold must lie in [0, 1]"),
        ("crop", {"min_scale": 0}, "crop scales must satisfy 0 < min_scale <= max_scale <= 1"),
        ("fusion", {"merge_iou": 0}, "merge_iou must lie in (0, 1]"),
        ("synth", {"n_videos": 0}, "n_videos and frames_per_video must be positive"),
    ],
    ids=["association", "crop", "fusion", "synth"],
)
def test_config_value_fault_names_its_file_and_section(tmp_path, capsys, section, value, message):
    """A bad value in any section exits 3 with ``<path>: config.<section>:``
    in front of the invariant it broke, whichever command reads the file."""
    det, _ = _tiny_detections_doc(tmp_path)
    cfg, out = tmp_path / "cfg.json", tmp_path / "res.json"
    cfg.write_text(json.dumps({section: value}))
    assert entrypoint(["track", "--detections", str(det), "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {cfg}: config.{section}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("section,key", [("association", "thresh"), ("crop", "rng_seed")])
def test_run_config_unknown_field(tmp_path, section, key):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({section: {key: 0}}))
    with pytest.raises(ConfigError, match=rf"config\.{section}: unknown field '{key}'"):
        load_run_config(str(p))


def test_run_config_bad_enum(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"fusion": {"score_rule": "median"}}))
    with pytest.raises(ConfigError):
        load_run_config(str(p))


def test_run_config_bad_value(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"association": {"match_threshold": 2.0}}))
    with pytest.raises(ConfigError):
        load_run_config(str(p))


def test_run_config_cosine_similarity(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"association": {"similarity_kind": "cosine"}}))
    assert load_run_config(str(p)).association.similarity_kind is SimilarityKind.COSINE


def test_run_config_bad_similarity_kind(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"association": {"similarity_kind": "euclidean"}}))
    with pytest.raises(ConfigError, match="similarity_kind"):
        load_run_config(str(p))


def _config_fields(kind):
    """(config class, field) for every ``kind``-typed field of every RunConfig section."""
    return [
        (cls, f.name)
        for _, cls in _sections()
        for f in fields(cls)
        if get_type_hints(cls)[f.name] is kind
    ]


def test_float_fields_cover_every_section():
    found = {(cls.__name__, name) for cls, name in _config_fields(float)}
    assert len(found) == 11
    assert {("AssociationConfig", "match_threshold"), ("FusionConfig", "merge_iou"),
            ("CropConfig", "min_scale"), ("SynthConfig", "clutter_rate")} <= found


@pytest.mark.parametrize("cls,name", _config_fields(float))
@pytest.mark.parametrize("value", [True, False, "0.5", None, 0.5j, [0.5], float("nan"), float("inf"), -float("inf")])
def test_float_config_field_rejects_non_reals_and_non_finite(cls, name, value):
    with pytest.raises(ConfigError, match=name):
        cls(**{name: value})


@pytest.mark.parametrize("cls,name", _config_fields(float))
def test_float_config_field_takes_an_int_as_float(cls, name):
    value = 0 if name == "detector_dropout" else 1
    got = getattr(cls(**{name: value}), name)
    assert type(got) is float and got == value


def test_int_fields_cover_every_section():
    found = {(cls.__name__, name) for cls, name in _config_fields(int)}
    assert len(found) == 8
    assert {("AssociationConfig", "keep_top_n_per_frame"), ("FusionConfig", "max_output_tracks"),
            ("SynthConfig", "n_videos"), ("SynthConfig", "rng_seed")} <= found


@pytest.mark.parametrize("cls,name", _config_fields(int))
@pytest.mark.parametrize("value", [True, False, "2", None, 2.0, 2.5, 2j, [2], float("nan")])
def test_int_config_field_rejects_non_integers(cls, name, value):
    with pytest.raises(ConfigError, match=name):
        cls(**{name: value})


@pytest.mark.parametrize("cls,name", _config_fields(int))
def test_int_config_field_takes_a_numpy_integer_as_int(cls, name):
    got = getattr(cls(**{name: np.int64(2)}), name)
    assert type(got) is int and got == 2


def _json_forms():
    """(section, field, JSON value, expected loaded value) for every Enum-
    and tuple-typed field of every RunConfig section: each enum member,
    and each tuple default (or a one-element tuple where the default is None)."""
    cases = []
    for section, cls in _sections():
        hints = get_type_hints(cls)
        default = cls()
        for f in fields(cls):
            kinds = [hints[f.name], *typing.get_args(hints[f.name])]
            enums = [k for k in kinds if isinstance(k, type) and issubclass(k, enum.Enum)]
            tuples = [k for k in kinds if typing.get_origin(k) is tuple]
            if enums:
                cases += [(section, f.name, m.value, m) for m in enums[0]]
            elif tuples:
                value = getattr(default, f.name)
                if value is None:
                    value = (typing.get_args(tuples[0])[0](1),)
                cases.append((section, f.name, list(value), value))
    return cases


@pytest.mark.parametrize("section,key,raw,expected", _json_forms())
def test_run_config_enum_and_tuple_fields_load_from_json(tmp_path, section, key, raw, expected):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({section: {key: raw}}))
    loaded = getattr(getattr(load_run_config(str(p)), section), key)
    assert loaded == expected
    assert type(loaded) is type(expected)


def test_run_config_json_forms_cover_every_enum_and_tuple_field():
    keys = {(s, k) for s, k, _, _ in _json_forms()}
    assert {
        ("association", "similarity_kind"),
        ("fusion", "score_rule"),
        ("synth", "canvas"),
        ("fusion", "source_weights"),
    } <= keys


# ---------------------------------------------------------------------------
# command line


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    code = entrypoint(["synth", "--seed", "5", "--out-dir", str(d)])
    assert code == 0
    return d


def test_synth_writes_corpus(corpus_dir, tmp_path):
    for name in ("annotations.json", "detections.json", "identity.json"):
        assert (corpus_dir / name).exists()
    assert entrypoint(["synth", "--seed", "5", "--out-dir", str(tmp_path)]) == 0
    for name in ("annotations.json", "detections.json", "identity.json"):
        assert filecmp.cmp(corpus_dir / name, tmp_path / name, shallow=False)


def test_track_is_deterministic(corpus_dir, tmp_path):
    det = str(corpus_dir / "detections.json")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert entrypoint(["track", "--detections", det, "--out", str(a)]) == 0
    assert entrypoint(["track", "--detections", det, "--out", str(b)]) == 0
    assert filecmp.cmp(a, b, shallow=False)


def test_eval_and_table(corpus_dir, tmp_path, capsys):
    det = str(corpus_dir / "detections.json")
    res = tmp_path / "res.json"
    rep = tmp_path / "rep.json"
    assert entrypoint(["track", "--detections", det, "--out", str(res)]) == 0
    code = entrypoint(
        ["eval", "--gt", str(corpus_dir / "annotations.json"), "--results", str(res), "--out", str(rep), "--table"]
    )
    assert code == 0
    doc = json.loads(rep.read_text())
    assert doc["overall"]["ap"] >= 0.99
    out = capsys.readouterr().out
    assert "AP50" in out and "overall" in out


def test_fuse_merges_duplicates(corpus_dir, tmp_path):
    det = str(corpus_dir / "detections.json")
    res = tmp_path / "res.json"
    fused = tmp_path / "fused.json"
    assert entrypoint(["track", "--detections", det, "--out", str(res)]) == 0
    assert entrypoint(["fuse", "--inputs", str(res), str(res), "--out", str(fused)]) == 0
    single = load_results(str(res))
    merged = load_results(str(fused))
    assert sorted(merged) == sorted(single)
    for vid in single:
        assert len(merged[vid]) == len(single[vid])


# sha256 of track's output at the default config and at match_threshold
# 0.7, and of fusing the two, on one seeded 200-frame video with clutter
# 2.0. Embedding noise 0.3, because at the default noise both thresholds
# give the same bytes. Recorded from the full-sort assignment, the
# slot-by-slot writer and the all-pairs fusion that these replaced.
LONG_VIDEO_SYNTH = {"n_videos": 1, "frames_per_video": 200, "clutter_rate": 2.0, "embedding_noise_sigma": 0.3}
LONG_VIDEO_GOLDEN = {
    "results.json": "28854e302643a150615bfb54d1b4f13c0afb4f99137a400d49c7d19cca635a75",
    "results_alt.json": "91962f1183e4035d43aa25c5703bbb14f0be48cb4c902dbfce9c9a7176c93bf6",
    "fused.json": "4100c8b6b31608a68933ccdc833bec2cebb5386534ab9c8464775733b61900c4",
}


def test_long_video_track_and_fuse_golden_bytes(tmp_path):
    synth_cfg, alt_cfg = tmp_path / "synth.json", tmp_path / "alt.json"
    synth_cfg.write_text(json.dumps({"synth": LONG_VIDEO_SYNTH}))
    alt_cfg.write_text(json.dumps({"association": {"match_threshold": 0.7}}))
    det, res, alt, fused = (str(tmp_path / n) for n in ("detections.json", *LONG_VIDEO_GOLDEN))
    assert entrypoint(["synth", "--config", str(synth_cfg), "--seed", "5", "--out-dir", str(tmp_path)]) == 0
    assert entrypoint(["track", "--detections", det, "--out", res]) == 0
    assert entrypoint(["track", "--detections", det, "--config", str(alt_cfg), "--out", alt]) == 0
    assert entrypoint(["fuse", "--inputs", res, alt, "--out", fused]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in LONG_VIDEO_GOLDEN}
    assert digests == LONG_VIDEO_GOLDEN


def test_pseudopair_deterministic(corpus_dir, tmp_path):
    ann = str(corpus_dir / "annotations.json")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert entrypoint(["pseudopair", "--annotations", ann, "--seed", "9", "--out", str(a)]) == 0
    assert entrypoint(["pseudopair", "--annotations", ann, "--seed", "9", "--out", str(b)]) == 0
    assert filecmp.cmp(a, b, shallow=False)
    doc = json.loads(a.read_text())
    assert doc and all("view_a" in s and "view_b" in s for s in doc)


def test_pseudopair_draws_no_dense_mask(corpus_dir, tmp_path, monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("pseudopair used a dense mask")

    for name in ("rle_encode", "rle_decode"):
        monkeypatch.setattr(core, name, dense)
        assert not hasattr(pseudo_pair, name)
    ann = str(corpus_dir / "annotations.json")
    assert entrypoint(["pseudopair", "--annotations", ann, "--out", str(tmp_path / "pairs.json")]) == 0


# sha256 of pairs.json at three (synth config, crop config, pseudopair
# --seed) settings, on corpora from `synth --seed 5`. The first two were
# recorded from the decode-slice-encode crop that the run-based one
# replaced; "no-seed" passes no --seed and expects the bytes of `--seed 0`.
PAIRS_GOLDEN = {
    "default": (None, None, 9, "03c0e14c5be1742baa96c1bf30a715875e94ff37a9d1e2162418887d9d3ef3c8"),
    "no-seed": (None, None, None, "3aaa53b1ba9e3926a7238dc0897e8e0c8a1e221abb93fbc6c182b256c4b86d5b"),
    "small-crops-64x128": (
        {"canvas": [64, 128], "detector_dropout": 0.2},
        {"min_scale": 0.1, "max_scale": 0.5, "visibility_threshold": 0.05},
        4,
        "012c2ca9995116ef23986e615e2c83ba8dd672fb80992a9239fc3ce05626b3e6",
    ),
}


@pytest.mark.parametrize("name", sorted(PAIRS_GOLDEN))
def test_pseudopair_golden_bytes(tmp_path, name):
    synth_cfg, crop_cfg, seed, digest = PAIRS_GOLDEN[name]
    argv = ["synth", "--seed", "5", "--out-dir", str(tmp_path)]
    if synth_cfg is not None:
        (tmp_path / "synth.json").write_text(json.dumps({"synth": synth_cfg}))
        argv += ["--config", str(tmp_path / "synth.json")]
    assert entrypoint(argv) == 0
    argv = ["pseudopair", "--annotations", str(tmp_path / "annotations.json")]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if crop_cfg is not None:
        (tmp_path / "crop.json").write_text(json.dumps({"crop": crop_cfg}))
        argv += ["--config", str(tmp_path / "crop.json")]
    assert entrypoint(argv + ["--out", str(tmp_path / "pairs.json")]) == 0
    assert hashlib.sha256((tmp_path / "pairs.json").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("value", ["2.5", "2.0", "nan", "2j", "True", "None", "", "two", "[2]"])
def test_pseudopair_seed_rejects_non_integers(corpus_dir, tmp_path, capsys, value):
    """--seed is the only way to seed pseudopair, so it takes integers alone."""
    ann = str(corpus_dir / "annotations.json")
    out = tmp_path / "pairs.json"
    with pytest.raises(SystemExit) as exc:
        entrypoint(["pseudopair", "--annotations", ann, "--seed", value, "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --seed: invalid int value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 - 1])
def test_synth_seed_out_of_range_exits_3(tmp_path, capsys, seed):
    """Video v of the 10 default videos is seeded with --seed + v, so
    2**64 - 1 is out of range as well."""
    out = tmp_path / "corpus"
    assert entrypoint(["synth", "--seed", str(seed), "--out-dir", str(out)]) == 3
    assert f"got {seed}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 - 1])
def test_pseudopair_seed_lies_in_64_bits(corpus_dir, tmp_path, capsys, seed):
    ann = str(corpus_dir / "annotations.json")
    out = tmp_path / "pairs.json"
    code = entrypoint(["pseudopair", "--annotations", ann, "--seed", str(seed), "--out", str(out)])
    if seed == 2**64 - 1:
        assert code == 0 and out.exists()
    else:
        assert code == 3
        assert f"--seed must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 - 1])
def test_losscheck_seed_lies_in_64_bits(capsys, seed):
    code = entrypoint(["losscheck", "--samples", "3", "--seed", str(seed)])
    out, err = capsys.readouterr()
    if seed == 2**64 - 1:
        assert code == 0 and "PASS" in out
    else:
        assert code == 3
        assert f"--seed must lie in [0, 2**64), got {seed}" in err
        assert "PASS" not in out


def test_eval_takes_no_config(corpus_dir, results_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    argv = ["eval", "--gt", str(corpus_dir / "annotations.json"), "--results", str(results_file)]
    with pytest.raises(SystemExit) as exc:
        entrypoint(argv + ["--config", str(cfg), "--out", str(tmp_path / "report.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_losscheck_passes(capsys):
    assert entrypoint(["losscheck", "--samples", "10", "--seed", "3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_losscheck_prints_the_recorded_errors(capsys):
    """The default seed's report, recorded while the finite differences
    still ran one element at a time."""
    assert entrypoint(["losscheck", "--samples", "100"]) == 0
    assert capsys.readouterr().out == (
        "max relative error: 7.588e-08 (bound 1e-04)\n"
        "max absolute error near zero: 1.781e-10 (bound 1e-07)\n"
        "PASS\n"
    )


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_losscheck_without_samples_exits_3(capsys, samples):
    """A check of no instances proves nothing, so it must not print PASS."""
    assert entrypoint(["losscheck", "--samples", samples]) == 3
    out = capsys.readouterr()
    assert "--samples" in out.err
    assert "PASS" not in out.out


def test_exit_code_missing_file(tmp_path, capsys):
    code = entrypoint(["track", "--detections", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_output_in_a_missing_directory_exits_1_naming_the_path(tmp_path, capsys):
    synth = tmp_path / "corpus"
    assert entrypoint(["synth", "--seed", "1", "--out-dir", str(synth)]) == 0
    out = tmp_path / "missing" / "o.json"
    assert entrypoint(["track", "--detections", str(synth / "detections.json"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.endswith(f"No such file or directory: '{out}'\n")


def test_exit_code_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code = entrypoint(["track", "--detections", str(p), "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert "line" in capsys.readouterr().err


def test_exit_code_bad_rle(corpus_dir, tmp_path, capsys):
    doc = json.loads((corpus_dir / "detections.json").read_text())
    seg = doc["videos"][0]["frames"][0]["detections"][0]["segmentation"]
    seg["counts"] = [seg["counts"][0] + 1] + list(seg["counts"][1:])
    p = tmp_path / "det.json"
    p.write_text(json.dumps(doc))
    code = entrypoint(["track", "--detections", str(p), "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert "sum" in capsys.readouterr().err


_DETECTION = "videos[0].frames[0].detections[0]"


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("counts", True, "expected an integer"),
        ("counts", 1.5, "expected an integer"),
        ("embedding", "x", "expected a number"),
        ("embedding", True, "expected a number"),
        ("embedding", float("nan"), "value must be finite"),
    ],
)
def test_exit_code_bad_array_element(corpus_dir, tmp_path, capsys, key, value, message):
    doc = json.loads((corpus_dir / "detections.json").read_text())
    det = doc["videos"][0]["frames"][0]["detections"][0]
    (det["segmentation"] if key == "counts" else det)[key][1] = value
    p = tmp_path / "det.json"
    p.write_text(json.dumps(doc))
    code = entrypoint(["track", "--detections", str(p), "--out", str(tmp_path / "o.json")])
    assert code == 2
    where = f"{_DETECTION}.segmentation" if key == "counts" else _DETECTION
    assert capsys.readouterr().err == f"error: {where}: {key}: {message}\n"


def test_exit_code_embedding_beyond_float_range(corpus_dir, tmp_path, capsys):
    doc = json.loads((corpus_dir / "detections.json").read_text())
    doc["videos"][0]["frames"][0]["detections"][0]["embedding"][0] = 10**400
    p = tmp_path / "det.json"
    p.write_text(json.dumps(doc))
    code = entrypoint(["track", "--detections", str(p), "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {_DETECTION}: embedding: value must be finite\n"


_IN_DETECTION = ["videos", 0, "frames", 0, "detections", 0]


@pytest.mark.parametrize(
    "command,keys,value,message",
    [
        ("track", [*_IN_DETECTION, "bbox", 1], "2", f"{_DETECTION}: bbox: expected a number"),
        ("track", [*_IN_DETECTION, "bbox", 2], -1.0, f"{_DETECTION}: bbox: sides must be non-negative"),
        ("track", [*_IN_DETECTION, "segmentation", "size", 0], 4.5,
         f"{_DETECTION}.segmentation: size: expected an integer"),
        ("track", [*_IN_DETECTION, "segmentation", "counts", 1], "3",
         f"{_DETECTION}.segmentation: counts: expected an integer"),
        ("track", [*_IN_DETECTION, "score"], "0.9", f"{_DETECTION}: score: expected a number"),
        ("track", [*_IN_DETECTION, "category_id"], 1.0, f"{_DETECTION}: category_id: expected an integer"),
        ("track", [*_IN_DETECTION, "class_probs", 0], None, f"{_DETECTION}: class_probs: expected a number"),
        ("track", [*_IN_DETECTION, "embedding", 0], [0.5], f"{_DETECTION}: embedding: expected a number"),
        ("track", ["videos", 0, "frames", 0, "frame_index"], 0.0, "videos[0].frames[0]: frame_index: expected an integer"),
        ("fuse", [0, "score"], float("inf"), "{path}: results[0]: track score: value must be finite"),
    ],
    ids=["bbox", "bbox-sides", "size", "counts", "score", "category_id", "class_probs", "embedding", "frame_index", "results-score"],
)
def test_bad_value_names_path_field_and_invariant(corpus_dir, results_file, tmp_path, capsys, command, keys, value, message):
    """A malformed number, checked by the domain type that holds it,
    exits 2 with ``error: <JSON path>: <field>: <invariant>``, after the
    file's path for a results file."""
    flag, source = ("--detections", corpus_dir / "detections.json") if command == "track" else ("--inputs", results_file)
    doc = json.loads(source.read_text())
    *parents, last = keys
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    p = tmp_path / "in.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert entrypoint([command, flag, str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=p)}\n"
    assert not out.exists()


_RLE_FAULTS = {
    "sum": (lambda size, counts: (size, [counts[0] + 1, *counts[1:]]), "counts must sum to height*width"),
    "negative": (lambda size, counts: (size, [-1, size[0] * size[1] + 1]), "counts must be non-negative"),
    "internal-zero": (
        lambda size, counts: (size, [size[0] * size[1], 0]),
        "counts must have no internal zero entries except the first",
    ),
    "size": (lambda size, counts: ([0, size[1]], counts), "mask dimensions must be positive"),
}


@pytest.mark.parametrize("fault", list(_RLE_FAULTS))
@pytest.mark.parametrize("kind", ["detections", "annotations", "results"])
def test_bad_rle_names_path_and_invariant(corpus_dir, results_file, tmp_path, capsys, kind, fault):
    """Each loader turns an RleMask fault into exit 2 with
    ``error: <JSON path>: <invariant>``, after the file's path for a
    results file, and writes nothing."""
    source = {"detections": corpus_dir / "detections.json", "annotations": corpus_dir / "annotations.json"}
    doc = json.loads(source.get(kind, results_file).read_text())
    if kind == "detections":
        seg, where = doc["videos"][0]["frames"][0]["detections"][0]["segmentation"], f"{_DETECTION}.segmentation"
    else:
        segs = (doc["annotations"] if kind == "annotations" else doc)[0]["segmentations"]
        f = next(i for i, seg in enumerate(segs) if seg is not None)
        seg, where = segs[f], f"{kind}[0].segmentations[{f}]"
    p = tmp_path / "in.json"
    if kind == "results":
        where = f"{p}: {where}"
    mutate, message = _RLE_FAULTS[fault]
    seg["size"], seg["counts"] = mutate(seg["size"], seg["counts"])
    p.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    argv = {
        "detections": ["track", "--detections", str(p)],
        "annotations": ["eval", "--gt", str(p), "--results", str(results_file)],
        "results": ["fuse", "--inputs", str(p)],
    }[kind]
    assert entrypoint(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {where}: {message}\n"
    assert not out.exists()


def _full_mask(h: int, w: int) -> dict:
    return {"size": [h, w], "counts": [0, h * w]}


def _detection_doc(sizes: list, declared: dict) -> dict:
    """A one-video detections file: one detection per frame, with a full
    mask of each ``sizes`` entry ([h, w], or None for no mask)."""
    det = {"bbox": [0, 0, 1, 1], "score": 0.9, "category_id": 1, "class_probs": [0.9], "embedding": [1.0, 0.0]}
    frames = [
        {"frame_index": f, "detections": [{**det, "segmentation": None if size is None else _full_mask(*size)}]}
        for f, size in enumerate(sizes)
    ]
    return {"embedding_dim": 2, "videos": [{"video_id": 1, **declared, "frames": frames}]}


def _annotations_doc(**video) -> dict:
    """A 4x4, 2-frame video with one annotation of a full mask at frame 0."""
    return {
        "videos": [{"id": 1, "width": 4, "height": 4, "length": 2, **video}],
        "annotations": [
            {"id": 1, "video_id": 1, "category_id": 1, "segmentations": [_full_mask(4, 4), None], "bboxes": [None, None]}
        ],
        "categories": [{"id": 1, "name": "thing"}],
    }


def _results_doc(*sizes) -> list:
    """One record per ``sizes`` entry in a 2-frame video 1, each with a
    full mask of that size at frame 0."""
    return [
        {"video_id": 1, "id": i, "category_id": 1, "score": 0.5, "segmentations": [_full_mask(*size), None],
         "bboxes": [None, None]}
        for i, size in enumerate(sizes, 1)
    ]


def _annotation_faults():
    wide = _annotations_doc()
    wide["annotations"][0]["segmentations"][0] = _full_mask(4, 8)
    twice = _annotations_doc()
    twice["annotations"].append(dict(twice["annotations"][0]))
    return {
        "width-0": (_annotations_doc(width=0), "videos[0].width: must be at least 1, got 0"),
        "length--1": (_annotations_doc(length=-1), "videos[0].length: must be at least 1, got -1"),
        "duplicate-id": (twice, "annotations[1]: duplicate track id 1 for video 1"),
        "mask-size": (wide, "annotations[0].segmentations[0]: mask size [4, 8] differs from [4, 4], the size of video 1"),
    }


_MIXED = "videos[0].frames[1].detections[0].segmentation: mask size [8, 8] differs from [4, 4], the size of video 1"
_GEOMETRY_FAULTS = {
    "track-mixed": ("track", _detection_doc([[4, 4], [8, 8]], {}), _MIXED),
    "track-mixed-width-declared": ("track", _detection_doc([[4, 4], [8, 4]], {"width": 4}),
                                   _MIXED.replace("[8, 8]", "[8, 4]")),
    "track-declared": ("track", _detection_doc([[8, 8]], {"height": 4, "width": 4}),
                       _MIXED.replace("frames[1]", "frames[0]")),
    **{f"eval-{name}": ("eval", doc, message) for name, (doc, message) in _annotation_faults().items()},
    **{f"pseudopair-{name}": ("pseudopair", doc, message) for name, (doc, message) in _annotation_faults().items()},
    "fuse-mask-size": ("fuse", _results_doc([4, 4], [8, 8]),
                       "{path}: results[1].segmentations[0]: mask size [8, 8] differs from [4, 4], the size of video 1"),
    "fuse-length": ("fuse", [*_results_doc([4, 4]), dict(_results_doc([4, 4])[0], id=2, bboxes=[None, None, None])],
                    "{path}: results[1]: segmentations and bboxes must have video 1's length, 2"),
}


@pytest.mark.parametrize("name", list(_GEOMETRY_FAULTS))
def test_geometry_fault_names_its_json_path(tmp_path, capsys, name):
    """A video's geometry is checked by one rule in every loader: a
    declared size, length or track id that breaks it, or a mask whose
    size differs from the video's, exits 2 with
    ``error: <JSON path>: ...`` and writes nothing."""
    command, doc, message = _GEOMETRY_FAULTS[name]
    p = tmp_path / "in.json"
    p.write_text(json.dumps(doc))
    results = tmp_path / "results.json"
    results.write_text(json.dumps(_results_doc([4, 4])))
    out = tmp_path / "out.json"
    argv = {
        "track": ["track", "--detections", str(p)],
        "eval": ["eval", "--gt", str(p), "--results", str(results)],
        "pseudopair": ["pseudopair", "--annotations", str(p)],
        "fuse": ["fuse", "--inputs", str(results), str(p)],
    }[command]
    assert entrypoint(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=p)}\n"
    assert not out.exists()


def test_fuse_names_the_input_that_is_bad(tmp_path, capsys, results_file):
    p = tmp_path / "bad.json"
    p.write_text("[1]")
    out = tmp_path / "out.json"
    assert entrypoint(["fuse", "--inputs", str(results_file), str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {p}: results[0]: expected a JSON object\n"
    assert not out.exists()


_SIDES = st.sampled_from([4, 8])


@given(
    sizes=st.lists(st.one_of(st.none(), st.tuples(_SIDES, _SIDES)), min_size=1, max_size=4),
    declared=st.fixed_dictionaries({}, optional={"height": _SIDES, "width": _SIDES}),
)
@settings(max_examples=60, deadline=None)
def test_detections_that_track_accepts_give_results_that_eval_and_fuse_accept(tmp_path_factory, sizes, declared):
    """Mask sizes vary per detection, and the file declares neither, one
    or both sides: whatever ``track`` accepts, ``eval`` and ``fuse``
    accept its results."""
    d = tmp_path_factory.mktemp("geometry")
    det, res = d / "detections.json", d / "results.json"
    det.write_text(json.dumps(_detection_doc(sizes, declared)))
    code = entrypoint(["track", "--detections", str(det), "--out", str(res)])
    if code != 0:
        assert code == 2 and not res.exists()
        return
    masks = [size for size in sizes if size is not None]
    height, width = (declared.get(key, masks[0][i] if masks else 4) for i, key in enumerate(("height", "width")))
    gt = d / "annotations.json"
    gt.write_text(json.dumps({
        "videos": [{"id": 1, "width": width, "height": height, "length": len(sizes)}],
        "annotations": [],
        "categories": [{"id": 1, "name": "thing"}],
    }))
    assert entrypoint(["eval", "--gt", str(gt), "--results", str(res), "--out", str(d / "report.json")]) == 0
    assert entrypoint(["fuse", "--inputs", str(res), str(res), "--out", str(d / "fused.json")]) == 0


def _modules_after(code: str) -> set[str]:
    """The names in ``sys.modules`` after a fresh interpreter on the
    checkout's src runs ``code``."""
    src = Path(vistrack.__file__).resolve().parents[1]
    probe = f"import sys\n{code}\nprint(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return set(run.stdout.splitlines()[-1].split())


def _run_cli(argv: list[str]) -> str:
    return f"from vistrack.cli import entrypoint\nassert entrypoint({argv!r}) == 0"


def test_every_command_runs_without_scipy(tmp_path):
    """With scipy made unimportable, every command still exits 0: an
    import of it would raise ImportError and fail the child."""
    d = tmp_path / "corpus"
    ann, res, out = str(d / "annotations.json"), str(tmp_path / "res.json"), str(tmp_path / "out.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"n_videos": 1, "frames_per_video": 4}}))
    commands = [
        ["synth", "--config", str(cfg), "--out-dir", str(d)],
        ["track", "--detections", str(d / "detections.json"), "--out", res],
        ["eval", "--gt", ann, "--results", res, "--out", out],
        ["fuse", "--inputs", res, res, "--out", out],
        ["pseudopair", "--annotations", ann, "--out", out],
        ["losscheck", "--samples", "2"],
    ]
    code = "sys.modules['scipy'] = None\n" + "\n".join(_run_cli(argv) for argv in commands)
    assert "scipy" in _modules_after(code)  # the blocking None entry, never replaced by the package


@pytest.mark.parametrize(
    "case",
    ["import vistrack", "import vistrack.cli", "--help", "fuse", "pseudopair", "eval", "track", "synth", "losscheck"],
)
def test_numpy_is_loaded_only_by_commands_that_use_it(corpus_dir, results_file, tmp_path, case):
    """fuse, pseudopair and eval work on the runs and plain floats and
    never load numpy; track, synth and losscheck, whose math is on
    arrays, show that the probe can see it. Each command loads only the
    vistrack modules it runs: ``import vistrack`` none, ``--help`` the
    CLI and the errors it maps to exit codes."""
    ann = str(corpus_dir / "annotations.json")
    out = str(tmp_path / "out.json")
    code = {
        "import vistrack": "import vistrack",
        "import vistrack.cli": "import vistrack.cli",
        "--help": "from vistrack.cli import entrypoint\ntry:\n    entrypoint(['--help'])\n"
        "except SystemExit as e:\n    assert e.code == 0",
        "fuse": _run_cli(["fuse", "--inputs", str(results_file), str(results_file), "--out", out]),
        "pseudopair": _run_cli(["pseudopair", "--annotations", ann, "--out", out]),
        "eval": _run_cli(["eval", "--gt", ann, "--results", str(results_file), "--out", out]),
        "track": _run_cli(["track", "--detections", str(corpus_dir / "detections.json"), "--out", out]),
        "synth": _run_cli(["synth", "--out-dir", str(tmp_path / "corpus")]),
        "losscheck": _run_cli(["losscheck", "--samples", "1"]),
    }[case]
    base = {"vistrack", "vistrack.cli", "vistrack.errors"}
    io = base | {"vistrack._numpy", "vistrack.core", "vistrack.formats"}
    expected = {
        "import vistrack": {"vistrack"},
        "import vistrack.cli": base,
        "--help": base,
        "fuse": io | {"vistrack.evaluation", "vistrack.fusion"},
        "pseudopair": io | {"vistrack.pseudo_pair", "vistrack.rng"},
        "eval": io | {"vistrack.evaluation"},
        "track": io | {"vistrack.association"},
        "synth": io | {"vistrack.rng", "vistrack.synth"},
        "losscheck": base | {"vistrack._numpy", "vistrack.core", "vistrack.rng", "vistrack.contrastive"},
    }[case]
    modules = _modules_after(code)
    assert {m for m in modules if m.split(".")[0] == "vistrack"} == expected
    assert ("numpy" in modules) == (case in ("track", "synth", "losscheck"))


def test_public_names_resolve_lazily_to_their_defining_modules():
    """Each name in ``vistrack.__all__`` is imported from its module on
    first use, is that module's object, and ``dir`` lists it; an unknown
    name raises AttributeError, in ``vistrack`` and in ``vistrack.cli``."""
    assert len(vistrack.__all__) == 46
    for name in vistrack.__all__:
        value = getattr(vistrack, name)
        module = importlib.import_module(f"vistrack.{vistrack._MODULE_OF[name]}")
        assert value is getattr(module, name)
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__
    assert set(vistrack.__all__) <= set(dir(vistrack))
    # a submodule is an attribute of the package before anything imports it
    assert "vistrack.fusion" in _modules_after("import vistrack\nassert vistrack.fusion.fuse_tracks")
    with pytest.raises(AttributeError, match="no_such_name"):
        vistrack.no_such_name
    with pytest.raises(ImportError):
        from vistrack import no_such_name  # noqa: F401
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


@pytest.mark.parametrize(
    "stage, module, command",
    [
        ("generate_videos", "synth", "synth"),
        ("track_video", "association", "track"),
        ("evaluate", "evaluation", "eval"),
        ("fuse_tracks", "fusion", "fuse"),
        ("make_pair", "pseudo_pair", "pseudopair"),
        ("gradient_check_suite", "contrastive", "losscheck"),
    ],
)
def test_each_command_calls_its_stage_through_the_cli_module(
    corpus_dir, results_file, tmp_path, monkeypatch, stage, module, command
):
    """Each stage is an attribute of ``vistrack.cli``, its defining
    module's function, and the command looks it up there when it runs:
    perfbench/layers.py times the stages by wrapping these attributes."""
    fn = getattr(cli, stage)
    assert fn is getattr(importlib.import_module(f"vistrack.{module}"), stage)
    calls = []

    def counted(*args, **kwargs):
        calls.append(stage)
        return fn(*args, **kwargs)

    monkeypatch.setattr(cli, stage, counted)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"n_videos": 1, "frames_per_video": 2}}))
    ann, out = str(corpus_dir / "annotations.json"), str(tmp_path / "out.json")
    argv = {
        "synth": ["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "corpus")],
        "track": ["track", "--detections", str(corpus_dir / "detections.json"), "--out", out],
        "eval": ["eval", "--gt", ann, "--results", str(results_file), "--out", out],
        "fuse": ["fuse", "--inputs", str(results_file), "--out", out],
        "pseudopair": ["pseudopair", "--annotations", ann, "--out", out],
        "losscheck": ["losscheck", "--samples", "1"],
    }[command]
    assert entrypoint(argv) == 0
    assert calls


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_entrypoint_starts_openblas_single_threaded_unless_the_user_says(preset, expected):
    """A fresh interpreter has no numpy when entrypoint starts, so the
    variable is in place before OpenBLAS reads it."""
    src = Path(vistrack.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(src)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = (
        "import os, sys\n"
        "from vistrack.cli import entrypoint\n"
        "assert 'numpy' not in sys.modules\n"
        "assert entrypoint(['losscheck', '--samples', '1']) == 0\n"
        "assert 'numpy' in sys.modules\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])"
    )
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == expected


def test_exit_code_bad_config(corpus_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"association": {"match_threshold": -3}}))
    code = entrypoint(
        [
            "track",
            "--detections",
            str(corpus_dir / "detections.json"),
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "o.json"),
        ]
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind,code", [("cosine", 0), ("bisoftmax", 0), ("euclidean", 3)])
def test_track_similarity_kind_from_config(corpus_dir, tmp_path, capsys, kind, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"association": {"similarity_kind": kind}}))
    argv = ["track", "--detections", str(corpus_dir / "detections.json"), "--config", str(cfg)]
    assert entrypoint(argv + ["--out", str(tmp_path / "o.json")]) == code
    if code:
        assert "similarity_kind" in capsys.readouterr().err


@pytest.fixture(scope="module")
def results_file(corpus_dir, tmp_path_factory):
    res = tmp_path_factory.mktemp("results") / "results.json"
    assert entrypoint(["track", "--detections", str(corpus_dir / "detections.json"), "--out", str(res)]) == 0
    return res


@pytest.mark.parametrize(
    "command,config,field",
    [
        ("track", {"association": {"keep_top_n_per_frame": 2.5}}, "keep_top_n_per_frame"),
        ("fuse", {"fusion": {"max_output_tracks": 2.5}}, "max_output_tracks"),
        ("synth", {"synth": {"n_videos": 2.5}}, "n_videos"),
        ("synth", {"synth": {"canvas": [96.7, 96]}}, "canvas"),
        ("track", {"association": {"match_threshold": True}}, "match_threshold"),
        ("track", {"association": {"match_threshold": "0.5"}}, "match_threshold"),
        ("fuse", {"fusion": {"merge_iou": True}}, "merge_iou"),
        ("synth", {"synth": {"clutter_rate": "1"}}, "clutter_rate"),
        ("pseudopair", {"crop": {"min_scale": True}}, "min_scale"),
        ("synth", {"synth": {"embedding_noise_sigma": float("nan")}}, "embedding_noise_sigma"),
        ("fuse", {"fusion": {"source_weights": [float("nan"), 1.0]}}, "source_weights"),
        ("fuse", {"fusion": {"source_weights": [float("inf"), 1.0]}}, "source_weights"),
        ("fuse", {"fusion": {"source_weights": 1.0}}, "source_weights"),
        ("synth", {"synth": {"canvas": 96}}, "canvas"),
    ],
)
def test_config_value_of_wrong_type_exits_3(corpus_dir, results_file, tmp_path, capsys, command, config, field):
    """Non-integers in integer fields and strings in float fields are
    rejected by the config dataclass, not truncated, converted or left to
    crash later."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    ann = str(corpus_dir / "annotations.json")
    argv = {
        "track": ["track", "--detections", str(corpus_dir / "detections.json")],
        "fuse": ["fuse", "--inputs", str(results_file)],
        "pseudopair": ["pseudopair", "--annotations", ann],
        "synth": ["synth", "--out-dir", str(tmp_path / "corpus")],
    }[command]
    if command != "synth":
        argv += ["--out", str(tmp_path / "out.json")]
    assert entrypoint(argv + ["--config", str(cfg)]) == 3
    assert field in capsys.readouterr().err
    ((section, values),) = config.items()
    cls = formats._section_class(section)
    with pytest.raises(ConfigError, match=field):
        cls(**values)

