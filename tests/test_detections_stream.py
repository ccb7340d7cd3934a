"""The detections reader one frame at a time: the file as written at
every window size, memory that follows one video, and the first fault in
file order through ``track``."""

import json
import os
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings

from helpers import mutated_texts, read_at_windows
from vistrack import SchemaError, formats
from vistrack.cli import entrypoint
from vistrack.core import BBox, Detection, FrameDetections, VideoMeta
from vistrack.errors import ToolkitError
from vistrack.formats import DetectionsFile, load_detections, read_detections, save_detections
from vistrack.synth import SynthConfig, generate_videos

WINDOWS = [1, 2, 3, 7, 64, 4096]


def q(x):
    """A float as written: rounded to 6 significant digits."""
    return float(f"{x:.6g}")


def as_written(d):
    b = d.bbox
    return Detection(
        bbox=BBox(q(b.x), q(b.y), q(b.w), q(b.h)),
        score=q(d.score),
        category_id=d.category_id,
        class_probs=tuple(map(q, d.class_probs)),
        embedding=tuple(map(q, d.embedding)),
        mask=d.mask,
    )


# ---------------------------------------------------------------------------
# the file as written, at every window size


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    """Four videos with clutter, one of them without declared geometry,
    and the file they make by definition: the generated frames with every
    float rounded to 6 significant digits, and the undeclared video one
    frame longer than its last frame."""
    p = tmp_path_factory.mktemp("det") / "detections.json"
    cfg = SynthConfig(n_videos=4, frames_per_video=12, objects_per_video=3, clutter_rate=1.0, rng_seed=5)
    videos = [
        (g.video_id, frames, None if g.video_id == 2 else VideoMeta(g.length, g.height, g.width))
        for g, frames, _ in generate_videos(cfg)
    ]
    save_detections(videos, str(p), embedding_dim=cfg.embedding_dim)
    expected = DetectionsFile(embedding_dim=cfg.embedding_dim)
    for vid, frames, meta in videos:
        expected.videos[vid] = [FrameDetections(fr.frame_index, list(map(as_written, fr.detections))) for fr in frames]
        expected.metas[vid] = meta or VideoMeta(length=frames[-1].frame_index + 1)
    return p, expected


@pytest.mark.parametrize("window", WINDOWS + [None])
def test_detections_load_the_same_at_every_window(corpus_file, window):
    path, expected = corpus_file
    assert len(expected.videos) == 4 and expected.metas[2] == VideoMeta(length=12)
    assert sum(d.mask is not None for frames in expected.videos.values() for fr in frames for d in fr.detections) > 50
    with mock.patch.object(formats, "_READ_WINDOW", window or formats._READ_WINDOW):
        assert load_detections(str(path)) == expected


def test_any_key_order_streams(tmp_path, corpus_file):
    """Declared sides before the frames, the video id first: the same
    file, still one frame at a time."""
    path, expected = corpus_file
    doc = json.loads(path.read_text())
    doc["videos"] = [dict(sorted(v.items(), reverse=True)) for v in doc["videos"]]
    p = tmp_path / "det.json"
    p.write_text(json.dumps(doc))
    assert list(doc["videos"][0]) == ["width", "video_id", "length", "height", "frames"]
    assert load_detections(str(p)) == expected


def test_read_detections_hands_on_each_video_once_it_closes(corpus_file):
    path, expected = corpus_file
    seen = []
    dim, metas, values = read_detections(str(path), lambda frames, meta: seen.append((frames, meta)) or len(frames))
    assert dim == expected.embedding_dim and metas == expected.metas
    assert seen == [(expected.videos[vid], expected.metas[vid]) for vid in expected.videos]
    assert values == {vid: len(frames) for vid, frames in expected.videos.items()}


# ---------------------------------------------------------------------------
# memory


def test_read_detections_memory_follows_a_video(tmp_path):
    """40 videos of 10 frames, ~3.6 MB, read with a 4 KiB window while
    each video's frames are dropped once handed on: the reader holds one
    video and the text of about one frame, not the parsed file."""
    p = tmp_path / "det.json"
    cfg = SynthConfig(n_videos=40, frames_per_video=10, clutter_rate=1.0, rng_seed=2)
    videos = ((g.video_id, frames, VideoMeta(g.length, g.height, g.width)) for g, frames, _ in generate_videos(cfg))
    save_detections(videos, str(p), embedding_dim=cfg.embedding_dim)
    size = p.stat().st_size
    with mock.patch.object(formats, "_READ_WINDOW", 4096):
        tracemalloc.start()
        try:
            dim, metas, _ = read_detections(str(p), lambda frames, meta: None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert len(metas) == 40 and dim == 8
    assert size > 3_000_000
    assert peak < size / 10, (peak, size)


# ---------------------------------------------------------------------------
# faults, the first in file order

DET = {
    "bbox": [0, 0, 1, 1],
    "score": 0.5,
    "category_id": 1,
    "class_probs": [0.5],
    "embedding": [1.0, 0.0],
    "segmentation": {"size": [4, 4], "counts": [16]},
}


def video(vid, frames=2, **declared):
    return {"video_id": vid, "frames": [{"frame_index": f, "detections": [DET]} for f in range(frames)], **declared}


def text(obj):
    return json.dumps(obj, sort_keys=True)


GOOD = text(video(1))
FRAMES = text(video(1)["frames"])
OUT_OF_ORDER = text(video(1)["frames"][::-1])
FRAME_0, FRAME_1 = (text(video(2)["frames"][f : f + 1]) for f in (0, 1))

# Each file exits 2 with its first fault in file order; "{path}" stands
# for the file's path.
FAULTS = {
    "height-after-frames": (
        text({"embedding_dim": 2, "videos": [video(1), video(2, height=8)]}),
        "videos[1].frames[0].detections[0].segmentation: mask size [4, 4] differs from [8, 4], the size of video 2",
    ),
    "length-after-frames": (
        text({"embedding_dim": 2, "videos": [video(1), video(2, length=1)]}),
        "videos[1]: frame_index 1 outside declared length 1",
    ),
    "duplicate-video-id": (
        text({"embedding_dim": 2, "videos": [video(1), video(2), video(1)]}),
        "videos[2]: duplicate video_id 1",
    ),
    "bad-json-after-the-first-video": (
        f'{{"embedding_dim": 2, "videos": [{GOOD}, {{"video_id": 2, "frames": [}}]}}',
        "{path}: line 1 column 467: Expecting value",
    ),
    "videos-before-embedding-dim": (
        f'{{"videos": [{GOOD}, {text(video(2))}], "embedding_dim": 2}}',
        "detections: embedding_dim must come before videos",
    ),
    "no-embedding-dim": (text({"videos": [video(1)]}), "detections: embedding_dim must come before videos"),
    "no-videos": (text({"embedding_dim": 2}), "detections: missing required field 'videos'"),
    "no-frames": (text({"embedding_dim": 2, "videos": [{"video_id": 1}]}), "videos[0]: missing required field 'frames'"),
    "repeated-embedding-dim": (
        f'{{"embedding_dim": 2, "embedding_dim": 3, "videos": [{GOOD}]}}',
        "detections: repeated key 'embedding_dim'",
    ),
    "repeated-embedding-dim-after-videos": (
        f'{{"embedding_dim": 2, "videos": [{GOOD}], "embedding_dim": 3}}',
        "detections: repeated key 'embedding_dim'",
    ),
    "repeated-videos": (
        f'{{"embedding_dim": 2, "videos": [{text(video(3))}], "videos": [{GOOD}, {text(video(2))}]}}',
        "detections: repeated key 'videos'",
    ),
    "repeated-frames": (
        f'{{"embedding_dim": 2, "videos": [{{"frames": {FRAMES}, "video_id": 1, "frames": {FRAMES}}}]}}',
        "videos[0]: repeated key 'frames'",
    ),
    "repeated-frames-that-continue": (
        f'{{"embedding_dim": 2, "videos": [{GOOD}, {{"frames": {FRAME_0}, "video_id": 2, "frames": {FRAME_1}}}]}}',
        "videos[1]: repeated key 'frames'",
    ),
    "repeated-video-id": (
        f'{{"embedding_dim": 2, "videos": [{{"video_id": 1, "frames": {FRAMES}, "video_id": 2}}]}}',
        "videos[0]: repeated key 'video_id'",
    ),
    "out-of-order-frames-then-repeated": (
        f'{{"embedding_dim": 2, "videos": [{{"frames": {OUT_OF_ORDER}, "video_id": 1, "frames": {FRAMES}}}]}}',
        "videos[0].frames[1]: frame_index must be strictly increasing within a video",
    ),
    "embedding-then-bad-json": (
        f'{{"embedding_dim": 3, "videos": [{GOOD}, x]}}',
        "videos[0].frames[0].detections[0].embedding: length 2 violates the declared embedding_dim 3 "
        "(dimension must be constant per file)",
    ),
    "root-array": (text([video(1)]), "detections: expected a JSON object"),
    "videos-object": (text({"embedding_dim": 2, "videos": {"1": video(1)}}), "videos: expected a JSON array"),
    "video-number": (text({"embedding_dim": 2, "videos": [video(1), 5]}), "videos[1]: expected a JSON object"),
    "frames-object": (
        text({"embedding_dim": 2, "videos": [{"video_id": 1, "frames": {}}]}),
        "videos[0].frames: expected a JSON array",
    ),
    "frames-object-then-bad-json": (
        '{"embedding_dim": 2, "videos": [{"video_id": 1, "frames": {}}, x]}',
        "{path}: line 1 column 64: Expecting value",
    ),
    "not-a-colon": ('{"embedding_dim"= 2, "videos": []}', "{path}: line 1 column 17: Expecting ':' delimiter"),
    "not-a-comma": ('{"embedding_dim": 2; "videos": []}', "{path}: line 1 column 20: Expecting ',' delimiter"),
    # a streamed container's kind is checked where its key is reached,
    # before the key order and repeated keys
    "videos-number-before-embedding-dim": (text({"videos": 5}), "videos: expected a JSON array"),
    "repeated-videos-of-the-wrong-kind": (
        f'{{"embedding_dim": 2, "videos": [{GOOD}], "videos": 5}}',
        "videos: expected a JSON array",
    ),
    "repeated-frames-of-the-wrong-kind": (
        f'{{"embedding_dim": 2, "videos": [{{"frames": {FRAMES}, "video_id": 1, "frames": 5}}]}}',
        "videos[0].frames: expected a JSON array",
    ),
}


@pytest.mark.parametrize("window", [1, None], ids=["window-1", "default-window"])
@pytest.mark.parametrize("name", list(FAULTS))
def test_a_fault_exits_2_with_its_message(tmp_path, capsys, name, window):
    data, message = FAULTS[name]
    det, out = tmp_path / "det.json", tmp_path / "res.json"
    det.write_text(data)
    message = message.format(path=det)
    with mock.patch.object(formats, "_READ_WINDOW", window or formats._READ_WINDOW):
        assert entrypoint(["track", "--detections", str(det), "--out", str(out)]) == 2
        with pytest.raises(SchemaError) as e:
            load_detections(str(det))
    assert capsys.readouterr().err == f"error: {message}\n"
    assert str(e.value) == message
    assert not out.exists()


def test_a_fault_in_video_3_is_found_without_a_whole_file_parse(tmp_path, capsys):
    """With ``_read_json`` made to fail, a bad frame in the last of three
    videos still exits 2 with its own message."""
    bad = video(3)
    bad["frames"][1] = {"frame_index": 1, "detections": [{**DET, "score": 2.0, "class_probs": [2.0]}]}
    det, out = tmp_path / "det.json", tmp_path / "res.json"
    det.write_text(text({"embedding_dim": 2, "videos": [video(1), video(2), bad]}))

    def no_whole_file_parse(path):
        raise AssertionError(f"{path} was parsed whole")

    with mock.patch.object(formats, "_read_json", no_whole_file_parse):
        assert entrypoint(["track", "--detections", str(det), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: videos[2].frames[1].detections[0]: class probabilities must sum to at most 1\n"
    )
    assert not out.exists()


def test_the_first_error_in_file_order_wins(tmp_path):
    """An error of ``each`` on video 1 propagates before a fault in video
    2 is read, and a fault in video 2's frames comes before ``each`` sees
    video 2."""
    bad = dict(video(2))
    bad["frames"] = [{"frame_index": 0, "detections": [{**DET, "embedding": [1.0]}]}]
    p = tmp_path / "det.json"
    p.write_text(text({"embedding_dim": 2, "videos": [video(1), bad]}))
    seen = []

    def each(frames, meta):
        seen.append(len(frames))
        if len(seen) == fails_at:
            raise ToolkitError("each failed")

    fails_at = 1
    with pytest.raises(ToolkitError, match="^each failed$"):
        read_detections(str(p), each)
    assert seen == [2]
    fails_at, seen = 2, []
    with pytest.raises(SchemaError, match=r"^videos\[1\]\.frames\[0\]\.detections\[0\]\.embedding: length 1 "):
        read_detections(str(p), each)
    assert seen == [2]


def test_a_number_the_window_cuts_is_read_whole(tmp_path):
    """Numbers with a fraction or an exponent among the members, with the
    window's end after each of their characters in turn: ``0.`` or ``1e``
    is not taken as a number before the text after it is read."""
    p = tmp_path / "det.json"
    p.write_text(
        '{"embedding_dim": 2, "scale": 0.125, "videos": [{"frames": [], "gain": 1.5e-3, "shift": 2E+1, "video_id": 1}]}'
    )
    expected = DetectionsFile(embedding_dim=2, videos={1: []}, metas={1: VideoMeta(length=1)})
    for window in range(1, 40):
        with mock.patch.object(formats, "_READ_WINDOW", window):
            assert load_detections(str(p)) == expected


SMALL = text({"embedding_dim": 2, "videos": [video(1), video(2, height=4, width=4, length=3), video(3, frames=1)]})


@given(mutated_texts(SMALL))
@settings(max_examples=200, deadline=None)
def test_a_mutated_file_reads_the_same_at_every_window(tmp_path_factory, data):
    """Whatever the edits, every window gives the same detections or the
    same fault: the window only decides how much text is held.
    What is read without a fault is JSON."""
    p = tmp_path_factory.mktemp("mutated") / "det.json"
    p.write_text(data)
    outcomes = read_at_windows(load_detections, str(p))
    assert outcomes == outcomes[:1] * len(outcomes)
    if not outcomes[0].startswith("SchemaError"):
        json.loads(data)  # what is read is JSON


# ---------------------------------------------------------------------------
# synth writes each video as it is generated


@pytest.mark.parametrize(
    "objects, seed, message",
    [
        (6, 1, "could not place 6 unit embeddings with pairwise dot <= 0.3 in 2 dimensions"),
        (4, 0, "could not place 4 unit embeddings with pairwise dot <= 0.3 in 2 dimensions"),
    ],
    ids=["first-video", "third-video"],
)
def test_synth_that_fails_mid_generation_leaves_no_directory(tmp_path, capsys, objects, seed, message):
    """With seed 0, videos 1 and 2 place their 4 embeddings in 2
    dimensions and video 3 cannot, after the first two are written."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"n_videos": 3, "frames_per_video": 2, "objects_per_video": objects,
                                         "embedding_dim": 2}}))
    out = tmp_path / "made" / "corpus"
    argv = ["synth", "--config", str(cfg), "--seed", str(seed), "--out-dir", str(out)]
    assert entrypoint(argv) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]
