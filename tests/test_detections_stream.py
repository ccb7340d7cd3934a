"""The detections reader one frame at a time: the same file as a
whole-file parse at every window size, memory that follows one video,
and the whole-file errors through ``track`` for every layout the stream
hands back to that parse."""

import json
import os
import tracemalloc
from unittest import mock

import pytest

from vistrack import SchemaError, formats
from vistrack.cli import entrypoint
from vistrack.core import VideoMeta
from vistrack.errors import ToolkitError
from vistrack.formats import load_detections, read_detections, save_detections
from vistrack.synth import SynthConfig, generate_videos

WINDOWS = [1, 2, 3, 7, 64, 4096]


def no_whole_file_parse(path):
    raise AssertionError(f"{path} was parsed whole")


# ---------------------------------------------------------------------------
# the same file at every window size


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    """Four videos with clutter, one of them without declared geometry."""
    p = tmp_path_factory.mktemp("det") / "detections.json"
    cfg = SynthConfig(n_videos=4, frames_per_video=12, objects_per_video=3, clutter_rate=1.0, rng_seed=5)
    videos = [
        (g.video_id, frames, None if g.video_id == 2 else VideoMeta(g.length, g.height, g.width))
        for g, frames, _ in generate_videos(cfg)
    ]
    save_detections(videos, str(p), embedding_dim=cfg.embedding_dim)
    return p, formats._parse_detections(str(p))


@pytest.mark.parametrize("window", WINDOWS + [None])
def test_detections_load_the_same_at_every_window(corpus_file, window):
    path, expected = corpus_file
    assert len(expected.videos) == 4 and expected.metas[2] == VideoMeta(length=12)
    with mock.patch.object(formats, "_READ_WINDOW", window or formats._READ_WINDOW):
        with mock.patch.object(formats, "_parse_detections", no_whole_file_parse):
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
    with mock.patch.object(formats, "_parse_detections", no_whole_file_parse):
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
# layouts the stream hands to the whole-file parse

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

# Each file breaks an invariant where the stream cannot check it, or in a
# layout it cannot stream; the message is the one the whole-file loader
# gave before the stream existed.
FALLBACKS = {
    "videos-before-embedding-dim": (
        json.dumps({"videos": [video(1)], "embedding_dim": 3}),
        "videos[0].frames[0].detections[0].embedding: length 2 violates the declared embedding_dim 3 "
        "(dimension must be constant per file)",
    ),
    "height-after-frames": (
        text({"embedding_dim": 2, "videos": [video(1), video(2, height=8)]}),
        "videos[1].frames[0].detections[0].segmentation: mask size [4, 4] differs from [8, 4], the size of video 2",
    ),
    "length-after-frames": (
        text({"embedding_dim": 2, "videos": [video(1), video(2, length=1)]}),
        "videos[1]: frame_index 1 outside declared length 1",
    ),
    "repeated-frames": (
        f'{{"embedding_dim": 2, "videos": [{{"frames": {FRAMES}, "video_id": 1, "frames": {OUT_OF_ORDER}}}]}}',
        "videos[0].frames[1]: frame_index must be strictly increasing within a video",
    ),
    "repeated-embedding-dim": (
        f'{{"embedding_dim": 2, "videos": [{GOOD}], "embedding_dim": 3}}',
        "videos[0].frames[0].detections[0].embedding: length 2 violates the declared embedding_dim 3 "
        "(dimension must be constant per file)",
    ),
    "duplicate-video-id": (
        text({"embedding_dim": 2, "videos": [video(1), video(2), video(1)]}),
        "videos[2]: duplicate video_id 1",
    ),
    "bad-json-after-the-first-video": (
        f'{{"embedding_dim": 2, "videos": [{GOOD}, {{"video_id": 2, "frames": [}}]}}',
        "{path}: line 1 column 467: Expecting value",
    ),
}


@pytest.mark.parametrize("window", [1, None], ids=["window-1", "default-window"])
@pytest.mark.parametrize("name", list(FALLBACKS))
def test_a_fault_the_stream_cannot_check_gives_the_whole_file_error(tmp_path, capsys, name, window):
    data, message = FALLBACKS[name]
    det, out = tmp_path / "det.json", tmp_path / "res.json"
    det.write_text(data)
    message = message.format(path=det)
    with pytest.raises(SchemaError) as e:
        formats._parse_detections(str(det))
    assert str(e.value) == message
    with mock.patch.object(formats, "_READ_WINDOW", window or formats._READ_WINDOW):
        assert entrypoint(["track", "--detections", str(det), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


PLAIN = text({"embedding_dim": 2, "videos": [video(1), video(2)]})
FRAME_0, FRAME_1 = (text(video(2)["frames"][f : f + 1]) for f in (0, 1))

# (file, the file a whole-file parse reads it as)
WHOLE_FILE_LAYOUTS = {
    "repeated-videos": (
        f'{{"embedding_dim": 2, "videos": [{text(video(3))}], "videos": [{GOOD}, {text(video(2))}]}}',
        PLAIN,
    ),
    "repeated-frames": (
        f'{{"embedding_dim": 2, "videos": [{{"frames": {OUT_OF_ORDER}, "video_id": 1, "frames": {FRAMES}}}, '
        f'{text(video(2))}]}}',
        PLAIN,
    ),
    "repeated-frames-that-continue": (
        f'{{"embedding_dim": 2, "videos": [{GOOD}, {{"frames": {FRAME_0}, "video_id": 2, "frames": {FRAME_1}}}]}}',
        f'{{"embedding_dim": 2, "videos": [{GOOD}, {{"frames": {FRAME_1}, "video_id": 2}}]}}',
    ),
    "videos-before-embedding-dim": (f'{{"videos": [{GOOD}, {text(video(2))}], "embedding_dim": 2}}', PLAIN),
}


@pytest.mark.parametrize("name", list(WHOLE_FILE_LAYOUTS))
def test_a_layout_the_stream_cannot_take_is_read_as_a_whole_file(tmp_path, name):
    """A repeated key keeps its last value, as in a whole-file parse, even
    after the stream has handed on videos of an earlier one; ``track``
    writes what it writes for the file without the earlier values."""
    det, plain = tmp_path / "det.json", tmp_path / "plain.json"
    for p, data in zip((det, plain), WHOLE_FILE_LAYOUTS[name]):
        p.write_text(data)
    assert load_detections(str(det)) == load_detections(str(plain))
    for p in (det, plain):
        assert entrypoint(["track", "--detections", str(p), "--out", str(p.with_suffix(".out"))]) == 0
    assert det.with_suffix(".out").read_bytes() == plain.with_suffix(".out").read_bytes()


def test_a_fault_in_the_file_comes_before_an_error_of_each(tmp_path):
    """As when the file was parsed before any video was tracked: a fault
    in video 2 wins over an error ``each`` raises on video 1, which
    comes only from a file without faults."""
    bad = dict(video(2))
    bad["frames"] = [{"frame_index": 0, "detections": [{**DET, "embedding": [1.0]}]}]
    p = tmp_path / "det.json"

    def each(frames, meta):
        raise ToolkitError("each failed")

    p.write_text(text({"embedding_dim": 2, "videos": [video(1), bad]}))
    with pytest.raises(SchemaError, match=r"^videos\[1\]\.frames\[0\]\.detections\[0\]\.embedding: length 1 "):
        read_detections(str(p), each)
    p.write_text(text({"embedding_dim": 2, "videos": [video(1), video(2)]}))
    with pytest.raises(ToolkitError, match="^each failed$"):
        read_detections(str(p), each)


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
