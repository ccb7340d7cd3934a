"""The results format at the cost of its entries: the writer's sparse
per-frame arrays against the dense list, and the record-at-a-time reader
(the same tracks at every window size, the first fault in file order,
memory)."""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mutated_texts, read_at_windows, reference_dumps, streamed_json
from vistrack import SchemaError, Track, TrackEntry, bbox_of_mask, formats, rle_encode, track_video
from vistrack.association import AssociationConfig
from vistrack.core import BBox, RleMask, VideoMeta
from vistrack.formats import load_results, save_results
from vistrack.synth import SynthConfig, generate

WINDOWS = [1, 2, 3, 7, 64, 4096]


def loaded(path):
    """``load_results``' tracks and the videos it adds to an empty map:
    each one's length and mask size."""
    videos = {}
    return load_results(str(path), videos), videos


# ---------------------------------------------------------------------------
# the writer


entry_values = st.one_of(
    st.integers(-5, 5),
    st.lists(st.integers(0, 9), max_size=3),
    st.dictionaries(st.sampled_from(["counts", "size"]), st.lists(st.integers(0, 9), max_size=2), max_size=2),
)


@st.composite
def sparse_arrays(draw):
    """``(length, items)`` with entries often in the first and last slot."""
    length = draw(st.integers(0, 700))
    frames = set(draw(st.lists(st.integers(0, max(length - 1, 0)), max_size=6))) if length else set()
    if length and draw(st.booleans()):
        frames.add(0)
    if length and draw(st.booleans()):
        frames.add(length - 1)
    return length, [(f, draw(entry_values)) for f in sorted(frames)]


@given(sparse_arrays(), st.sampled_from([1, 3, formats._NULL_PIECE]))
def test_sparse_array_is_written_as_the_dense_list(array, piece):
    length, items = array
    dense = [None] * length
    for f, value in items:
        dense[f] = value
    with mock.patch.object(formats, "_NULL_PIECE", piece):
        for obj, expected in [
            (formats._Sparse(array), dense),
            ({"a": formats._Sparse(array), "b": 1}, {"a": dense, "b": 1}),
            ((r for r in [{"s": formats._Sparse(array)}] * 2), [{"s": dense}] * 2),
        ]:
            assert streamed_json(obj) == reference_dumps(expected)


def test_null_runs_are_written_in_pieces_with_flushes_between():
    pieces = []
    out = []
    with mock.patch.object(formats, "_NULL_PIECE", 3):
        formats._emit(formats._Sparse((8, [(4, 1)])), "\n", out, lambda o: (pieces.append("".join(o)), o.clear()))
    pieces.append("".join(out))
    # slots 0-2, flush, slot 3 and the entry, then slots 5-7
    assert [p.count("null") for p in pieces] == [3, 4]
    assert "".join(pieces) + "\n" == reference_dumps([None, None, None, None, 1, None, None, None])


def test_save_results_memory_follows_the_entries(tmp_path):
    """One entry in a 10^6-slot video: a ~23 MB file of nulls, written
    without a list of its slots or the text of a run."""
    m = RleMask(height=2, width=2, counts=(1, 3))
    track = Track(track_id=1, category_id=1, score=0.5, entries={500_000: TrackEntry(bbox_of_mask(m), m)})
    p = tmp_path / "res.json"
    tracemalloc.start()
    try:
        save_results({1: [track]}, str(p), video_lengths={1: 10**6})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = p.stat().st_size
    assert size > 20_000_000
    assert peak < size / 4, (peak, size)


# ---------------------------------------------------------------------------
# the reader: the same tracks at every window size


@pytest.fixture(scope="module")
def long_results(tmp_path_factory):
    """The tracker's results on one 600-frame video of the benchmark's
    `long` geometry (4 objects, clutter 2.0)."""
    corpus = generate(SynthConfig(n_videos=1, frames_per_video=600, objects_per_video=4, clutter_rate=2.0, rng_seed=1))
    (g,) = corpus.ground_truth
    meta = VideoMeta(length=g.length, height=g.height, width=g.width)
    tracks = track_video(corpus.detections[g.video_id], AssociationConfig(), meta)
    p = tmp_path_factory.mktemp("long") / "results.json"
    save_results({g.video_id: tracks}, str(p), video_lengths={g.video_id: g.length})
    return p, loaded(p)


@pytest.mark.parametrize("window", WINDOWS)
def test_long_results_load_the_same_at_every_window(long_results, window):
    path, expected = long_results
    assert len(expected[0][1]) > 100
    with mock.patch.object(formats, "_READ_WINDOW", window):
        assert loaded(path) == expected


masks = st.lists(st.booleans(), min_size=6, max_size=6).map(lambda px: rle_encode(np.array(px).reshape(2, 3)))
entries = st.builds(
    lambda x, w, mask: TrackEntry(BBox(float(x), 0.5, float(w), 1.25), mask),
    st.integers(0, 5),
    st.integers(1, 4),
    st.one_of(st.none(), masks),
)


@st.composite
def result_sets(draw):
    """Tracks of up to three videos, with each video's length."""
    tracks, lengths = {}, {}
    for vid in draw(st.sets(st.integers(1, 5), max_size=3)):
        lengths[vid] = length = draw(st.integers(1, 40))
        frames = st.dictionaries(st.integers(0, length - 1), entries, min_size=1, max_size=4)
        tracks[vid] = [
            Track(track_id=tid, category_id=draw(st.integers(1, 3)), score=draw(st.sampled_from([0.25, 0.5, 1.0])),
                  entries=draw(frames))
            for tid in draw(st.sets(st.integers(1, 50), max_size=4))
        ]
    return tracks, lengths


@given(result_sets())
@settings(max_examples=60, deadline=None)
def test_round_trip_loads_the_same_at_every_window(tmp_path_factory, results):
    tracks, lengths = results
    p = tmp_path_factory.mktemp("rt") / "res.json"
    save_results(tracks, str(p), video_lengths=lengths)
    expected = loaded(p)
    text = p.read_text()
    for window in WINDOWS:
        with mock.patch.object(formats, "_READ_WINDOW", window):
            assert loaded(p) == expected
    again = p.with_name("again.json")
    read, videos = expected
    save_results(read, str(again), video_lengths={vid: length for vid, (length, _) in videos.items()})
    assert again.read_text() == text


# ---------------------------------------------------------------------------
# the reader: the first fault in file order

GOOD = json.dumps(
    {"video_id": 1, "id": 1, "category_id": 1, "score": 0.5, "segmentations": [None, None], "bboxes": [[0, 0, 1, 1], None]}
)

# Each file's first fault in file order: text that is not JSON gives the
# located message of a parse of the text, a record its own fault; "{path}"
# stands for the file's path.
MALFORMED = {
    "empty": (b"", "{path}: line 1 column 1: Expecting value"),
    "blank": (b"  ", "{path}: line 1 column 3: Expecting value"),
    "object": (b"{}", "{path}: results: expected a JSON array"),
    "truncated-object": (b'{"a": 1', "{path}: line 1 column 8: Expecting ',' delimiter"),
    "open": (b"[", "{path}: line 1 column 2: Expecting value"),
    "unclosed-after-a-record": (b'[{"id": 1}', "{path}: line 1 column 11: Expecting ',' delimiter"),
    "close": (b"]", "{path}: line 1 column 1: Expecting value"),
    "trailing-comma": (b"[1,]", "{path}: results[0]: expected a JSON object"),
    "missing-comma": (b"[1 2]", "{path}: results[0]: expected a JSON object"),
    "bom": (b"\xef\xbb\xbf[]", "{path}: line 1 column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    "text-after": (b"[] x", "{path}: line 1 column 4: Extra data"),
    "text-after-record": (f"[{GOOD}] x".encode(), "{path}: line 1 column 123: Extra data"),
    "not-a-comma": (f"[{GOOD}x{GOOD}]".encode(), "{path}: line 1 column 121: Expecting ',' delimiter"),
    "unterminated-string": (b'["abc', "{path}: line 1 column 2: Unterminated string starting at"),
    "truncated-last": (f"[{GOOD}, {GOOD[:-7]}".encode(), "{path}: line 1 column 235: Expecting value"),
    "invalid-utf8": (
        f'[{GOOD}, "\xff"]'.encode("latin-1"),
        "{path}: not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 123: invalid start byte",
    ),
    "schema-then-malformed": (b'[{"video_id": 1}, 1 2]', "{path}: results[0]: missing required field 'id'"),
    "schema-then-truncated": (f'[{{"id": 1}}, {GOOD[:20]}'.encode(), "{path}: results[0]: missing required field 'video_id'"),
    "number-record": (b"[1]", "{path}: results[0]: expected a JSON object"),
    "nan-record": (b"[NaN]", "{path}: results[0]: expected a JSON object"),
}


@pytest.mark.parametrize("window", [1, 3, None], ids=["window-1", "window-3", "default-window"])
@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_results_give_the_first_fault_in_file_order(tmp_path, name, window):
    data, message = MALFORMED[name]
    p = tmp_path / "res.json"
    p.write_bytes(data)
    with mock.patch.object(formats, "_READ_WINDOW", window or formats._READ_WINDOW):
        with pytest.raises(SchemaError) as e:
            load_results(str(p))
    assert str(e.value) == message.format(path=p)


def test_a_record_fault_is_found_without_a_whole_file_parse(tmp_path):
    p = tmp_path / "res.json"
    record = json.loads(GOOD)
    p.write_text(json.dumps([record, {**record, "id": 2}, {**record, "id": 3, "score": 2.0}]))

    def no_whole_file_parse(path):
        raise AssertionError(f"{path} was parsed whole")

    with mock.patch.object(formats, "_read_json", no_whole_file_parse):
        with pytest.raises(SchemaError) as e:
            load_results(str(p))
    assert str(e.value) == f"{p}: results[2]: track score must lie in [0, 1]"


MUTABLE = json.dumps(
    [
        json.loads(GOOD),
        {**json.loads(GOOD), "id": 2, "score": 0.25},
        {
            "video_id": 2,
            "id": 1,
            "category_id": 2,
            "score": 1.0,
            "segmentations": [{"size": [2, 2], "counts": [1, 3]}, None, None],
            "bboxes": [None, None, [1, 1.5, 2, 2.5]],
        },
    ]
)


@given(mutated_texts(MUTABLE))
@settings(max_examples=200, deadline=None)
def test_a_mutated_file_reads_the_same_at_every_window(tmp_path_factory, data):
    """Whatever the edits, every window gives the same tracks and videos
    or the same fault: the window only decides how much text is held.
    What is read without a fault is JSON."""
    p = tmp_path_factory.mktemp("mutated") / "res.json"
    p.write_text(data)
    outcomes = read_at_windows(loaded, p)
    assert outcomes == outcomes[:1] * len(outcomes)
    if not outcomes[0].startswith("SchemaError"):
        json.loads(data)  # what is read is JSON


# ---------------------------------------------------------------------------
# the reader: memory


def test_load_results_memory_follows_a_record(tmp_path):
    """300 one-entry tracks in a 2,000-frame video: a ~14 MB file, read
    while holding the tracks and a window of text, not the parsed file."""
    length = 2000
    m = RleMask(height=4, width=4, counts=(4, 4, 8))
    tracks = [
        Track(track_id=i, category_id=1, score=0.5, entries={(7 * i) % length: TrackEntry(bbox_of_mask(m), m)})
        for i in range(1, 301)
    ]
    p = tmp_path / "res.json"
    save_results({1: tracks}, str(p), video_lengths={1: length})
    tracemalloc.start()
    try:
        tracks_read = load_results(str(p))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = p.stat().st_size
    assert len(tracks_read[1]) == 300
    assert size > 10_000_000
    assert peak < size / 2, (peak, size)
