"""Mask run-length codec, box geometry, and their decoded-grid oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mask_from_rows
from vistrack import (
    BBox,
    ConfigError,
    Detection,
    FrameDetections,
    RleMask,
    ToolkitError,
    Track,
    TrackEntry,
    VideoGroundTruth,
    bbox_of_mask,
    mask_iou,
    rle_decode,
    rle_encode,
)
from vistrack.core import VideoMeta, ints, reals, rle_crop, rle_intersection_area
from vistrack.errors import SchemaError


def grids(max_side=12):
    return st.integers(1, max_side).flatmap(
        lambda h: st.integers(1, max_side).flatmap(
            lambda w: st.lists(st.booleans(), min_size=h * w, max_size=h * w).map(
                lambda bits: np.array(bits, dtype=bool).reshape(h, w)
            )
        )
    )


# ---------------------------------------------------------------------------
# Codec


def test_single_pixel_counts():
    grid = np.zeros((2, 2), dtype=bool)
    grid[0, 1] = True
    assert rle_encode(grid).counts == (2, 1, 1)


def test_empty_and_full():
    assert rle_encode(np.zeros((3, 4), dtype=bool)).counts == (12,)
    assert rle_encode(np.ones((3, 4), dtype=bool)).counts == (0, 12)


def test_column_major_order():
    # a single full column is one contiguous run
    grid = np.zeros((4, 3), dtype=bool)
    grid[:, 1] = True
    assert rle_encode(grid).counts == (4, 4, 4)


@given(grids())
def test_roundtrip(grid):
    mask = rle_encode(grid)
    assert np.array_equal(rle_decode(mask), grid)
    assert mask.area == int(grid.sum())


def test_counts_must_sum_to_pixels():
    with pytest.raises(ValueError, match="counts must sum to height\\*width"):
        RleMask(height=2, width=2, counts=(2, 1))
    with pytest.raises(ValueError, match="counts must sum to height\\*width"):
        RleMask(height=2, width=2, counts=(2, 1, 2))


def test_counts_reject_internal_zero_and_negative():
    with pytest.raises(ValueError, match="counts must have no internal zero entries except the first"):
        RleMask(height=2, width=2, counts=(1, 0, 3))
    with pytest.raises(ValueError, match="counts must be non-negative"):
        RleMask(height=2, width=2, counts=(5, -1))
    # leading zero is the one legal zero: mask starting with a 1-run
    m = RleMask(height=2, width=2, counts=(0, 4))
    assert m.area == 4


def test_counts_reject_bad_dims():
    with pytest.raises(ValueError, match="mask dimensions must be positive"):
        RleMask(height=0, width=2, counts=())


def test_counts_must_be_integers():
    with pytest.raises(ValueError, match="counts: expected an integer"):
        RleMask(height=2, width=2, counts=(1.7, 3))
    m = RleMask(height=2, width=2, counts=(np.int64(1), np.int32(3)))
    assert m.counts == (1, 3)
    assert all(type(c) is int for c in m.counts)


def test_counts_reject_bools():
    with pytest.raises(ValueError, match="counts: expected an integer"):
        RleMask(height=2, width=2, counts=(True, 3))


@pytest.mark.parametrize("size", [(True, 4), (2.0, 2), (2, "2"), (np.bool_(True), 4)])
def test_mask_size_must_be_integers(size):
    height, width = size
    with pytest.raises(ValueError, match="size: expected an integer"):
        RleMask(height=height, width=width, counts=(4,))


def test_mask_size_numpy_integers_become_ints():
    m = RleMask(height=np.int64(2), width=np.int32(2), counts=(4,))
    assert (m.height, m.width) == (2, 2)
    assert type(m.height) is int and type(m.width) is int


# ---------------------------------------------------------------------------
# Number checks: one integer check and one real-number check for every caller

_ERRORS = [ValueError, SchemaError, ConfigError]
_NON_NUMBERS = [True, np.bool_(True), "1", None, 1j]


def _raises(error, message, check, values):
    with pytest.raises(error, match=f"^field: {message}$") as caught:
        check(values, "field", error)
    assert type(caught.value) is error


@pytest.mark.parametrize("error", _ERRORS, ids=lambda e: e.__name__)
@pytest.mark.parametrize("bad", [*_NON_NUMBERS, 1.5, 1.0], ids=repr)
def test_ints_rejects_non_integers(error, bad):
    _raises(error, "expected an integer", ints, (1, bad))


@pytest.mark.parametrize("error", _ERRORS, ids=lambda e: e.__name__)
@pytest.mark.parametrize("bad", _NON_NUMBERS, ids=repr)
def test_reals_rejects_non_reals(error, bad):
    _raises(error, "expected a number", reals, (1.0, bad))


@pytest.mark.parametrize("error", _ERRORS, ids=lambda e: e.__name__)
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 10**400], ids=str)
def test_reals_rejects_non_finite(error, bad):
    _raises(error, "value must be finite", reals, (1.0, bad))
    _raises(error, "value must be finite", reals, [bad])


@pytest.mark.parametrize("error", _ERRORS, ids=lambda e: e.__name__)
@pytest.mark.parametrize("check", [ints, reals])
def test_a_scalar_is_not_an_array(error, check):
    _raises(error, "expected an array", check, 1)


def test_reals_finite_false_lets_nan_and_inf_through():
    out = reals([float("nan"), float("inf"), 1], "field", finite=False)
    assert np.isnan(out[0]) and out[1:] == (float("inf"), 1.0)
    with pytest.raises(ValueError, match="^field: value must be finite$"):
        reals([10**400], "field", finite=False)


@pytest.mark.parametrize("good", [1, np.int64(1)], ids=repr)
def test_ints_returns_python_ints(good):
    out = ints([good, 2], "field")
    assert out == (1, 2) and all(type(v) is int for v in out)


@pytest.mark.parametrize("good,value", [(1, 1.0), (np.int64(1), 1.0), (1.0, 1.0), (np.float32(0.5), 0.5)], ids=repr)
def test_reals_returns_python_floats(good, value):
    out = reals([good, 2.0], "field")
    assert out == (value, 2.0) and all(type(v) is float for v in out)


@pytest.mark.parametrize("check", [ints, reals])
def test_empty_array_is_empty_tuple(check):
    assert check([], "field") == ()


def _detection(class_probs=(0.5,), **fields):
    return Detection(**{
        "bbox": BBox(0.0, 0.0, 1.0, 1.0),
        "score": 0.5,
        "category_id": 0,
        "class_probs": class_probs,
        "embedding": (1.0,),
        **fields,
    })


@pytest.mark.parametrize("bad", ["1.5", True, np.bool_(True), None, 1j])
def test_embedding_and_class_probs_reject_non_reals(bad):
    with pytest.raises(ValueError, match="embedding"):
        _detection(embedding=(0.5, bad))
    with pytest.raises(ValueError, match="class_probs"):
        _detection((0.5, bad))


def test_embedding_and_class_probs_accept_real_scalars():
    mixed = (1, 0.5, np.float64(0.25), np.float32(0.125), np.int64(0))
    det = _detection(mixed[1:], embedding=mixed)
    assert det.embedding == (1.0, 0.5, 0.25, 0.125, 0.0)
    assert all(type(v) is float for v in det.embedding)
    assert det.class_probs == (0.5, 0.25, 0.125, 0.0)
    assert all(type(p) is float for p in det.class_probs)
    for embedding in ((1, 2), [1, 2], np.array([1.0, 2.0])):
        emb = _detection(embedding=embedding).embedding
        assert emb == (1.0, 2.0) and all(type(v) is float for v in emb)


@pytest.mark.parametrize(
    "bad,message",
    [
        ((), "embedding must be non-empty"),
        ((0.5, float("nan")), "embedding: value must be finite"),
        ((float("inf"),), "embedding: value must be finite"),
    ],
    ids=["empty", "nan", "inf"],
)
def test_detection_rejects_an_empty_or_non_finite_embedding(bad, message):
    with pytest.raises(ValueError, match=message):
        _detection(embedding=bad)


# ---------------------------------------------------------------------------
# Domain types: integer fields take integers, scores take real numbers

_BOX = BBox(0.0, 0.0, 1.0, 1.0)


def _track(**fields):
    entries = {0: TrackEntry(bbox=_BOX, mask=None)}
    return Track(**{"track_id": 1, "category_id": 1, "score": 0.5, "entries": entries, **fields})


def _ground_truth(**fields):
    return VideoGroundTruth(**{"video_id": 1, "height": 4, "width": 4, "length": 2, "gt_tracks": [],
                               "category_set": [1], **fields})


def _frame(**fields):
    return FrameDetections(**{"frame_index": 0, **fields})


def _meta(**fields):
    return VideoMeta(**{"length": 2, **fields})


_INTEGER_FIELDS = [
    pytest.param(make, name, id=f"{make.__name__}-{name}")
    for make, names in [
        (_track, ("track_id", "category_id")),
        (_detection, ("category_id",)),
        (_frame, ("frame_index",)),
        (_meta, ("length", "height", "width")),
        (_ground_truth, ("video_id", "height", "width", "length")),
    ]
    for name in names
]


@pytest.mark.parametrize("make,name", _INTEGER_FIELDS)
@pytest.mark.parametrize("bad", [True, np.bool_(True), 1.0, 2.5, "1"], ids=repr)
def test_integer_fields_reject_non_integers(make, name, bad):
    with pytest.raises(ValueError, match="expected an integer"):
        make(**{name: bad})


@pytest.mark.parametrize("make,name", _INTEGER_FIELDS)
def test_integer_fields_store_python_ints(make, name):
    obj = make(**{name: np.int64(1)})
    assert type(getattr(obj, name)) is int


@pytest.mark.parametrize("bad", [True, 1.5], ids=repr)
def test_frame_indices_and_category_set_reject_non_integers(bad):
    with pytest.raises(ValueError, match="frame indices: expected an integer"):
        _track(entries={bad: TrackEntry(bbox=_BOX, mask=None)})
    with pytest.raises(ValueError, match="category_set: expected an integer"):
        _ground_truth(category_set=[1, bad])


def test_video_meta_keeps_absent_sizes():
    meta = VideoMeta(length=np.int32(3))
    assert (meta.length, meta.height, meta.width) == (3, None, None)


@pytest.mark.parametrize("name", ["length", "height", "width"])
@pytest.mark.parametrize("bad", [0, -3])
def test_video_meta_sizes_must_be_positive(name, bad):
    with pytest.raises(ValueError, match=f"video {name} must be positive"):
        _meta(**{name: bad})
    assert getattr(_meta(**{name: 1}), name) == 1


@pytest.mark.parametrize("bad", [True, np.bool_(True), "0.5", None, 1j, float("nan")], ids=repr)
def test_scores_reject_non_reals(bad):
    with pytest.raises(ValueError, match="score"):
        _track(score=bad)
    with pytest.raises(ValueError, match="score"):
        _detection(score=bad)


def test_scores_store_python_floats():
    assert type(_track(score=np.float32(0.5)).score) is float
    assert type(_track(score=1).score) is float
    assert type(_detection(score=np.float64(0.5)).score) is float


# ---------------------------------------------------------------------------
# Intersection / IoU


def test_mask_iou_fixture():
    left = mask_from_rows(["##..", "##..", "##..", "##.."])
    top = mask_from_rows(["####", "####", "....", "...."])
    assert mask_iou(left, top) == pytest.approx(4 / 12)


def test_iou_empty_conventions():
    empty = rle_encode(np.zeros((3, 3), dtype=bool))
    something = mask_from_rows(["#..", "...", "..."])
    assert mask_iou(empty, empty) == 1.0
    assert mask_iou(empty, something) == 0.0


@given(grids(), st.data())
@settings(max_examples=150)
def test_intersection_matches_decoded_and(ga, data):
    bits = data.draw(st.lists(st.booleans(), min_size=ga.size, max_size=ga.size))
    gb = np.array(bits, dtype=bool).reshape(ga.shape)
    area = rle_intersection_area(rle_encode(ga), rle_encode(gb))
    assert area == int(np.logical_and(ga, gb).sum())


@pytest.mark.parametrize(
    "counts_a, counts_b",
    [
        ((2, 3, 3), (5, 2, 1)),  # a's one-run ends where b's starts
        ((5, 2, 1), (2, 3, 3)),  # the same, roles swapped
        ((0, 2, 2, 2, 2), (2, 2, 2, 2)),  # interleaved runs touching at every end
        ((0, 8), (1, 2, 3, 2)),  # a full mask against a partial one
        ((0, 8), (0, 8)),  # two full masks
        ((0, 3, 2, 3), (0, 1, 3, 4)),  # both start with a zero-length zero-run
        ((0, 1, 7), (0, 1, 7)),  # one shared leading pixel
    ],
)
def test_intersection_edge_runs_match_decoded_and(counts_a, counts_b):
    a = RleMask(height=2, width=4, counts=counts_a)
    b = RleMask(height=2, width=4, counts=counts_b)
    expected = int(np.logical_and(rle_decode(a), rle_decode(b)).sum())
    assert rle_intersection_area(a, b) == expected
    assert rle_intersection_area(b, a) == expected


def test_intersection_rejects_mixed_dims():
    a = rle_encode(np.zeros((2, 3), dtype=bool))
    b = rle_encode(np.zeros((3, 2), dtype=bool))
    with pytest.raises(ToolkitError, match="masks must share height and width"):
        rle_intersection_area(a, b)


# ---------------------------------------------------------------------------
# bbox_of_mask / crop


def sparse_grids(max_side=12):
    """Grids of a few pixels, so that most one-runs stay within a column."""
    return st.integers(1, max_side).flatmap(
        lambda h: st.integers(1, max_side).flatmap(
            lambda w: st.sets(st.integers(0, h * w - 1), max_size=4).map(
                lambda cells: np.isin(np.arange(h * w), list(cells)).reshape(h, w)
            )
        )
    )


@given(st.one_of(grids(), sparse_grids()))
def test_bbox_of_mask_is_tight(grid):
    box = bbox_of_mask(rle_encode(grid))
    ys, xs = np.nonzero(grid)
    if ys.size == 0:
        assert box is None
    else:
        assert (box.x, box.y) == (xs.min(), ys.min())
        assert (box.w, box.h) == (xs.max() - xs.min() + 1, ys.max() - ys.min() + 1)


@given(grids(), st.data())
@settings(max_examples=150)
def test_crop_matches_sliced_grid(grid, data):
    h, w = grid.shape
    x0 = data.draw(st.integers(0, w - 1))
    y0 = data.draw(st.integers(0, h - 1))
    x1 = data.draw(st.integers(x0 + 1, w))
    y1 = data.draw(st.integers(y0 + 1, h))
    cropped = rle_crop(rle_encode(grid), x0, y0, x1, y1)
    assert np.array_equal(rle_decode(cropped), grid[y0:y1, x0:x1])


@st.composite
def run_masks(draw, max_side=12):
    """Masks drawn as runs rather than pixels: one-runs long enough to
    cross columns, a leading one-run, whole columns of ones, and the
    all-zero mask."""
    h, w = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    kind = draw(st.sampled_from(["runs", "columns", "empty"]))
    if kind == "empty":
        return RleMask(h, w, (h * w,))
    if kind == "columns":
        grid = np.zeros((h, w), dtype=bool)
        grid[:, sorted(draw(st.sets(st.integers(0, w - 1))))] = True
        return rle_encode(grid)
    cuts = draw(st.sets(st.integers(1, h * w - 1), max_size=8)) if h * w > 1 else set()
    bounds = [0, *sorted(cuts), h * w]
    counts = [b - a for a, b in zip(bounds, bounds[1:])]
    return RleMask(h, w, tuple([0] + counts if draw(st.booleans()) else counts))


@st.composite
def crop_windows(draw, h, w):
    """(x0, y0, x1, y1) inside an h x w mask, often on an edge or one pixel wide."""

    def side(size):
        lo = draw(st.one_of(st.just(0), st.just(size - 1), st.integers(0, size - 1)))
        hi = draw(st.one_of(st.just(lo + 1), st.just(size), st.integers(lo + 1, size)))
        return lo, hi

    (x0, x1), (y0, y1) = side(w), side(h)
    return x0, y0, x1, y1


@given(st.one_of(run_masks(), grids().map(rle_encode), sparse_grids().map(rle_encode)), st.data())
@settings(max_examples=400)
def test_crop_equals_the_dense_crop(mask, data):
    x0, y0, x1, y1 = data.draw(crop_windows(mask.height, mask.width))
    assert rle_crop(mask, x0, y0, x1, y1) == rle_encode(rle_decode(mask)[y0:y1, x0:x1])


@pytest.mark.parametrize(
    "rows,window,expected",
    [
        # a one-run from the last two rows of column 0 into the first
        # row of column 1: whole, then with only its column-1 piece left
        ([".#.", "...", "#..", "#.."], (0, 0, 2, 4), (2, 3, 3)),
        ([".#.", "...", "#..", "#.."], (0, 0, 2, 2), (2, 1, 1)),
        # two one-runs split only by rows outside the window merge
        (["...", "##.", "##.", "..."], (0, 1, 2, 3), (0, 4)),
        # a leading one-run and full columns: all ones in the window
        (["##.", "##.", "##."], (0, 0, 2, 3), (0, 6)),
        # a window on the right and bottom edges with no foreground
        (["##.", "##.", "..."], (2, 1, 3, 3), (2,)),
        # a 1-pixel window on a one
        (["...", ".#.", "..."], (1, 1, 2, 2), (0, 1)),
    ],
)
def test_crop_fixtures(rows, window, expected):
    assert rle_crop(mask_from_rows(rows), *window).counts == expected


def test_crop_rejects_empty_window():
    mask = rle_encode(np.ones((4, 4), dtype=bool))
    with pytest.raises(ValueError):
        rle_crop(mask, 2, 0, 2, 4)
    with pytest.raises(ValueError):
        rle_crop(mask, 0, 0, 5, 4)


# ---------------------------------------------------------------------------
# Boxes


def test_bbox_validation():
    with pytest.raises(ValueError):
        BBox(0.0, 0.0, -1.0, 2.0)
    with pytest.raises(ValueError):
        BBox(float("nan"), 0.0, 1.0, 1.0)
    b = BBox(1.0, 2.0, 3.0, 4.0)
    assert (b.x1, b.y1, b.area) == (4.0, 6.0, 12.0)


def test_bbox_stores_python_floats():
    b = BBox(1, np.int64(2), np.float32(0.5), 4)
    assert (b.x, b.y, b.w, b.h) == (1.0, 2.0, 0.5, 4.0)
    assert all(type(v) is float for v in (b.x, b.y, b.w, b.h))


@pytest.mark.parametrize(
    "bad,message",
    [(True, "expected a number"), ("1", "expected a number"), (None, "expected a number"),
     (float("inf"), "value must be finite")],
    ids=repr,
)
def test_bbox_coordinates_are_finite_reals(bad, message):
    with pytest.raises(ValueError, match=f"bbox: {message}"):
        BBox(0.0, bad, 1.0, 1.0)

