"""Crop-pair sampling: window arithmetic, annotation transforms, and
correspondence properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import streamed_json
from vistrack import (
    BBox,
    ConfigError,
    CropConfig,
    CropView,
    CropWindow,
    ImageMeta,
    SchemaError,
    SourceAnnotation,
    SplitMix64,
    ToolkitError,
    formats,
    make_pair,
    rle_decode,
    rle_encode,
    sample_crop,
    transform_annotations,
)

CFG = CropConfig()


class ForcedRng:
    """Stand-in PRNG yielding a scripted sequence of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def next_float(self):
        return self.values.pop(0)


def ann(instance_id, box, mask=None, category=1):
    return SourceAnnotation(instance_id=instance_id, category_id=category, bbox=box, mask=mask)


# ---------------------------------------------------------------------------
# sample_crop


def test_full_scale_is_identity_window():
    cfg = CropConfig(min_scale=1.0, max_scale=1.0)
    for seed in (0, 1, 99):
        w = sample_crop(64, 48, cfg, SplitMix64(seed))
        assert (w.x0, w.y0, w.x1, w.y1) == (0.0, 0.0, 64.0, 48.0)


def test_forced_draws_give_expected_window():
    # scale draw 0 -> side 0.5*100 = 50; offset draws 0 -> origin corner
    w = sample_crop(100, 100, CFG, ForcedRng([0.0, 0.0, 0.0, 0.0]))
    assert (w.x0, w.y0, w.x1, w.y1) == (0.0, 0.0, 50.0, 50.0)


def test_sample_crop_deterministic():
    a = sample_crop(64, 48, CFG, SplitMix64(123))
    b = sample_crop(64, 48, CFG, SplitMix64(123))
    assert a == b


def test_sample_crop_rejects_tiny_images():
    with pytest.raises(SchemaError, match="images must be at least 2 pixels per side to crop"):
        sample_crop(1, 64, CFG, SplitMix64(0))


@given(st.integers(2, 200), st.integers(2, 200), st.integers(0, 2**32 - 1))
@settings(max_examples=150)
def test_sample_crop_stays_inside(w, h, seed):
    win = sample_crop(w, h, CFG, SplitMix64(seed))
    assert 0 <= win.x0 < win.x1 <= w
    assert 0 <= win.y0 < win.y1 <= h
    assert win.x0 == int(win.x0) and win.x1 == int(win.x1)


def test_crop_window_validation():
    with pytest.raises(ValueError):
        CropWindow(5.0, 0.0, 5.0, 10.0)
    with pytest.raises(ValueError):
        CropWindow(-1.0, 0.0, 5.0, 10.0)


@pytest.mark.parametrize(
    "sides, name",
    [
        ((True, 0, 5, 5), "x0"),
        ((0, 0, 5, False), "y1"),
        (("a", "b", "c", "d"), "x0"),
        ((0, None, 5, 5), "y0"),
        ((0, 0, float("inf"), 5), "x1"),
        ((0, float("nan"), 5, 5), "y0"),
    ],
)
def test_crop_window_sides_must_be_finite_real_numbers(sides, name):
    with pytest.raises(ValueError, match=f"^crop window {name}: "):
        CropWindow(*sides)


@pytest.mark.parametrize(
    "sides, name, value",
    [
        ((0.5, 0, 9, 9), "x0", "0.5"),
        ((0, 0.5, 9, 9), "y0", "0.5"),
        ((0, 0, 9.5, 9), "x1", "9.5"),
        ((0, 0, 9, np.float64(9.25)), "y1", "9.25"),
    ],
)
def test_crop_window_sides_must_be_whole_pixels(sides, name, value):
    """Masks are cropped on whole pixels, so a fractional side would crop
    a box and its mask at different places."""
    with pytest.raises(ValueError, match=rf"^crop window {name}: must be a whole pixel, got {value}$"):
        CropWindow(*sides)


def test_an_int_crop_window_is_stored_and_written_as_floats():
    window = CropWindow(0, np.int64(0), 5, 5)
    assert [type(v) for v in (window.x0, window.y0, window.x1, window.y1)] == [float] * 4
    text = streamed_json(formats._view_json(CropView(window, ())))
    assert '"window": [\n    0.0,\n    0.0,\n    5.0,\n    5.0\n  ]' in text


_BOX = BBox(0.0, 0.0, 1.0, 1.0)


# each integer field, with a builder that puts a value in it
_INTEGER_FIELDS = {
    "instance_id": lambda v: SourceAnnotation(instance_id=v, category_id=1, bbox=_BOX),
    "category_id": lambda v: SourceAnnotation(instance_id=1, category_id=v, bbox=_BOX),
    "image_id": lambda v: ImageMeta(image_id=v, width=4, height=4),
    "width": lambda v: ImageMeta(image_id=1, width=v, height=4),
    "height": lambda v: ImageMeta(image_id=1, width=4, height=v),
}


@pytest.mark.parametrize("bad", [True, 1.0, "1"], ids=["bool", "float", "string"])
@pytest.mark.parametrize("name", list(_INTEGER_FIELDS))
def test_source_annotation_and_image_meta_take_only_integers(name, bad):
    with pytest.raises(ValueError, match=f"^{name}: expected an integer$"):
        _INTEGER_FIELDS[name](bad)


def test_numpy_integer_ids_and_sides_are_stored_as_ints():
    a = SourceAnnotation(instance_id=np.int64(2), category_id=np.int32(1), bbox=_BOX)
    meta = ImageMeta(image_id=np.uint8(1), width=np.int64(4), height=np.int16(4))
    values = (a.instance_id, a.category_id, meta.image_id, meta.width, meta.height)
    assert [type(v) for v in values] == [int] * 5
    assert values == (2, 1, 1, 4, 4)


def test_crop_config_validation():
    with pytest.raises(ConfigError):
        CropConfig(min_scale=0.0)
    with pytest.raises(ConfigError):
        CropConfig(min_scale=0.8, max_scale=0.5)
    with pytest.raises(ConfigError):
        CropConfig(visibility_threshold=0.0)


# ---------------------------------------------------------------------------
# transform_annotations


def test_transform_identity_window():
    grid = np.zeros((40, 60), dtype=bool)
    grid[10:20, 15:30] = True
    a = ann(1, BBox(15.0, 10.0, 15.0, 10.0), mask=rle_encode(grid))
    out = transform_annotations([a], CropWindow(0.0, 0.0, 60.0, 40.0), CFG)
    assert out == [a]


def test_transform_clip_fixture():
    a = ann(1, BBox(10.0, 10.0, 40.0, 40.0))
    out = transform_annotations([a], CropWindow(20.0, 20.0, 100.0, 100.0), CFG)
    assert len(out) == 1
    b = out[0].bbox
    assert (b.x, b.y, b.w, b.h) == (0.0, 0.0, 30.0, 30.0)


def test_transform_drops_outside_box():
    a = ann(1, BBox(0.0, 0.0, 10.0, 10.0))
    assert transform_annotations([a], CropWindow(50.0, 50.0, 90.0, 90.0), CFG) == []


def test_transform_drops_low_visibility():
    # 10% of the box survives; below the default 0.3 threshold
    a = ann(1, BBox(0.0, 0.0, 100.0, 10.0))
    out = transform_annotations([a], CropWindow(90.0, 0.0, 120.0, 10.0), CFG)
    assert out == []
    relaxed = CropConfig(visibility_threshold=0.05)
    assert len(transform_annotations([a], CropWindow(90.0, 0.0, 120.0, 10.0), relaxed)) == 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_transform_mask_counts_match_decoded_slice(seed):
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(8, 30)), int(rng.integers(8, 30))
    grid = rng.random((h, w)) < 0.4
    ys, xs = np.nonzero(grid)
    if ys.size == 0:
        grid[h // 2, w // 2] = True
        ys, xs = np.nonzero(grid)
    box = BBox(float(xs.min()), float(ys.min()), float(xs.max() - xs.min() + 1), float(ys.max() - ys.min() + 1))
    a = ann(1, box, mask=rle_encode(grid))
    x0 = int(rng.integers(0, w - 1))
    y0 = int(rng.integers(0, h - 1))
    x1 = int(rng.integers(x0 + 1, w + 1))
    y1 = int(rng.integers(y0 + 1, h + 1))
    window = CropWindow(float(x0), float(y0), float(x1), float(y1))
    out = transform_annotations([a], window, CropConfig(visibility_threshold=1e-9))
    expected = grid[y0:y1, x0:x1]
    if not out:
        # only dropped when the clipped box is empty
        bx0, by0 = max(box.x, x0), max(box.y, y0)
        bx1, by1 = min(box.x1, x1), min(box.y1, y1)
        assert bx1 <= bx0 or by1 <= by0
    else:
        assert out[0].mask.area == int(expected.sum())
        assert np.array_equal(rle_decode(out[0].mask), expected)


@given(st.integers(0, 2**32 - 1), st.floats(0.05, 1.0))
@settings(max_examples=80)
def test_visibility_monotone(seed, tau):
    rng = np.random.default_rng(seed)
    anns = []
    for k in range(6):
        x, y = rng.uniform(0, 70, 2)
        w, h = rng.uniform(2, 30, 2)
        anns.append(ann(k, BBox(float(x), float(y), float(w), float(h))))
    window = sample_crop(100, 100, CFG, SplitMix64(seed))
    strict = transform_annotations(anns, window, CropConfig(visibility_threshold=tau))
    loose = transform_annotations(anns, window, CropConfig(visibility_threshold=1e-9))
    assert len(loose) >= len(strict)
    assert {a.instance_id for a in strict} <= {a.instance_id for a in loose}


# ---------------------------------------------------------------------------
# make_pair


def _square_mask(h, w, y, x, side):
    grid = np.zeros((h, w), dtype=bool)
    grid[y : y + side, x : x + side] = True
    return rle_encode(grid)


def test_pair_full_windows_identity_correspondence():
    cfg = CropConfig(min_scale=1.0, max_scale=1.0)
    anns = [
        ann(4, BBox(5.0, 5.0, 10.0, 10.0), mask=_square_mask(50, 50, 5, 5, 10)),
        ann(9, BBox(30.0, 30.0, 10.0, 10.0), mask=_square_mask(50, 50, 30, 30, 10)),
    ]
    pair = make_pair(ImageMeta(1, 50, 50), anns, cfg, SplitMix64(3))
    assert pair.correspondence == ((0, 0), (1, 1))
    assert list(pair.view_a.annotations) == anns
    assert list(pair.view_b.annotations) == anns


def test_pair_disjoint_windows_empty_correspondence():
    cfg = CropConfig(min_scale=0.5, max_scale=0.5)
    rng = ForcedRng([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.999, 0.999])
    anns = [ann(1, BBox(5.0, 5.0, 20.0, 20.0)), ann(2, BBox(75.0, 75.0, 20.0, 20.0))]
    pair = make_pair(ImageMeta(1, 100, 100), anns, cfg, rng)
    assert pair.view_a.window == CropWindow(0.0, 0.0, 50.0, 50.0)
    assert pair.view_b.window == CropWindow(50.0, 50.0, 100.0, 100.0)
    assert [a.instance_id for a in pair.view_a.annotations] == [1]
    assert [a.instance_id for a in pair.view_b.annotations] == [2]
    assert pair.correspondence == ()


def test_pair_shared_instance_at_different_offsets():
    cfg = CropConfig(min_scale=0.5, max_scale=0.5, visibility_threshold=0.1)
    # windows (0,0,50,50) and (20,20,70,70); object at (25,25,20,20) in both
    rng = ForcedRng([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 20 / 51 + 1e-9, 20 / 51 + 1e-9])
    anns = [ann(3, BBox(25.0, 25.0, 20.0, 20.0))]
    pair = make_pair(ImageMeta(1, 100, 100), anns, cfg, rng)
    assert pair.correspondence == ((0, 0),)
    a = pair.view_a.annotations[0].bbox
    b = pair.view_b.annotations[0].bbox
    assert (a.x, a.y) == (25.0, 25.0)
    assert (b.x, b.y) == (5.0, 5.0)
    assert (a.w, a.h) != (b.w, b.h) or (a.x, a.y) != (b.x, b.y)


def test_pair_duplicate_instance_ids_rejected():
    anns = [ann(1, BBox(0.0, 0.0, 5.0, 5.0)), ann(1, BBox(10.0, 10.0, 5.0, 5.0))]
    with pytest.raises(ToolkitError, match="source annotations must have unique instance ids"):
        make_pair(ImageMeta(1, 50, 50), anns, CFG, SplitMix64(0))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_pair_properties(seed):
    rng = np.random.default_rng(seed)
    anns = []
    for k in range(int(rng.integers(1, 6))):
        x, y = rng.uniform(0, 60, 2)
        w, h = rng.uniform(2, 30, 2)
        anns.append(ann(k + 1, BBox(float(x), float(y), float(w), float(h))))
    pair = make_pair(ImageMeta(seed, 96, 96), anns, CFG, SplitMix64(seed))
    again = make_pair(ImageMeta(seed, 96, 96), anns, CFG, SplitMix64(seed))
    assert pair == again  # bit-stable
    for view in (pair.view_a, pair.view_b):
        for a in view.annotations:
            assert a.bbox.x >= 0.0 and a.bbox.y >= 0.0
            assert a.bbox.x1 <= view.window.width + 1e-9
            assert a.bbox.y1 <= view.window.height + 1e-9
    firsts = [ia for ia, _ in pair.correspondence]
    seconds = [ib for _, ib in pair.correspondence]
    assert len(firsts) == len(set(firsts))
    assert len(seconds) == len(set(seconds))
    for ia, ib in pair.correspondence:
        assert (
            pair.view_a.annotations[ia].instance_id == pair.view_b.annotations[ib].instance_id
        )
