"""Cross-run track fusion: pooling, greedy merging, score rules,
truncation, and id hygiene."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_fuse, track_from_grids
from vistrack import (
    BBox,
    ConfigError,
    FusionConfig,
    ScoreRule,
    ToolkitError,
    Track,
    TrackEntry,
    fuse_tracks,
    rle_encode,
    st_iou,
)
from vistrack import fusion


def square(y, x, side, h=8, w=8):
    g = np.zeros((h, w), dtype=bool)
    g[y : y + side, x : x + side] = True
    return g


def test_empty_inputs():
    assert fuse_tracks([], 4, FusionConfig()) == []
    assert fuse_tracks([[], []], 4, FusionConfig()) == []


def test_identical_sets_collapse_to_one():
    t = track_from_grids(1, 1, 0.9, {0: square(0, 0, 4)})
    out = fuse_tracks([[t], [t]], 2, FusionConfig())
    assert len(out) == 1
    assert out[0].entries == t.entries
    assert out[0].score == pytest.approx(0.9)


def test_max_rule_is_idempotent():
    a = track_from_grids(1, 1, 0.9, {0: square(0, 0, 4)})
    b = track_from_grids(2, 2, 0.6, {1: square(3, 3, 4)})
    cfg = FusionConfig(score_rule=ScoreRule.MAX)
    once = fuse_tracks([[a, b]], 2, cfg)
    twice = fuse_tracks([once, once], 2, cfg)
    assert [(t.category_id, t.score, t.entries) for t in twice] == [
        (t.category_id, t.score, t.entries) for t in once
    ]


def test_mean_rule_fixture():
    a = track_from_grids(1, 1, 0.9, {0: square(0, 0, 4)})
    b = track_from_grids(1, 1, 0.7, {0: square(0, 0, 4)})
    out = fuse_tracks([[a], [b]], 2, FusionConfig(score_rule=ScoreRule.MEAN))
    assert len(out) == 1
    assert out[0].score == pytest.approx(0.8, abs=1e-12)
    # seed comes from the higher-scoring source
    assert out[0].entries == a.entries


def test_max_rule_fixture():
    a = track_from_grids(1, 1, 0.9, {0: square(0, 0, 4)})
    b = track_from_grids(1, 1, 0.7, {0: square(0, 0, 4)})
    out = fuse_tracks([[a], [b]], 2, FusionConfig(score_rule=ScoreRule.MAX))
    assert out[0].score == pytest.approx(0.9)


def test_source_weights_shift_the_mean():
    a = track_from_grids(1, 1, 0.9, {0: square(0, 0, 4)})
    b = track_from_grids(1, 1, 0.7, {0: square(0, 0, 4)})
    cfg = FusionConfig(source_weights=(3.0, 1.0))
    out = fuse_tracks([[a], [b]], 2, cfg)
    assert out[0].score == pytest.approx((3 * 0.9 + 1 * 0.7) / 4, abs=1e-12)


def test_weight_count_must_match_sources():
    a = track_from_grids(1, 1, 0.9, {0: square(0, 0, 4)})
    with pytest.raises(ConfigError):
        fuse_tracks([[a]], 2, FusionConfig(source_weights=(1.0, 1.0)))


def test_categories_never_merge():
    a = track_from_grids(1, 1, 0.9, {0: square(0, 0, 4)})
    b = track_from_grids(2, 2, 0.7, {0: square(0, 0, 4)})
    assert st_iou(a, b, 2) == 1.0
    out = fuse_tracks([[a], [b]], 2, FusionConfig())
    assert len(out) == 2


def test_below_merge_iou_stays_separate():
    a = track_from_grids(1, 1, 0.9, {0: square(0, 0, 4)})
    b = track_from_grids(2, 1, 0.7, {0: square(4, 4, 4)})
    out = fuse_tracks([[a], [b]], 2, FusionConfig(merge_iou=0.5))
    assert len(out) == 2
    assert out[0].score >= out[1].score


def test_output_sorted_and_truncated():
    tracks = [
        track_from_grids(k + 1, 1, 0.1 * (k + 1), {0: square(0, k, 1, h=4, w=16)})
        for k in range(6)
    ]
    out = fuse_tracks([tracks], 1, FusionConfig(max_output_tracks=3))
    assert len(out) == 3
    scores = [t.score for t in out]
    assert scores == sorted(scores, reverse=True)
    assert scores[0] == pytest.approx(0.6)


def test_duplicate_ids_get_fresh_ones():
    a = track_from_grids(1, 1, 0.9, {0: square(0, 0, 3)})
    b = track_from_grids(1, 1, 0.7, {0: square(5, 5, 3)})
    out = fuse_tracks([[a], [b]], 2, FusionConfig())
    assert len(out) == 2
    ids = {t.track_id for t in out}
    assert len(ids) == 2
    assert 1 in ids and 2 in ids  # survivor keeps 1, clash remapped past the max


def test_distinct_ids_survive():
    a = track_from_grids(3, 1, 0.9, {0: square(0, 0, 3)})
    b = track_from_grids(7, 1, 0.7, {0: square(5, 5, 3)})
    out = fuse_tracks([[a], [b]], 2, FusionConfig())
    assert {t.track_id for t in out} == {3, 7}


def test_entry_beyond_length_rejected():
    a = track_from_grids(1, 1, 0.9, {3: square(0, 0, 3)})
    with pytest.raises(ToolkitError, match="track entry frame index must be below the video length"):
        fuse_tracks([[a]], 2, FusionConfig())


def test_config_validation():
    with pytest.raises(ConfigError):
        FusionConfig(merge_iou=0.0)
    with pytest.raises(ConfigError):
        FusionConfig(merge_iou=1.5)
    with pytest.raises(ConfigError):
        FusionConfig(max_output_tracks=0)
    with pytest.raises(ConfigError):
        FusionConfig(source_weights=(-1.0, 2.0))
    with pytest.raises(ConfigError):
        FusionConfig(source_weights=(0.0, 0.0))
    with pytest.raises(ConfigError):
        FusionConfig(source_weights=(1.0, 0.0))
    with pytest.raises(ConfigError):
        FusionConfig(score_rule="median")


def test_chain_merge_uses_seed_not_transitivity():
    """A cluster is claimed against its seed: a mid box that overlaps the
    seed joins it even when a farther box would not."""
    seed = track_from_grids(1, 1, 0.9, {0: square(0, 0, 4)})
    near = track_from_grids(2, 1, 0.8, {0: square(0, 1, 4)})
    far = track_from_grids(3, 1, 0.7, {0: square(0, 3, 4)})
    assert st_iou(seed, near, 1) >= 0.5
    assert st_iou(seed, far, 1) < 0.5
    out = fuse_tracks([[seed, near, far]], 1, FusionConfig(merge_iou=0.5))
    assert len(out) == 2
    assert out[0].entries == seed.entries


# ---------------------------------------------------------------------------
# Against the definition-level greedy spatio-temporal NMS

H = W = 3
LENGTH = 3
BOX = BBox(0.0, 0.0, 1.0, 1.0)


def same_fusion(got, want):
    assert [(t.track_id, t.category_id, t.entries) for t in got] == [
        (t.track_id, t.category_id, t.entries) for t in want
    ]
    assert [t.score for t in got] == pytest.approx([t.score for t in want], rel=1e-12, abs=0.0)


def entry(mask):
    return TrackEntry(bbox=BOX, mask=mask)


@pytest.mark.parametrize("rule", list(ScoreRule))
def test_edge_cases_match_reference(rule):
    empty = rle_encode(np.zeros((H, W), dtype=bool))
    corner = rle_encode(square(0, 0, 2, h=H, w=W))
    sets = [
        [
            Track(1, 1, 0.9, {0: entry(None)}),  # no masks at all: IoU 1.0 with the next
            Track(3, 2, 0.7, {0: entry(empty)}),  # all-empty masks: IoU 1.0 with the next
            Track(5, 3, 0.5, {0: entry(corner)}),  # no frame shared with the next: IoU 0
        ],
        [
            Track(2, 1, 0.8, {2: entry(None)}),
            Track(4, 2, 0.6, {1: entry(empty), 2: entry(None)}),
            Track(6, 3, 0.4, {1: entry(corner)}),
        ],
    ]
    cfg = FusionConfig(score_rule=rule)
    got = fuse_tracks(sets, LENGTH, cfg)
    assert [t.track_id for t in got] == [1, 3, 5, 6]
    same_fusion(got, reference_fuse(sets, LENGTH, H, W, cfg))


def test_only_pairs_that_can_merge_are_compared(monkeypatch):
    """A pair that shares no frame where both tracks have a mask has
    ST-IoU 0, or 1.0 when both have zero area; only the latter is
    compared."""
    pairs = []
    real = fusion._pixel_iou
    monkeypatch.setattr(fusion, "_pixel_iou", lambda a, b: pairs.append((a, b)) or real(a, b))
    empty = rle_encode(np.zeros((H, W), dtype=bool))
    corner = rle_encode(square(0, 0, 2, h=H, w=W))
    tracks = [
        Track(1, 1, 0.9, {0: entry(corner)}),
        Track(2, 1, 0.8, {1: entry(corner)}),
        Track(3, 1, 0.7, {0: entry(corner), 2: entry(None)}),  # shares frame 0 with track 1
        Track(4, 2, 0.6, {0: entry(corner)}),  # another category
        Track(5, 1, 0.5, {1: entry(empty)}),  # zero area, shares frame 1 with track 2
        Track(6, 1, 0.4, {2: entry(None)}),  # zero area, shares no masked frame with track 5
    ]
    got = fuse_tracks([tracks], LENGTH, FusionConfig())
    assert len(pairs) == 3
    assert [t.track_id for t in got] == [1, 2, 4, 5]
    same_fusion(got, reference_fuse([tracks], LENGTH, H, W, FusionConfig()))


SHAPES = [
    None,
    np.zeros((H, W), dtype=bool),
    np.ones((H, W), dtype=bool),
    square(0, 0, 2, h=H, w=W),
    square(1, 1, 2, h=H, w=W),
]


@st.composite
def fusion_cases(draw):
    grid = st.one_of(
        st.sampled_from(range(len(SHAPES))).map(lambda k: SHAPES[k]),
        st.lists(st.booleans(), min_size=H * W, max_size=H * W).map(
            lambda bits: np.array(bits, dtype=bool).reshape(H, W)
        ),
    )

    def track():
        frames = draw(st.sets(st.integers(0, LENGTH - 1), min_size=1))
        entries = {}
        for f in sorted(frames):
            g = draw(grid)
            entries[f] = entry(None if g is None else rle_encode(g))
        return Track(
            track_id=draw(st.integers(1, 3)),
            category_id=draw(st.integers(1, 2)),
            score=draw(st.sampled_from([0.3, 0.5, 0.9])),
            entries=entries,
        )

    n_sources = draw(st.integers(1, 3))
    sets = [[track() for _ in range(draw(st.integers(0, 4)))] for _ in range(n_sources)]
    weights = draw(st.none() | st.tuples(*[st.sampled_from([0.5, 1.0, 2.0])] * n_sources))
    cfg = FusionConfig(
        merge_iou=draw(st.sampled_from([0.25, 0.5, 1.0])),
        score_rule=draw(st.sampled_from(list(ScoreRule))),
        max_output_tracks=draw(st.integers(1, 6)),
        source_weights=weights,
    )
    return sets, cfg


@given(fusion_cases())
@settings(max_examples=200, deadline=None)
def test_fuse_tracks_matches_reference_nms(case):
    sets, cfg = case
    got = fuse_tracks(sets, LENGTH, cfg)
    same_fusion(got, reference_fuse(sets, LENGTH, H, W, cfg))
