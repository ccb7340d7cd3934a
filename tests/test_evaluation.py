"""Spatio-temporal IoU, track matching, average precision, and the
full evaluator against the decoded-grid brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    evaluate_brute,
    grid_st_iou,
    numpy_ap_from_flags,
    random_micro_corpus,
    reference_id_switches,
    traced_videos,
    track_from_grids,
)
from vistrack import (
    AssociationConfig,
    BBox,
    Metrics,
    SchemaError,
    SynthConfig,
    ToolkitError,
    Track,
    TrackEntry,
    VideoGroundTruth,
    evaluate,
    generate,
    id_switches,
    st_iou,
)
from vistrack.evaluation import (
    IOU_THRESHOLDS,
    MAX_DETECTIONS,
    RECALL_POINTS,
    _RECALL_GRID,
    _ap_from_flags,
    _greedy_match,
    _mean,
    _score_order,
    _st_iou_matrix,
)


def square(h, w, y, x, side):
    g = np.zeros((h, w), dtype=bool)
    g[y : y + side, x : x + side] = True
    return g


# ---------------------------------------------------------------------------
# st_iou


def test_st_iou_identical():
    t = track_from_grids(1, 1, 0.9, {0: square(8, 8, 0, 0, 4), 2: square(8, 8, 2, 2, 3)})
    assert st_iou(t, t, 5) == 1.0


def test_st_iou_disjoint_frames():
    a = track_from_grids(1, 1, 0.9, {0: square(8, 8, 0, 0, 4)})
    b = track_from_grids(2, 1, 0.9, {1: square(8, 8, 0, 0, 4)})
    assert st_iou(a, b, 5) == 0.0


def test_st_iou_half_overlap_fixture():
    # frame 0: identical 10-px masks; frame 1 only in a -> 10 / 20
    ten_px = np.zeros((4, 5), dtype=bool)
    ten_px[0:2, 0:5] = True
    a = track_from_grids(1, 1, 0.9, {0: ten_px, 1: ten_px})
    b = track_from_grids(2, 1, 0.9, {0: ten_px})
    assert st_iou(a, b, 3) == pytest.approx(0.5, abs=1e-12)


def test_st_iou_both_empty_is_one():
    empty = np.zeros((4, 4), dtype=bool)
    a = track_from_grids(1, 1, 0.9, {0: empty})
    b = track_from_grids(2, 1, 0.9, {1: empty})
    assert st_iou(a, b, 3) == 1.0


def test_st_iou_rejects_frame_beyond_length():
    a = track_from_grids(1, 1, 0.9, {4: square(4, 4, 0, 0, 2)})
    with pytest.raises(ToolkitError, match="track entry frame index must be below the video length"):
        st_iou(a, a, 3)


def test_st_iou_rejects_mismatched_dims():
    a = track_from_grids(1, 1, 0.9, {0: square(4, 4, 0, 0, 2)})
    b = track_from_grids(2, 1, 0.9, {0: square(5, 4, 0, 0, 2)})
    with pytest.raises(ToolkitError, match="track mask dimensions must equal video dimensions"):
        st_iou(a, b, 2, video_dims=(4, 4))


def maskless_track(frames, track_id=9, category_id=1):
    entry = TrackEntry(bbox=BBox(0.0, 0.0, 1.0, 1.0), mask=None)
    return Track(track_id=track_id, category_id=category_id, score=0.5, entries={f: entry for f in frames})


@pytest.mark.parametrize("maskless_first", [False, True])
def test_st_iou_rejects_maskless_entry_beyond_length(maskless_first):
    a = track_from_grids(1, 1, 0.9, {0: square(4, 4, 0, 0, 2)})
    b = maskless_track([0, 3])
    pair = (b, a) if maskless_first else (a, b)
    with pytest.raises(ToolkitError, match="track entry frame index must be below the video length"):
        st_iou(*pair, 3)


def test_st_iou_counts_frames_of_one_track_in_the_union():
    four_px = square(4, 4, 0, 0, 2)
    two_px = square(4, 4, 2, 2, 1) | square(4, 4, 3, 3, 1)
    a = track_from_grids(1, 1, 0.9, {0: four_px, 1: four_px})
    b = track_from_grids(2, 1, 0.9, {1: four_px, 2: two_px})
    # intersection 4 (frame 1); union 4 + 4 + 2
    assert st_iou(a, b, 3) == 0.4
    assert st_iou(b, a, 3) == 0.4
    assert st_iou(a, maskless_track([0, 1]), 3) == 0.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150)
def test_st_iou_matches_grid_oracle(seed):
    rng = np.random.default_rng(seed)
    length = int(rng.integers(1, 6))
    h = w = 8

    def rand_track(tid):
        grids = {}
        for f in range(length):
            if rng.random() < 0.7:
                grids[f] = rng.random((h, w)) < rng.uniform(0.0, 0.8)
        if not grids:
            grids[0] = np.zeros((h, w), dtype=bool)
        return track_from_grids(tid, 1, 0.5, grids)

    a, b = rand_track(1), rand_track(2)
    got = st_iou(a, b, length, video_dims=(h, w))
    assert got == pytest.approx(grid_st_iou(a, b, length, h, w), abs=1e-12)
    assert st_iou(b, a, length) == pytest.approx(got, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_st_iou_identical_added_entry_never_decreases(seed):
    rng = np.random.default_rng(seed)
    h = w = 8
    ga = rng.random((h, w)) < 0.5
    gb = rng.random((h, w)) < 0.5
    a = track_from_grids(1, 1, 0.5, {0: ga})
    b = track_from_grids(2, 1, 0.5, {0: gb})
    base = st_iou(a, b, 4)
    extra = rng.random((h, w)) < 0.5
    a2 = track_from_grids(1, 1, 0.5, {0: ga, 1: extra})
    b2 = track_from_grids(2, 1, 0.5, {0: gb, 1: extra})
    assert st_iou(a2, b2, 4) >= base - 1e-12


# ---------------------------------------------------------------------------
# Greedy matching


def test_match_identical_at_every_threshold():
    t = track_from_grids(1, 1, 0.9, {0: square(8, 8, 1, 1, 4)})
    g = track_from_grids(7, 1, 1.0, {0: square(8, 8, 1, 1, 4)})
    iou = _st_iou_matrix([t], [g], 2, None)
    for thr in (0.5, 0.75, 0.95, 1.0):
        assert _greedy_match(iou, thr) == [0]


def test_match_no_predictions():
    g = track_from_grids(7, 1, 1.0, {0: square(8, 8, 1, 1, 4)})
    assert _greedy_match(_st_iou_matrix([], [g], 2, None), 0.5) == []


def test_match_higher_score_wins():
    g = track_from_grids(7, 1, 1.0, {0: square(8, 8, 0, 0, 6)})
    lo = track_from_grids(1, 1, 0.8, {0: square(8, 8, 0, 0, 6)})
    hi = track_from_grids(2, 1, 0.9, {0: square(8, 8, 0, 0, 5)})
    preds = [lo, hi]
    ranked = _score_order(preds)
    assert ranked == [hi, lo]
    # lo overlaps g better, but hi is matched first and takes it
    assert _greedy_match(_st_iou_matrix(ranked, [g], 2, None), 0.5) == [0, -1]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_match_count_monotone_in_threshold(seed):
    rng = np.random.default_rng(seed)
    h = w = 8
    length = 3
    gts = [
        track_from_grids(10 + k, 1, 1.0, {f: rng.random((h, w)) < 0.5 for f in range(length)})
        for k in range(int(rng.integers(1, 4)))
    ]
    preds = [
        track_from_grids(k + 1, 1, float(rng.uniform(0.1, 1.0)), {f: rng.random((h, w)) < 0.5 for f in range(length)})
        for k in range(int(rng.integers(1, 4)))
    ]
    ranked = _score_order(preds)
    iou = _st_iou_matrix(ranked, gts, length, None)
    last = None
    for thr in (0.1, 0.3, 0.5, 0.7, 0.9):
        matched = sum(j >= 0 for j in _greedy_match(iou, thr))
        if last is not None:
            assert matched <= last
        last = matched


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_iou_matrix_equals_st_iou_of_every_pair(seed):
    """Pairs without a shared overlap key are not measured, and still
    read what st_iou gives them: frames missing or maskless, empty masks
    and zero-area tracks included."""
    rng = np.random.default_rng(seed)
    h = w = 6
    length = 4

    def random_track(track_id):
        entries = {}
        while not entries:  # a track has at least one entry
            for f in range(length):
                kind = rng.integers(0, 4)  # absent, maskless, empty, random
                if kind == 1:
                    entries[f] = TrackEntry(bbox=BBox(0.0, 0.0, 1.0, 1.0), mask=None)
                elif kind >= 2:
                    grid = rng.random((h, w)) < (0.0 if kind == 2 else 0.3)
                    entries[f] = track_from_grids(0, 1, 1.0, {f: grid}).entries[f]
        return Track(track_id=track_id, category_id=1, score=float(rng.random()), entries=entries)

    preds = [random_track(k) for k in range(int(rng.integers(0, 5)))]
    gts = [random_track(10 + k) for k in range(int(rng.integers(0, 5)))]
    assert _st_iou_matrix(preds, gts, length, (h, w)) == [[st_iou(p, g, length) for g in gts] for p in preds]


# ---------------------------------------------------------------------------
# Average precision of score-ordered true-positive flags


def test_ap_perfect():
    assert _ap_from_flags([True, True], n_gt=2) == pytest.approx(1.0)


def test_ap_no_tp():
    assert _ap_from_flags([False], n_gt=3) == pytest.approx(0.0)


def test_ap_interpolation_fixture():
    assert _ap_from_flags([True, False, True], n_gt=2) == pytest.approx(253 / 303, abs=1e-12)


def test_ap_unreached_recall_counts_zero():
    # one of two GT found: precision 1 up to recall 0.5, zero beyond
    assert _ap_from_flags([True], n_gt=2) == pytest.approx(51 / 101, abs=1e-12)


@pytest.mark.parametrize(
    "flags,n_gt,expected",
    [
        ([False, True], 1, 0.5),
        ([True, False], 1, 1.0),
        ([True, True], 4, 51 / 101),
        ([True, False, False, True], 2, 76 / 101),
        ([], 2, 0.0),
    ],
    ids=["fp-first", "tp-first", "half-recall", "envelope", "empty"],
)
def test_ap_at_101_recall_points_by_hand(flags, n_gt, expected):
    assert _ap_from_flags(flags, n_gt) == pytest.approx(expected, abs=1e-12)


def test_recall_grid_is_numpy_linspace():
    assert _RECALL_GRID == np.linspace(0.0, 1.0, RECALL_POINTS).tolist()


@pytest.mark.parametrize("seed", range(4))
def test_ap_equals_numpy_bit_for_bit(seed):
    """Random flag lists (empty to 300 long, sparse to dense, n_gt below
    and above the true-positive count) give numpy's AP exactly."""
    rng = np.random.default_rng(seed)
    for _ in range(500):
        flags = (rng.random(int(rng.integers(0, 301))) < rng.random()).tolist()
        n_gt = max(1, sum(flags) + int(rng.integers(-2, 20)))
        assert _ap_from_flags(flags, n_gt) == numpy_ap_from_flags(flags, n_gt)


@pytest.mark.parametrize("lengths", [(1, 7), (8, 128), (129, 2000)], ids=["loop", "unrolled", "halved"])
@pytest.mark.parametrize("scale", ["unit", "mixed"])
def test_mean_equals_numpy_bit_for_bit(lengths, scale):
    """``_mean`` is numpy's pairwise mean in every branch of its sum:
    unit-interval values like the metrics, and signed values whose
    magnitudes span 1e-12 to 1e12, where the summation order shows."""
    rng = np.random.default_rng(lengths[0])
    for _ in range(300):
        n = int(rng.integers(lengths[0], lengths[1] + 1))
        if scale == "unit":
            values = rng.random(n).tolist()
        else:
            values = (rng.standard_normal(n) * 10.0 ** rng.integers(-12, 13, n)).tolist()
        assert _mean(values) == float(np.mean(values))


# ---------------------------------------------------------------------------
# evaluate


def test_protocol_is_youtube_vis():
    assert IOU_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
    assert RECALL_POINTS == 101
    assert MAX_DETECTIONS == (1, 10)


def _one_video_corpus():
    g1 = track_from_grids(1, 1, 1.0, {0: square(8, 8, 0, 0, 4), 1: square(8, 8, 1, 1, 4)})
    g2 = track_from_grids(2, 2, 1.0, {0: square(8, 8, 4, 4, 3)})
    gt = VideoGroundTruth(
        video_id=1, height=8, width=8, length=2, gt_tracks=[g1, g2], category_set=[1, 2, 3]
    )
    p1 = track_from_grids(1, 1, 0.9, {0: square(8, 8, 0, 0, 4), 1: square(8, 8, 1, 1, 4)})
    p2 = track_from_grids(2, 2, 0.8, {0: square(8, 8, 4, 4, 3)})
    return {1: [p1, p2]}, [gt]


def test_evaluate_identical_predictions_all_ones():
    preds, gts = _one_video_corpus()
    report = evaluate(preds, gts)
    assert report.overall.ap == 1.0
    assert report.overall.ap50 == 1.0
    assert report.overall.ap75 == 1.0
    assert report.overall.ar == {1: 1.0, 10: 1.0}


def test_evaluate_empty_predictions_all_zero():
    _, gts = _one_video_corpus()
    report = evaluate({1: []}, gts)
    assert report.overall.ap == 0.0
    assert report.overall.ar == {1: 0.0, 10: 0.0}


def test_evaluate_absent_category_is_none_and_excluded():
    preds, gts = _one_video_corpus()
    report = evaluate(preds, gts)
    assert report.per_category[3] is None
    assert set(report.per_category) == {1, 2, 3}


def test_evaluate_rejects_maskless_result_entry_beyond_length():
    preds, gts = _one_video_corpus()
    bad = maskless_track([0, gts[0].length], track_id=3, category_id=1)
    with pytest.raises(ToolkitError, match="track entry frame index must be below the video length"):
        evaluate({1: preds[1] + [bad]}, gts)


def test_evaluate_one_missed_of_four():
    """Two videos, four GT tracks, predictions hit three of them exactly
    with no false positives: AR at every threshold is 0.75."""
    v1_g1 = track_from_grids(1, 1, 1.0, {0: square(8, 8, 0, 0, 4)})
    v1_g2 = track_from_grids(2, 1, 1.0, {0: square(8, 8, 4, 4, 4)})
    v2_g1 = track_from_grids(1, 1, 1.0, {0: square(8, 8, 0, 0, 5)})
    v2_g2 = track_from_grids(2, 1, 1.0, {1: square(8, 8, 2, 2, 5)})
    gts = [
        VideoGroundTruth(video_id=1, height=8, width=8, length=2, gt_tracks=[v1_g1, v1_g2], category_set=[1]),
        VideoGroundTruth(video_id=2, height=8, width=8, length=2, gt_tracks=[v2_g1, v2_g2], category_set=[1]),
    ]
    preds = {
        1: [
            track_from_grids(1, 1, 0.9, {0: square(8, 8, 0, 0, 4)}),
            track_from_grids(2, 1, 0.8, {0: square(8, 8, 4, 4, 4)}),
        ],
        2: [track_from_grids(1, 1, 0.95, {0: square(8, 8, 0, 0, 5)})],
    }
    report = evaluate(preds, gts)
    assert report.overall.ar[10] == pytest.approx(0.75, abs=1e-12)
    # top-1 per video recalls one GT in each video: 2 of 4 overall
    assert report.overall.ar[1] == pytest.approx(0.5, abs=1e-12)
    brute = evaluate_brute(preds, gts, IOU_THRESHOLDS)
    assert report.overall.ap == pytest.approx(brute["overall"]["ap"], abs=1e-9)


def test_evaluate_unknown_video():
    preds, gts = _one_video_corpus()
    preds[99] = preds[1]
    with pytest.raises(SchemaError, match="^predictions reference unknown video id 99$"):
        evaluate(preds, gts)


def test_evaluate_unknown_category():
    preds, gts = _one_video_corpus()
    preds[1][0] = track_from_grids(1, 9, 0.9, {0: square(8, 8, 0, 0, 4)})
    with pytest.raises(SchemaError, match="^video 1 track 1: predicted category 9 not in category set$"):
        evaluate(preds, gts)


def test_evaluate_rejects_ground_truth_of_an_unknown_category():
    """A ground-truth track outside every category_set would be left out
    of every category's pool, so a perfect prediction of the rest would
    score AP 1.0 without it."""
    preds, gts = _one_video_corpus()
    stray = track_from_grids(5, 5, 1.0, {0: square(8, 8, 2, 2, 2)})
    gts[0].gt_tracks.append(stray)
    with pytest.raises(ToolkitError, match="^video 1 ground-truth track 5: category 5 not in category set$"):
        evaluate(preds, gts)


@pytest.mark.parametrize(
    "stray, message",
    [
        ({0: square(4, 4, 0, 0, 2)}, "track mask dimensions must equal video dimensions"),
        ({2: square(8, 8, 0, 0, 2)}, "track entry frame index must be below the video length"),
    ],
    ids=["mask-size", "frame-beyond-length"],
)
def test_evaluate_checks_each_ground_truth_track_it_compares(stray, message):
    """VideoGroundTruth leaves its tracks to the loader and to evaluate:
    a ground-truth mask of another size, or an entry at a frame not below
    the video's length (2), is an error of the comparison."""
    preds, gts = _one_video_corpus()
    gts[0].gt_tracks.append(track_from_grids(3, 1, 1.0, stray))
    with pytest.raises(ToolkitError, match=f"^{message}$"):
        evaluate(preds, gts)


def test_evaluate_never_matches_across_categories():
    """Categories come from the ground truth: a perfect mask under the
    wrong category recalls nothing."""
    g = track_from_grids(1, 1, 1.0, {0: square(8, 8, 0, 0, 4)})
    gt = VideoGroundTruth(video_id=1, height=8, width=8, length=1, gt_tracks=[g], category_set=[1, 2])
    p = track_from_grids(1, 2, 0.9, {0: square(8, 8, 0, 0, 4)})
    report = evaluate({1: [p]}, [gt])
    assert report.per_category[2] is None
    assert report.per_category[1] == Metrics(ap=0.0, ap50=0.0, ap75=0.0, ar={1: 0.0, 10: 0.0})
    assert report.overall == report.per_category[1]


def test_evaluate_invariant_to_video_and_insertion_order():
    preds, gts = random_micro_corpus(1234)
    base = evaluate(preds, gts)
    flipped_preds = dict(reversed(list(preds.items())))
    flipped_gts = list(reversed(gts))
    again = evaluate(flipped_preds, flipped_gts)
    assert base.overall == again.overall
    assert base.per_category == again.per_category


def test_evaluate_distinct_score_order_irrelevant():
    preds, gts = random_micro_corpus(77)
    # make every score unique, then feed predictions in reversed order
    k = 0
    relabeled = {}
    for vid, tracks in preds.items():
        out = []
        for t in tracks:
            k += 1
            score = 1.0 - k * 1e-3
            out.append(Track(t.track_id, t.category_id, score, dict(t.entries)))
        relabeled[vid] = out
    base = evaluate(relabeled, gts)
    shuffled = {vid: list(reversed(ts)) for vid, ts in relabeled.items()}
    again = evaluate(shuffled, gts)
    assert base.overall == again.overall


def test_evaluate_removing_fp_never_hurts():
    preds, gts = _one_video_corpus()
    junk = track_from_grids(5, 1, 0.85, {1: square(8, 8, 5, 5, 2)})
    with_fp = {1: [preds[1][0], junk, preds[1][1]]}
    lo = evaluate(with_fp, gts)
    hi = evaluate(preds, gts)
    assert hi.overall.ap >= lo.overall.ap - 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_evaluate_matches_brute_force(seed):
    preds, gts = random_micro_corpus(seed)
    report = evaluate(preds, gts)
    brute = evaluate_brute(preds, gts, IOU_THRESHOLDS)
    for c, metrics in report.per_category.items():
        expected = brute[c]
        if metrics is None:
            assert expected is None
            continue
        assert metrics.ap == pytest.approx(expected["ap"], abs=1e-9)
        assert metrics.ap50 == pytest.approx(expected["ap50"], abs=1e-9)
        assert metrics.ap75 == pytest.approx(expected["ap75"], abs=1e-9)
        for k in (1, 10):
            assert metrics.ar[k] == pytest.approx(expected["ar"][k], abs=1e-9)
    if report.overall is None:
        assert brute["overall"] is None
    else:
        assert report.overall.ap == pytest.approx(brute["overall"]["ap"], abs=1e-9)
        assert report.overall.ar[1] == pytest.approx(brute["overall"]["ar"][1], abs=1e-9)


# ---------------------------------------------------------------------------
# identity switches


def test_id_switches_equals_reference_on_hard_corpus():
    corpus = generate(
        SynthConfig(embedding_noise_sigma=0.3, detector_dropout=0.2, clutter_rate=1.0, rng_seed=42)
    )
    total = 0
    for g, frames, trace in traced_videos(corpus, AssociationConfig()):
        expected = reference_id_switches(frames, corpus.identity_key, g.video_id, trace)
        assert id_switches(frames, corpus.identity_key, g.video_id, trace) == expected
        total += expected
    assert total > 0  # the hard regime does switch identities
