"""Similarity scoring, greedy assignment, whole-video tracking with its
memory update, and the exhaustive-matching oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    best_matching,
    matching_margin,
    reference_assign,
    reference_track_video,
)
from vistrack import (
    AssociationConfig,
    BBox,
    Detection,
    FrameDetections,
    SimilarityKind,
    ToolkitError,
    VideoMeta,
    assign,
    similarity,
    track_video,
    track_video_with_trace,
)
from vistrack.association import bisoftmax_scores, cosine_scores, row_softmax


def det(score, embedding, category=1, n_cats=4, mask=None):
    probs = [0.0] * (n_cats + 1)
    probs[category] = score
    return Detection(
        bbox=BBox(0.0, 0.0, 1.0, 1.0),
        score=score,
        category_id=category,
        class_probs=tuple(probs),
        embedding=embedding,
        mask=mask,
    )


def bank_of(*vectors):
    """Memory rows: one float64 row per remembered instance."""
    return np.array(vectors, dtype=np.float64)


# ---------------------------------------------------------------------------
# Similarity


def test_bisoftmax_singleton_is_one():
    assert bisoftmax_scores(np.array([[17.3]]))[0, 0] == pytest.approx(1.0)


def test_bisoftmax_equal_dots_row():
    f = bisoftmax_scores(np.array([[2.0, 2.0]]))
    assert f[0, 0] == pytest.approx(0.75)
    assert f[0, 1] == pytest.approx(0.75)


def test_bisoftmax_ln3_gap():
    f = bisoftmax_scores(np.array([[np.log(3.0), 0.0]]))
    assert f[0, 0] == pytest.approx(0.875)
    assert f[0, 1] == pytest.approx(0.625)


@st.composite
def dot_matrices(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    return np.array(draw(st.lists(st.floats(-30, 30), min_size=n * m, max_size=n * m))).reshape(n, m)


@given(dot_matrices())
# a near-tie: the shift rounds row 1 to an exact tie, so its argmax moves
@example(np.array([0.0, 0.0, 0.0, 2.220446049250313e-16]).reshape(2, 2))
@settings(max_examples=100)
def test_bisoftmax_row_term_properties(dots):
    n = dots.shape[0]
    rows = row_softmax(dots)
    assert np.allclose(rows.sum(axis=1), 1.0)
    f = bisoftmax_scores(dots)
    assert np.all(f > 0.0) and np.all(f <= 1.0 + 1e-12)
    # shift invariance of the row term: adding a constant per row changes nothing
    shifted = dots + np.arange(n)[:, None] * 7.5
    assert np.allclose(row_softmax(shifted), rows)
    # in floats the shift may break a near-tie either way, but the shifted
    # argmax still picks a maximal entry of the original row
    picked = np.argmax(row_softmax(shifted), axis=1)
    assert np.all(rows[np.arange(n), picked] >= rows.max(axis=1) - 1e-12)


def test_cosine_range_and_zero_vector():
    pred = np.array([[1.0, 0.0], [0.0, 0.0]])
    mem = np.array([[1.0, 0.0], [-1.0, 0.0]])
    f = cosine_scores(pred, mem)
    assert f[0, 0] == pytest.approx(1.0)
    assert f[0, 1] == pytest.approx(0.0)
    # zero vector counts as orthogonal to everything
    assert f[1, 0] == pytest.approx(0.5)


def test_similarity_errors():
    with pytest.raises(ToolkitError, match="similarity requires at least one prediction and one memory instance"):
        similarity([], bank_of((1.0, 0.0)))
    with pytest.raises(ToolkitError, match="similarity requires at least one prediction and one memory instance"):
        similarity([(1.0, 0.0)], np.empty((0, 2)))
    with pytest.raises(ToolkitError, match="prediction and memory embeddings must share one length"):
        similarity([(1.0, 0.0, 0.0)], bank_of((1.0, 0.0)))


def test_similarity_takes_embeddings_on_both_sides():
    pred = [(2.0, 0.0)]
    mem = [(2.0, 0.0), (0.0, 2.0)]
    for kind in SimilarityKind:
        assert np.array_equal(similarity(pred, mem, kind), similarity(bank_of((2.0, 0.0)), bank_of(*mem), kind))


def test_similarity_kind_dispatch():
    emb = [(2.0, 0.0)]
    bank = bank_of((2.0, 0.0), (0.0, 2.0))
    bi = similarity(emb, bank, SimilarityKind.BISOFTMAX)
    cos = similarity(emb, bank, SimilarityKind.COSINE)
    assert bi[0, 0] > bi[0, 1]
    assert cos[0, 0] == pytest.approx(1.0)
    assert cos[0, 1] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# assign


CFG = AssociationConfig()
T = CFG.match_threshold


def test_assign_dominant_diagonal():
    assert assign(np.array([[0.9, 0.1], [0.2, 0.8]]), T) == [0, 1]


def test_assign_two_preds_one_memory():
    assert assign(np.array([[0.9], [0.8]]), T) == [0, -1]


def test_assign_reevaluation_cascade():
    # pred0 takes mem0 at 0.9; pred1 falls back to mem1 at 0.6
    assert assign(np.array([[0.9, 0.7], [0.85, 0.6]]), T) == [0, 1]


def test_assign_threshold_is_strict():
    assert assign(np.array([[0.5]]), 0.5) == [-1]
    assert assign(np.array([[0.3]]), T) == [-1]


def test_assign_tie_prefers_lowest_indices():
    assert assign(np.array([[0.8, 0.8], [0.8, 0.8]]), T) == [0, 1]


def test_assign_empty_memory():
    assert assign(np.zeros((2, 0)), T) == [-1, -1]
    assert assign(np.zeros((0, 3)), T) == []


def test_assign_needs_a_matrix():
    with pytest.raises(ToolkitError, match="scores must be an N x M matrix over predictions and memory"):
        assign(np.zeros(2), T)


def test_assign_one_to_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n, m = rng.integers(1, 5), rng.integers(1, 5)
        cols = assign(rng.random((n, m)), T)
        matched = [j for j in cols if j >= 0]
        assert len(matched) == len(set(matched))
        assert len(cols) == n
        assert all(-1 <= j < m for j in cols)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_assign_matches_enumeration_when_margin_clear(seed):
    """Greedy equals the exhaustive best one-to-one matching whenever the
    optimum dominates its row/column rivals by more than 0.1."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    scores = rng.uniform(0.05, 0.95, size=(n, m))
    _, oracle_pairs = best_matching(scores, T)
    if matching_margin(scores, oracle_pairs) <= 0.1:
        return  # ambiguous instance: the contract is silent here
    greedy_pairs = {(i, j) for i, j in enumerate(assign(scores, T)) if j >= 0}
    assert greedy_pairs == oracle_pairs


COARSE_SCORES = (0.3, 0.5, 0.6, 0.8, 1.0, np.nan, np.inf, -np.inf)


@given(st.integers(0, 6), st.one_of(st.integers(0, 6), st.integers(7, 40)), st.data())
@settings(max_examples=300, deadline=None)
def test_assign_equals_rescanning_reference(n, m, data):
    """The sorted single pass gives the same columns as rescanning every
    free pair, on a coarse score grid where ties are the rule, with
    non-finite scores, thresholds equal to grid values, and banks up to
    40 wide as on a long video."""
    scores = np.array(
        data.draw(st.lists(st.sampled_from(COARSE_SCORES), min_size=n * m, max_size=n * m))
    ).reshape(n, m)
    threshold = data.draw(st.sampled_from((0.0, 0.3, 0.5, 0.6, 0.8, 1.0)))
    assert assign(scores, threshold) == reference_assign(scores, threshold)


# Components of random real embeddings: a few exact values mixed with
# arbitrary magnitudes.
COORDS = st.one_of(st.sampled_from((0.0, 1.0, -1.0, 0.1, 3.0)), st.floats(-1e6, 1e6))
MOMENTA = (0.0, 0.3, 0.5, 1.0)


# ---------------------------------------------------------------------------
# track_video


META = VideoMeta(length=10)


@st.composite
def tracker_inputs(draw):
    dim = draw(st.integers(1, 4))
    vector = st.lists(COORDS, min_size=dim, max_size=dim)
    # a few appearances that recur exactly, so that blended rows tie with
    # fresh ones, plus one-off vectors
    embedding = st.one_of(st.sampled_from(draw(st.lists(vector, min_size=1, max_size=3))), vector)
    length = draw(st.integers(1, 8))
    frames = []
    for f in sorted(draw(st.sets(st.integers(0, length - 1), min_size=1))):
        n = draw(st.integers(0, 6))
        dets = [det(draw(st.floats(0.0, 1.0)), draw(embedding), draw(st.integers(1, 3))) for _ in range(n)]
        frames.append(FrameDetections(f, dets))
    cfg = AssociationConfig(
        match_threshold=draw(st.sampled_from((0.3, 0.5, 0.7))),
        similarity_kind=draw(st.sampled_from(list(SimilarityKind))),
        memory_momentum=draw(st.sampled_from(MOMENTA)),
        keep_top_n_per_frame=draw(st.sampled_from((1, 3, 10))),
    )
    return frames, cfg, VideoMeta(length=length)


RECURRING = (957357.0,)


@given(tracker_inputs())
# one appearance of large norm, seen again and again: the blended row of
# track 1 is an ulp off the fresh row of track 2, and bisoftmax over dots
# near 1e12 turns that ulp into the choice between the two tracks
@example(
    (
        [
            FrameDetections(0, [det(1.0, RECURRING)]),
            FrameDetections(1, [det(0.0, RECURRING), det(1.0, RECURRING)]),
            FrameDetections(2, [det(0.0, RECURRING)]),
        ],
        AssociationConfig(match_threshold=0.3, memory_momentum=0.3, keep_top_n_per_frame=3),
        VideoMeta(length=3),
    )
)
@settings(max_examples=300, deadline=None)
def test_tracker_equals_per_instance_reference(inputs):
    """Tracks (ids, categories, entries, scores) and the trace equal those
    of the per-instance record bank with the rescanning assignment."""
    frames, cfg, meta = inputs
    tracks, trace = track_video_with_trace(frames, cfg, meta)
    ref_tracks, ref_trace = reference_track_video(frames, cfg, meta)
    assert tracks == ref_tracks
    assert trace == ref_trace


def tracked(frames, cfg, length=10):
    """track_video_with_trace, checked against the per-instance reference."""
    meta = VideoMeta(length=length)
    tracks, trace = track_video_with_trace(frames, cfg, meta)
    assert (tracks, trace) == reference_track_video(frames, cfg, meta)
    return tracks, trace


COSINE = AssociationConfig(similarity_kind=SimilarityKind.COSINE)


@pytest.mark.parametrize("rho,track", [(0.0, 2), (0.5, 1), (1.0, 1)])
def test_momentum_decides_a_later_match(rho, track):
    """Frame 1's detection X joins track 1 and pulls its row toward track
    2's. Frame 2's detection Y has dot 0.7 with track 1's first row, 1
    with track 2's and 1.5 with X, so it joins track 2 only while track
    1's row ignores X (rho 0), and track 1 once the row takes half of X
    (dot 1.1) or all of it."""
    frames = [
        FrameDetections(0, [det(0.9, (1.0, 0.0)), det(0.9, (0.0, 1.0))]),
        FrameDetections(1, [det(0.9, (1.0, 0.8))]),
        FrameDetections(2, [det(0.9, (0.7, 1.0))]),
    ]
    _, trace = tracked(frames, AssociationConfig(memory_momentum=rho))
    assert trace == {(0, 0): 1, (0, 1): 2, (1, 0): 1, (2, 0): track}


def test_spawn_at_new_instance_score_and_discard_below():
    """A detection without a match opens a track at exactly
    new_instance_score and is discarded just below it, with an empty
    bank (frame 0) and with a bank it does not match (frame 1: cosine
    0, a score of 0.5, is not above the threshold)."""
    at, below = COSINE.new_instance_score, COSINE.new_instance_score - 0.01
    frames = [
        FrameDetections(0, [det(at, (1.0, 0.0)), det(below, (0.0, 1.0))]),
        FrameDetections(1, [det(below, (0.0, -1.0)), det(at, (0.0, 1.0))]),
    ]
    tracks, trace = tracked(frames, COSINE)
    assert trace == {(0, 0): 1, (1, 1): 2}
    assert [t.track_id for t in tracks] == [1, 2]


def test_fresh_ids_follow_ascending_detection_order():
    """Detections that open tracks on one frame take the next ids in
    detection order, not score order, around a matched one."""
    frames = [
        FrameDetections(0, [det(0.5, (1.0, 0.0, 0.0)), det(0.9, (0.0, 1.0, 0.0))]),
        FrameDetections(1, [det(0.3, (0.0, 0.0, 1.0)), det(0.9, (1.0, 0.0, 0.0)), det(0.6, (0.0, 0.0, -1.0))]),
    ]
    tracks, trace = tracked(frames, COSINE)
    assert trace == {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 1, (1, 2): 4}
    assert [t.track_id for t in tracks] == [1, 2, 3, 4]


def test_unmatched_rows_are_kept():
    """Track 1 goes unseen for two frames, while track 2 is matched and
    a detection is discarded, and then takes its object back."""
    a, b = (1.0, 0.0), (0.0, 1.0)
    frames = [
        FrameDetections(0, [det(0.9, a)]),
        FrameDetections(1, [det(0.9, b), det(0.1, (-1.0, 0.0))]),
        FrameDetections(2, [det(0.9, b)]),
        FrameDetections(3, [det(0.9, a), det(0.9, b)]),
    ]
    tracks, trace = tracked(frames, COSINE)
    assert trace == {(0, 0): 1, (1, 0): 2, (2, 0): 2, (3, 0): 1, (3, 1): 2}
    assert sorted(tracks[0].entries) == [0, 3]


@pytest.mark.parametrize(
    "frames",
    [
        [FrameDetections(0, [det(0.9, (1.0, 0.0))]), FrameDetections(1, [det(0.9, (1.0, 0.0, 0.0))])],
        [FrameDetections(0, [det(0.9, (1.0, 0.0)), det(0.1, (1.0, 0.0, 0.0))])],
    ],
    ids=["against-the-bank", "within-a-frame"],
)
def test_track_video_rejects_embeddings_of_another_length(frames):
    with pytest.raises(ToolkitError, match="embeddings must share one length"):
        track_video(frames, CFG, META)


def test_single_detection_single_track():
    frames = [FrameDetections(0, [det(0.9, (3.0, 0.0))])]
    tracks = track_video(frames, CFG, META)
    assert len(tracks) == 1
    assert sorted(tracks[0].entries) == [0]
    assert tracks[0].score == pytest.approx(0.9)


def test_identical_embedding_joins_track():
    e = (3.0, 0.0)
    frames = [FrameDetections(0, [det(0.9, e)]), FrameDetections(1, [det(0.8, e)])]
    tracks = track_video(frames, CFG, META)
    assert len(tracks) == 1
    assert sorted(tracks[0].entries) == [0, 1]
    assert tracks[0].score == pytest.approx((0.9 + 0.8) / 2)


def test_orthogonal_objects_keep_identities():
    e1, e2 = (3.0, 0.0), (0.0, 3.0)
    frames = [
        FrameDetections(0, [det(0.9, e1, category=1), det(0.8, e2, category=2)]),
        FrameDetections(1, [det(0.7, e2, category=2), det(0.9, e1, category=1)]),
    ]
    tracks, trace = track_video_with_trace(frames, CFG, META)
    assert len(tracks) == 2
    assert trace[(0, 0)] == trace[(1, 1)]  # e1 keeps one id
    assert trace[(0, 1)] == trace[(1, 0)]  # e2 the other
    by_id = {t.track_id: t for t in tracks}
    assert by_id[trace[(0, 0)]].category_id == 1
    assert by_id[trace[(0, 1)]].category_id == 2


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_id_preservation_under_margin(seed):
    """Embeddings whose intra/inter dot gap is at least 2 ln M never switch
    identity, whatever the per-frame detection order."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    length = int(rng.integers(2, 7))
    scale = 3.0  # intra dot 9, inter 0; 9 - 0 >= 2 ln 4
    frames = []
    truth = {}
    for f in range(length):
        order = rng.permutation(m)
        dets = []
        for k in order:
            e = np.zeros(m)
            e[k] = scale
            dets.append(det(float(rng.uniform(0.5, 0.95)), tuple(e), category=int(k) + 1, n_cats=m))
            truth[(f, len(dets) - 1)] = int(k)
        frames.append(FrameDetections(f, dets))
    tracks, trace = track_video_with_trace(frames, CFG, VideoMeta(length=length))
    assert len(tracks) == m
    seen: dict[int, int] = {}
    for (f, d), obj in truth.items():
        tid = trace[(f, d)]
        assert seen.setdefault(obj, tid) == tid


def test_keep_top_n_cap():
    cfg = AssociationConfig(keep_top_n_per_frame=2)
    dets = [det(0.5, (1.0, 0.0)), det(0.9, (0.0, 1.0)), det(0.7, (1.0, 1.0))]
    tracks, trace = track_video_with_trace([FrameDetections(0, dets)], cfg, META)
    assert len(tracks) == 2
    assert set(trace) == {(0, 1), (0, 2)}  # the two highest scores survive


def test_keep_top_n_tie_keeps_the_lower_index():
    cfg = AssociationConfig(keep_top_n_per_frame=2)
    dets = [det(0.5, (1.0, 0.0)), det(0.9, (0.0, 1.0)), det(0.9, (1.0, 1.0)), det(0.9, (-1.0, 0.0))]
    _, trace = tracked([FrameDetections(0, dets)], cfg)
    assert set(trace) == {(0, 1), (0, 2)}  # three tie at 0.9: the two lowest indices survive


def test_track_video_rejects_disorder():
    frames = [FrameDetections(1, [det(0.9, (1, 0))]), FrameDetections(0, [det(0.9, (1, 0))])]
    with pytest.raises(ToolkitError, match=r"^frames must arrive in ascending frame_index order$"):
        track_video(frames, CFG, META)


def test_track_video_rejects_frame_beyond_length():
    frames = [FrameDetections(12, [det(0.9, (1, 0))])]
    with pytest.raises(ToolkitError, match=r"^frame_index must be below the video length$"):
        track_video(frames, CFG, META)


def test_track_score_is_mean_and_majority_category():
    e = (3.0, 0.0)
    frames = [
        FrameDetections(0, [det(0.6, e, category=2)]),
        FrameDetections(1, [det(0.9, e, category=3)]),
        FrameDetections(2, [det(0.8, e, category=3)]),
    ]
    tracks = track_video(frames, CFG, META)
    assert len(tracks) == 1
    assert tracks[0].category_id == 3
    assert tracks[0].score == pytest.approx((0.6 + 0.9 + 0.8) / 3)


def test_majority_tie_takes_highest_scoring_category():
    e = (3.0, 0.0)
    frames = [
        FrameDetections(0, [det(0.6, e, category=2)]),
        FrameDetections(1, [det(0.9, e, category=3)]),
    ]
    tracks = track_video(frames, CFG, META)
    assert tracks[0].category_id == 3


def test_majority_tie_on_count_and_best_score_takes_the_smallest_category():
    e = (3.0, 0.0)
    frames = [
        FrameDetections(0, [det(0.7, e, category=3)]),
        FrameDetections(1, [det(0.7, e, category=2)]),
    ]
    tracks, _ = tracked(frames, CFG)
    assert [t.category_id for t in tracks] == [2]
