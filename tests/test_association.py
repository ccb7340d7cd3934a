"""Similarity scoring, greedy assignment, memory update, whole-video
tracking, and the exhaustive-matching oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    MemoryInstance,
    RecordBank,
    best_matching,
    matching_margin,
    reference_assign,
    reference_track_video,
    reference_update,
)
from vistrack import (
    Assignment,
    AssociationConfig,
    BBox,
    Detection,
    DimensionMismatch,
    Embedding,
    EmptyInput,
    FrameDetections,
    MemoryBank,
    Outcome,
    SimilarityKind,
    VideoMeta,
    assign,
    similarity,
    track_video,
    track_video_with_trace,
    update_memory,
)
from vistrack.association import bisoftmax_scores, cosine_scores, row_softmax


def det(score, embedding, category=1, n_cats=4):
    probs = [0.0] * (n_cats + 1)
    probs[category] = score
    return Detection(
        bbox=BBox(0.0, 0.0, 1.0, 1.0),
        score=score,
        category_id=category,
        class_probs=tuple(probs),
        embedding=Embedding(tuple(float(v) for v in embedding)),
    )


def bank_of(*vectors, next_id=None):
    rows = np.array(vectors, dtype=np.float64) if vectors else np.empty((0, 0))
    return MemoryBank(list(range(1, len(vectors) + 1)), rows, next_id or len(vectors) + 1)


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
    with pytest.raises(EmptyInput):
        similarity([], bank_of((1.0, 0.0)))
    with pytest.raises(EmptyInput):
        similarity([Embedding((1.0, 0.0))], MemoryBank())
    with pytest.raises(DimensionMismatch):
        similarity([Embedding((1.0, 0.0, 0.0))], bank_of((1.0, 0.0)))


def test_similarity_kind_dispatch():
    emb = [Embedding((2.0, 0.0))]
    bank = bank_of((2.0, 0.0), (0.0, 2.0))
    bi = similarity(emb, bank, SimilarityKind.BISOFTMAX)
    cos = similarity(emb, bank, SimilarityKind.COSINE)
    assert bi[0, 0] > bi[0, 1]
    assert cos[0, 0] == pytest.approx(1.0)
    assert cos[0, 1] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# assign


CFG = AssociationConfig()


def test_assign_dominant_diagonal():
    scores = np.array([[0.9, 0.1], [0.2, 0.8]])
    dets = [det(0.9, (1, 0)), det(0.9, (0, 1))]
    out = assign(scores, dets, bank_of((1, 0), (0, 1)), CFG)
    assert [(a.outcome, a.track_id) for a in out] == [
        (Outcome.MATCHED, 1),
        (Outcome.MATCHED, 2),
    ]


def test_assign_below_threshold_high_score_spawns():
    out = assign(np.array([[0.3]]), [det(0.9, (1, 0))], bank_of((1, 0)), CFG)
    assert out == [Assignment(0, Outcome.NEW_INSTANCE, None)]


def test_assign_below_threshold_low_score_discards():
    out = assign(np.array([[0.3]]), [det(0.1, (1, 0))], bank_of((1, 0)), CFG)
    assert out == [Assignment(0, Outcome.DISCARDED, None)]


def test_assign_two_preds_one_memory():
    scores = np.array([[0.9], [0.8]])
    dets = [det(0.9, (1, 0)), det(0.9, (1, 0))]
    out = assign(scores, dets, bank_of((1, 0)), CFG)
    assert out[0] == Assignment(0, Outcome.MATCHED, 1)
    assert out[1] == Assignment(1, Outcome.NEW_INSTANCE, None)


def test_assign_reevaluation_cascade():
    # pred0 takes mem0 at 0.9; pred1 falls back to mem1 at 0.6
    scores = np.array([[0.9, 0.7], [0.85, 0.6]])
    dets = [det(0.9, (1, 0)), det(0.9, (0, 1))]
    out = assign(scores, dets, bank_of((1, 0), (0, 1)), CFG)
    assert out[0].track_id == 1
    assert out[1].track_id == 2


def test_assign_threshold_is_strict():
    out = assign(np.array([[0.5]]), [det(0.9, (1, 0))], bank_of((1, 0)), CFG)
    assert out[0].outcome is Outcome.NEW_INSTANCE


def test_assign_tie_prefers_lowest_indices():
    scores = np.array([[0.8, 0.8], [0.8, 0.8]])
    dets = [det(0.9, (1, 0)), det(0.9, (0, 1))]
    out = assign(scores, dets, bank_of((1, 0), (0, 1)), CFG)
    assert out[0].track_id == 1
    assert out[1].track_id == 2


def test_assign_empty_memory():
    scores = np.zeros((2, 0))
    dets = [det(0.9, (1, 0)), det(0.05, (0, 1))]
    out = assign(scores, dets, MemoryBank(), CFG)
    assert out[0].outcome is Outcome.NEW_INSTANCE
    assert out[1].outcome is Outcome.DISCARDED


def test_assign_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        assign(np.zeros((2, 2)), [det(0.9, (1, 0))], bank_of((1, 0), (0, 1)), CFG)


def test_assign_one_to_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n, m = rng.integers(1, 5), rng.integers(1, 5)
        scores = rng.random((n, m))
        dets = [det(float(rng.uniform(0.3, 0.9)), (1, 0)) for _ in range(n)]
        out = assign(scores, dets, bank_of(*[(1, 0)] * m), CFG)
        matched = [a.track_id for a in out if a.outcome is Outcome.MATCHED]
        assert len(matched) == len(set(matched))
        assert len(out) == n


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_assign_matches_enumeration_when_margin_clear(seed):
    """Greedy equals the exhaustive best one-to-one matching whenever the
    optimum dominates its row/column rivals by more than 0.1."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    scores = rng.uniform(0.05, 0.95, size=(n, m))
    _, oracle_pairs = best_matching(scores, CFG.match_threshold)
    if matching_margin(scores, oracle_pairs) <= 0.1:
        return  # ambiguous instance: the contract is silent here
    dets = [det(0.9, (1, 0)) for _ in range(n)]
    out = assign(scores, dets, bank_of(*[(1, 0)] * m), CFG)
    greedy_pairs = {
        (a.pred_index, a.track_id - 1) for a in out if a.outcome is Outcome.MATCHED
    }
    assert greedy_pairs == oracle_pairs


COARSE_SCORES = (0.3, 0.5, 0.6, 0.8, 1.0, np.nan, np.inf, -np.inf)


@given(st.integers(0, 6), st.one_of(st.integers(0, 6), st.integers(7, 40)), st.data())
@settings(max_examples=300, deadline=None)
def test_assign_equals_rescanning_reference(n, m, data):
    """The sorted single pass gives the same assignments as rescanning every
    free pair, on a coarse score grid where ties are the rule, with
    non-finite scores, thresholds equal to grid values, and banks up to
    40 wide as on a long video."""
    scores = np.array(
        data.draw(st.lists(st.sampled_from(COARSE_SCORES), min_size=n * m, max_size=n * m))
    ).reshape(n, m)
    dets = [det(data.draw(st.sampled_from((0.1, 0.2, 0.9))), (1, 0)) for _ in range(n)]
    cfg = AssociationConfig(match_threshold=data.draw(st.sampled_from((0.0, 0.3, 0.5, 0.6, 0.8, 1.0))))
    bank = bank_of(*[(1, 0)] * m)
    assert assign(scores, dets, bank, cfg) == reference_assign(scores, dets, bank, cfg)


# ---------------------------------------------------------------------------
# update_memory


def test_update_blends_matched_embedding():
    bank = bank_of((1.0, 0.0))
    d = det(0.9, (0.0, 1.0))
    out = update_memory(bank, [Assignment(0, Outcome.MATCHED, 1)], [d], CFG)
    assert out.embeddings[0].tolist() == [0.5, 0.5]


@pytest.mark.parametrize("rho,expected", [(0.0, (1.0, 0.0)), (1.0, (0.0, 1.0))])
def test_update_momentum_extremes(rho, expected):
    cfg = AssociationConfig(memory_momentum=rho)
    bank = bank_of((1.0, 0.0))
    d = det(0.9, (0.0, 1.0))
    out = update_memory(bank, [Assignment(0, Outcome.MATCHED, 1)], [d], cfg)
    assert tuple(out.embeddings[0].tolist()) == expected


def test_update_appends_new_instances_in_pred_order():
    bank = bank_of((1.0, 0.0))
    dets = [det(0.9, (0.3, 0.3)), det(0.8, (0.7, 0.7))]
    out = update_memory(
        bank,
        [Assignment(1, Outcome.NEW_INSTANCE), Assignment(0, Outcome.NEW_INSTANCE)],
        dets,
        CFG,
    )
    assert out.track_ids == [1, 2, 3]
    # ids minted in ascending prediction order regardless of assignment order
    assert out.embeddings[1].tolist() == [0.3, 0.3]
    assert out.embeddings[2].tolist() == [0.7, 0.7]
    assert out.next_id == 4


def test_update_unknown_track_id():
    from vistrack import UnknownTrackId

    with pytest.raises(UnknownTrackId):
        update_memory(bank_of((1.0, 0.0)), [Assignment(0, Outcome.MATCHED, 99)], [det(0.9, (1, 0))], CFG)


def test_update_match_without_track_id():
    from vistrack import UnknownTrackId

    with pytest.raises(UnknownTrackId, match="unknown track id None"):
        update_memory(bank_of((1.0, 0.0)), [Assignment(0, Outcome.MATCHED)], [det(0.9, (1, 0))], CFG)


def test_update_retains_unmatched_instances():
    bank = bank_of((1.0, 0.0), (0.0, 1.0))
    out = update_memory(bank, [Assignment(0, Outcome.DISCARDED)], [det(0.1, (1, 0))], CFG)
    # no expiry, nothing touched
    assert out.track_ids == bank.track_ids
    assert np.array_equal(out.embeddings, bank.embeddings)


def test_update_leaves_input_bank_unchanged():
    bank = bank_of((1.0, 0.0), (0.0, 1.0))
    ids, rows = list(bank.track_ids), bank.embeddings.copy()
    dets = [det(0.9, (0.0, 1.0)), det(0.9, (5.0, 5.0))]
    out = update_memory(bank, [Assignment(0, Outcome.MATCHED, 1), Assignment(1, Outcome.NEW_INSTANCE)], dets, CFG)
    assert out.track_ids == [1, 2, 3] and out.next_id == 4
    assert bank.track_ids == ids and bank.next_id == 3
    assert np.array_equal(bank.embeddings, rows)
    assert not np.shares_memory(out.embeddings, bank.embeddings)


def test_update_rejects_new_rows_of_another_length():
    with pytest.raises(DimensionMismatch):
        update_memory(bank_of((1.0, 0.0)), [Assignment(0, Outcome.NEW_INSTANCE)], [det(0.9, (1, 0, 0))], CFG)


@pytest.mark.parametrize(
    "ids,rows,next_id,message",
    [
        ([1, 1], np.zeros((2, 2)), 3, "unique"),
        ([1, 4], np.zeros((2, 2)), 4, "next_id"),
        ([1, 2], np.zeros(4), 3, "float64"),
        ([1, 2], np.zeros((3, 2)), 3, "one non-empty row per track id"),
        ([1], np.zeros((1, 0)), 2, "one non-empty row per track id"),
        ([1], np.zeros((1, 2), dtype=np.float32), 2, "float64"),
        ([1], [[0.0, 1.0]], 2, "float64"),
        ([1], np.array([[0.0, np.inf]]), 2, "finite"),
    ],
)
def test_memory_bank_invariants(ids, rows, next_id, message):
    with pytest.raises(ValueError, match=message):
        MemoryBank(ids, rows, next_id)


# Components of random real embeddings: a few exact values mixed with
# arbitrary magnitudes.
COORDS = st.one_of(st.sampled_from((0.0, 1.0, -1.0, 0.1, 3.0)), st.floats(-1e6, 1e6))
MOMENTA = (0.0, 0.3, 0.5, 1.0)


def record_bank(bank):
    instances = [
        MemoryInstance(tid, Embedding(tuple(row.tolist())), 1, 0) for tid, row in zip(bank.track_ids, bank.embeddings)
    ]
    return RecordBank(instances, bank.next_id)


@given(st.integers(1, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_update_equals_per_instance_reference(dim, data):
    """The array update gives bit for bit the rows of the per-instance
    record update, which rebuilds every blended embedding as a tuple."""
    vector = st.lists(COORDS, min_size=dim, max_size=dim)
    m = data.draw(st.integers(0, 5))
    bank = bank_of(*data.draw(st.lists(vector, min_size=m, max_size=m)), next_id=m + data.draw(st.integers(1, 3)))
    dets = [det(0.9, v) for v in data.draw(st.lists(vector, max_size=6))]
    free = list(bank.track_ids)
    assignments = []
    for i in range(len(dets)):
        outcome = data.draw(st.sampled_from(list(Outcome)))
        if outcome is Outcome.MATCHED and free:
            assignments.append(Assignment(i, outcome, free.pop(data.draw(st.integers(0, len(free) - 1)))))
        elif outcome is not Outcome.MATCHED:
            assignments.append(Assignment(i, outcome))
    cfg = AssociationConfig(memory_momentum=data.draw(st.sampled_from(MOMENTA)))
    assignments = data.draw(st.permutations(assignments))
    out = update_memory(bank, assignments, dets, cfg)
    ref, _ = reference_update(record_bank(bank), assignments, dets, 0, cfg)
    assert out.track_ids == ref.track_ids
    assert out.next_id == ref.next_id
    assert [tuple(row.tolist()) for row in out.embeddings] == [inst.embedding.values for inst in ref.instances]


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


def test_track_video_rejects_disorder():
    frames = [FrameDetections(1, [det(0.9, (1, 0))]), FrameDetections(0, [det(0.9, (1, 0))])]
    with pytest.raises(ValueError):
        track_video(frames, CFG, META)


def test_track_video_rejects_frame_beyond_length():
    frames = [FrameDetections(12, [det(0.9, (1, 0))])]
    with pytest.raises(ValueError):
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
