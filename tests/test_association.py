"""Similarity scoring, greedy assignment, memory update, whole-video
tracking, and the exhaustive-matching oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import best_matching, matching_margin, reference_assign
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
    MemoryInstance,
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
    instances = [
        MemoryInstance(track_id=k + 1, embedding=Embedding(tuple(float(x) for x in v)), category_id=1, last_seen_frame=0)
        for k, v in enumerate(vectors)
    ]
    return MemoryBank(instances=instances, next_id=next_id or len(vectors) + 1)


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


COARSE_SCORES = (0.3, 0.5, 0.6, 0.8)


@given(st.integers(0, 6), st.integers(0, 6), st.data())
@settings(max_examples=300, deadline=None)
def test_assign_equals_rescanning_reference(n, m, data):
    """The sorted single pass gives the same assignments as rescanning every
    free pair, on a coarse score grid where ties are the rule."""
    scores = np.array(
        data.draw(st.lists(st.sampled_from(COARSE_SCORES), min_size=n * m, max_size=n * m))
    ).reshape(n, m)
    dets = [det(data.draw(st.sampled_from((0.1, 0.2, 0.9))), (1, 0)) for _ in range(n)]
    cfg = AssociationConfig(match_threshold=data.draw(st.sampled_from((0.0, 0.3, 0.5, 0.6))))
    bank = bank_of(*[(1, 0)] * m)
    assert assign(scores, dets, bank, cfg) == reference_assign(scores, dets, bank, cfg)


# ---------------------------------------------------------------------------
# update_memory


def test_update_blends_matched_embedding():
    bank = bank_of((1.0, 0.0))
    d = det(0.9, (0.0, 1.0))
    out = update_memory(bank, [Assignment(0, Outcome.MATCHED, 1)], [d], 3, CFG)
    assert out.instances[0].embedding.values == (0.5, 0.5)
    assert out.instances[0].last_seen_frame == 3
    assert out.instances[0].hit_count == 2


@pytest.mark.parametrize("rho,expected", [(0.0, (1.0, 0.0)), (1.0, (0.0, 1.0))])
def test_update_momentum_extremes(rho, expected):
    cfg = AssociationConfig(memory_momentum=rho)
    bank = bank_of((1.0, 0.0))
    d = det(0.9, (0.0, 1.0))
    out = update_memory(bank, [Assignment(0, Outcome.MATCHED, 1)], [d], 1, cfg)
    assert out.instances[0].embedding.values == expected


def test_update_appends_new_instances_in_pred_order():
    bank = bank_of((1.0, 0.0))
    dets = [det(0.9, (0.3, 0.3)), det(0.8, (0.7, 0.7))]
    out = update_memory(
        bank,
        [Assignment(1, Outcome.NEW_INSTANCE), Assignment(0, Outcome.NEW_INSTANCE)],
        dets,
        2,
        CFG,
    )
    assert [i.track_id for i in out.instances] == [1, 2, 3]
    # ids minted in ascending prediction order regardless of assignment order
    assert out.instances[1].embedding.values == (0.3, 0.3)
    assert out.instances[2].embedding.values == (0.7, 0.7)
    assert out.next_id == 4


def test_update_unknown_track_id():
    from vistrack import UnknownTrackId

    with pytest.raises(UnknownTrackId):
        update_memory(bank_of((1.0, 0.0)), [Assignment(0, Outcome.MATCHED, 99)], [det(0.9, (1, 0))], 1, CFG)


def test_update_retains_unmatched_instances():
    bank = bank_of((1.0, 0.0), (0.0, 1.0))
    out = update_memory(bank, [Assignment(0, Outcome.DISCARDED)], [det(0.1, (1, 0))], 5, CFG)
    assert out.instances == bank.instances  # no expiry, nothing touched


# ---------------------------------------------------------------------------
# track_video


META = VideoMeta(length=10)


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
