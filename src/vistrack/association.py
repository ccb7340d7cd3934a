"""Online embedding association against a per-video memory bank.

Frames are processed in order. Each frame's detections are compared to
the remembered instances by embedding similarity, greedily matched
one-to-one in descending similarity, and the memory is updated with an
exponential moving average. Unmatched detections either open a new
track (high class score) or are discarded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from ._numpy import np
from .core import Detection, Embedding, FrameDetections, Track, TrackEntry, VideoMeta
from .core import config_numbers, embedding_rows, ints, reals
from .errors import ConfigError, DimensionMismatch, EmptyInput, UnknownTrackId


class SimilarityKind(str, Enum):
    BISOFTMAX = "bisoftmax"
    COSINE = "cosine"


class Outcome(str, Enum):
    MATCHED = "matched"
    NEW_INSTANCE = "new_instance"
    DISCARDED = "discarded"


@dataclass
class MemoryBank:
    """Remembered instances, oldest first: their track ids, one smoothed
    float64 embedding row per id, and the next fresh track id."""

    track_ids: list[int] = field(default_factory=list)
    embeddings: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    next_id: int = 1

    def __post_init__(self):
        ids, rows = self.track_ids, self.embeddings
        if len(ids) != len(set(ids)):
            raise ValueError("memory track ids must be unique")
        if ids and self.next_id <= max(ids):
            raise ValueError("next_id must exceed every stored track id")
        if not isinstance(rows, np.ndarray) or rows.dtype != np.float64 or rows.ndim != 2:
            raise ValueError("memory embeddings must be a 2-D float64 array")
        if len(rows) != len(ids) or (ids and not rows.shape[1]):
            raise ValueError("memory embeddings must hold one non-empty row per track id")
        if not np.isfinite(rows).all():
            raise ValueError("memory embeddings must be finite")

    def __len__(self) -> int:
        return len(self.track_ids)


@dataclass(frozen=True)
class AssociationConfig:
    match_threshold: float = 0.5
    new_instance_score: float = 0.2
    similarity_kind: SimilarityKind = SimilarityKind.BISOFTMAX
    memory_momentum: float = 0.5
    keep_top_n_per_frame: int = 10

    def __post_init__(self):
        config_numbers(self, reals, "match_threshold", "new_instance_score", "memory_momentum")
        config_numbers(self, ints, "keep_top_n_per_frame")
        if not 0.0 <= self.match_threshold <= 1.0:
            raise ConfigError("match_threshold must lie in [0, 1]")
        if not 0.0 <= self.new_instance_score <= 1.0:
            raise ConfigError("new_instance_score must lie in [0, 1]")
        if not 0.0 <= self.memory_momentum <= 1.0:
            raise ConfigError("memory_momentum must lie in [0, 1]")
        if self.keep_top_n_per_frame < 1:
            raise ConfigError("keep_top_n_per_frame must be at least 1")
        try:
            object.__setattr__(self, "similarity_kind", SimilarityKind(self.similarity_kind))
        except (TypeError, ValueError) as e:
            raise ConfigError(
                f"unknown similarity_kind: {self.similarity_kind!r} (expected 'bisoftmax' or 'cosine')"
            ) from e


@dataclass(frozen=True)
class Assignment:
    """Outcome for one prediction index of a frame."""

    pred_index: int
    outcome: Outcome
    track_id: int | None = None


# ---------------------------------------------------------------------------
# Similarity


def row_softmax(dots: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a dot-product matrix, overflow safe."""
    d = np.asarray(dots, dtype=np.float64)
    shifted = d - d.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def bisoftmax_scores(dots: np.ndarray) -> np.ndarray:
    """Average of the row-wise and column-wise softmax of a dot matrix.

    Rows are predictions, columns memory instances; the row term
    normalizes each prediction over memory, the column term each memory
    instance over predictions.
    """
    d = np.asarray(dots, dtype=np.float64)
    return 0.5 * (row_softmax(d) + row_softmax(d.T).T)


def cosine_scores(pred: np.ndarray, mem: np.ndarray) -> np.ndarray:
    """0.5 * (1 + cos) pairwise similarity; zero vectors count as orthogonal."""
    pn = np.linalg.norm(pred, axis=1)
    mn = np.linalg.norm(mem, axis=1)
    denom = np.outer(pn, mn)
    dots = pred @ mem.T
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.where(denom > 0.0, dots / np.where(denom > 0.0, denom, 1.0), 0.0)
    return 0.5 * (1.0 + cos)


def similarity(
    pred_embeddings: list[Embedding] | np.ndarray,
    memory: MemoryBank,
    kind: SimilarityKind = SimilarityKind.BISOFTMAX,
) -> np.ndarray:
    """N x M similarity matrix between predictions and memory instances.

    ``pred_embeddings`` are N Embeddings or an (N, D) float array.
    Raises EmptyInput when either side is empty; callers short-circuit
    the empty-memory case before scoring.
    """
    if not len(pred_embeddings) or not len(memory):
        raise EmptyInput("similarity requires at least one prediction and one memory instance")
    pred = embedding_rows(pred_embeddings)
    mem = memory.embeddings
    if pred.shape[1] != mem.shape[1]:
        raise DimensionMismatch("prediction and memory embeddings must share one length")
    if kind is SimilarityKind.COSINE:
        return cosine_scores(pred, mem)
    return bisoftmax_scores(pred @ mem.T)


# ---------------------------------------------------------------------------
# Assignment protocol


def assign(
    scores: np.ndarray,
    detections: list[Detection],
    memory: MemoryBank,
    cfg: AssociationConfig,
) -> list[Assignment]:
    """Greedy one-to-one assignment of predictions to memory instances.

    Candidate pairs are taken in descending similarity; a pair is accepted
    while both its prediction and its memory instance are still free. A
    prediction left without a pair strictly above ``match_threshold``
    opens a new instance when its detection score reaches
    ``new_instance_score`` and is discarded otherwise. Ties break toward
    the lowest prediction index, then the lowest (oldest) memory index.

    Only the cells strictly above the threshold can match, so only they
    are sorted (NaN is never above it). They come out of
    ``np.flatnonzero`` in row-major (i, j) order, which the stable sort
    keeps for equal scores.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2 or s.shape != (len(detections), len(memory)):
        raise DimensionMismatch("scores must be an N x M matrix over detections and memory")
    n, m = s.shape
    flat = s.ravel()
    cells = np.flatnonzero(flat > cfg.match_threshold)
    matched: dict[int, int] = {}
    taken_cols: set[int] = set()
    for k in cells[np.argsort(-flat[cells], kind="stable")].tolist():
        if len(matched) == min(n, m):
            break
        i, j = divmod(k, m)
        if i not in matched and j not in taken_cols:
            matched[i] = j
            taken_cols.add(j)
    out = []
    for i in range(n):
        if i in matched:
            out.append(Assignment(i, Outcome.MATCHED, memory.track_ids[matched[i]]))
        elif detections[i].score >= cfg.new_instance_score:
            out.append(Assignment(i, Outcome.NEW_INSTANCE))
        else:
            out.append(Assignment(i, Outcome.DISCARDED))
    return out


def update_memory(
    memory: MemoryBank,
    assignments: list[Assignment],
    detections: list[Detection],
    cfg: AssociationConfig,
) -> MemoryBank:
    """Blend matched embeddings (EMA with ``memory_momentum``), append new
    instances with fresh ids in ascending prediction order, keep the rest.

    Returns a new bank; ``memory`` is left unchanged.
    """
    rows = memory.embeddings.copy()
    rho = cfg.memory_momentum
    fresh = []
    for a in sorted(assignments, key=lambda a: a.pred_index):
        det = detections[a.pred_index]
        if a.outcome is Outcome.MATCHED:
            try:
                k = memory.track_ids.index(a.track_id)
            except ValueError:
                raise UnknownTrackId(f"assignment references unknown track id {a.track_id}") from None
            if len(det.embedding) != rows.shape[1]:
                raise DimensionMismatch("detection embedding length must match memory")
            rows[k] = (1.0 - rho) * rows[k] + rho * np.asarray(det.embedding)
        elif a.outcome is Outcome.NEW_INSTANCE:
            fresh.append(det.embedding)
    if fresh:
        new_rows = embedding_rows(fresh)
        if len(memory) and new_rows.shape[1] != rows.shape[1]:
            raise DimensionMismatch("detection embedding length must match memory")
        rows = np.concatenate([rows, new_rows]) if len(memory) else new_rows
    next_id = memory.next_id + len(fresh)
    return MemoryBank(memory.track_ids + list(range(memory.next_id, next_id)), rows, next_id)


# ---------------------------------------------------------------------------
# Whole-video tracking


def _keep_top(detections: list[Detection], cap: int) -> list[int]:
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    return sorted(order[:cap])


def _majority_category(entries: list[tuple[int, Detection]]) -> int:
    counts = Counter(det.category_id for _, det in entries)
    best_score: dict[int, float] = {}
    for _, det in entries:
        prev = best_score.get(det.category_id)
        if prev is None or det.score > prev:
            best_score[det.category_id] = det.score
    # majority count, then the category holding the highest-scoring entry,
    # then the smallest category id
    return max(counts, key=lambda c: (counts[c], best_score[c], -c))


def track_video_with_trace(
    frames: list[FrameDetections],
    cfg: AssociationConfig,
    video_meta: VideoMeta,
) -> tuple[list[Track], dict[tuple[int, int], int]]:
    """Run the tracker and also report which track id each detection joined.

    The trace maps (frame_index, detection index within the frame) to the
    assigned track id; discarded or capacity-dropped detections are absent.
    """
    bank = MemoryBank()
    history: dict[int, list[tuple[int, Detection]]] = {}
    spawn_order: list[int] = []
    trace: dict[tuple[int, int], int] = {}
    last_frame = -1
    for fd in frames:
        if fd.frame_index <= last_frame:
            raise ValueError("frames must arrive in ascending frame_index order")
        if fd.frame_index >= video_meta.length:
            raise ValueError("frame_index must be below the video length")
        last_frame = fd.frame_index
        kept_indices = _keep_top(fd.detections, cfg.keep_top_n_per_frame)
        dets = [fd.detections[i] for i in kept_indices]
        if video_meta.height is not None and video_meta.width is not None:
            for det in dets:
                if det.mask is not None and (det.mask.height, det.mask.width) != (
                    video_meta.height,
                    video_meta.width,
                ):
                    raise DimensionMismatch("detection mask dimensions must equal video dimensions")
        if not dets:
            continue
        if len(bank) == 0:
            scores = np.zeros((len(dets), 0))
        else:
            scores = similarity([d.embedding for d in dets], bank, cfg.similarity_kind)
        assignments = assign(scores, dets, bank, cfg)
        known = len(bank)
        bank = update_memory(bank, assignments, dets, cfg)
        fresh_ids = iter(bank.track_ids[known:])
        for a in assignments:  # in ascending pred_index, the order fresh ids were minted
            if a.outcome is Outcome.MATCHED:
                tid = a.track_id
            elif a.outcome is Outcome.NEW_INSTANCE:
                tid = next(fresh_ids)
            else:
                continue
            if tid not in history:
                history[tid] = []
                spawn_order.append(tid)
            history[tid].append((fd.frame_index, dets[a.pred_index]))
            trace[(fd.frame_index, kept_indices[a.pred_index])] = tid
    tracks = []
    for tid in spawn_order:
        recorded = history[tid]
        entries = {f: TrackEntry(det.bbox, det.mask, det.score) for f, det in recorded}
        score = sum(det.score for _, det in recorded) / len(recorded)
        tracks.append(Track(tid, _majority_category(recorded), score, entries))
    return tracks, trace


def track_video(
    frames: list[FrameDetections],
    cfg: AssociationConfig,
    video_meta: VideoMeta,
) -> list[Track]:
    """Associate one video's detections into tracks.

    Per frame at most ``keep_top_n_per_frame`` detections (by score)
    participate. Track category is the majority category over entries
    (ties: the category of the highest-scoring entry, then the smallest
    id); track score is the mean per-frame score.
    """
    tracks, _ = track_video_with_trace(frames, cfg, video_meta)
    return tracks
