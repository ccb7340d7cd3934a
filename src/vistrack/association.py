"""Online embedding association against a per-video memory bank.

Frames are processed in order. Each frame's detections are compared to
the remembered instances by embedding similarity and greedily matched
one-to-one in descending similarity. The bank is an (M, D) array whose
row j holds track j + 1: a matched row is blended in place with its
detection's embedding, ``(1 - rho) * row + rho * embedding`` at
``memory_momentum`` rho, and an unmatched detection either appends a
new row, opening a track (high class score), or is discarded. Rows are
never removed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from ._numpy import np
from .core import Detection, FrameDetections, Track, TrackEntry, VideoMeta
from .core import config_numbers, embedding_rows, ints, reals
from .errors import ConfigError, ToolkitError


class SimilarityKind(str, Enum):
    BISOFTMAX = "bisoftmax"
    COSINE = "cosine"


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
    pred_embeddings: list[tuple[float, ...]] | np.ndarray,
    memory_embeddings: list[tuple[float, ...]] | np.ndarray,
    kind: SimilarityKind = SimilarityKind.BISOFTMAX,
) -> np.ndarray:
    """N x M similarity matrix between N prediction and M memory embeddings.

    Each side is a sequence of embeddings (sequences of reals) or an
    (n, D) float array, as ``embedding_rows`` takes them. Raises
    ToolkitError when either side is empty; callers short-circuit the
    empty-memory case before scoring.
    """
    if not len(pred_embeddings) or not len(memory_embeddings):
        raise ToolkitError("similarity requires at least one prediction and one memory instance")
    return _scores(embedding_rows(pred_embeddings), embedding_rows(memory_embeddings), kind)


def _scores(pred: np.ndarray, mem: np.ndarray, kind: SimilarityKind) -> np.ndarray:
    """``similarity`` of two checked (n, D) float64 arrays."""
    if pred.shape[1] != mem.shape[1]:
        raise ToolkitError("prediction and memory embeddings must share one length")
    if kind is SimilarityKind.COSINE:
        return cosine_scores(pred, mem)
    return bisoftmax_scores(pred @ mem.T)


# ---------------------------------------------------------------------------
# Assignment


def assign(scores: np.ndarray, threshold: float) -> list[int]:
    """Greedy one-to-one matching of the rows of ``scores`` (predictions)
    to its columns (memory instances): the matched column of each row,
    or -1 for a row left without a pair strictly above ``threshold``.

    Candidate pairs are taken in descending score; a pair is accepted
    while both its row and its column are still free. Ties break toward
    the lowest row, then the lowest (oldest) column.

    Only the cells strictly above the threshold can match, so only they
    are sorted (NaN is never above it). They come out of
    ``np.flatnonzero`` in row-major (i, j) order, which the stable sort
    keeps for equal scores.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise ToolkitError("scores must be an N x M matrix over predictions and memory")
    n, m = s.shape
    flat = s.ravel()
    cells = np.flatnonzero(flat > threshold)
    cols = [-1] * n
    taken: set[int] = set()
    for k in cells[np.argsort(-flat[cells], kind="stable")].tolist():
        if len(taken) == min(n, m):
            break
        i, j = divmod(k, m)
        if cols[i] < 0 and j not in taken:
            cols[i] = j
            taken.add(j)
    return cols


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

    Track ids are 1..n in spawn order; detections that spawn on one
    frame take them in ascending detection order. The trace maps
    (frame_index, detection index within the frame) to the assigned
    track id; discarded or capacity-dropped detections are absent.

    Of ``video_meta`` only ``length`` is read: frames must arrive in
    ascending ``frame_index`` below it. The tracker reads no mask pixels,
    so mask sizes are left to the loader (``formats._fit_size``).
    """
    rows = np.empty((0, 0))  # the bank: row j is track j + 1's smoothed embedding
    history: list[list[tuple[int, Detection]]] = []  # row j's (frame, detection) entries
    trace: dict[tuple[int, int], int] = {}
    rho = cfg.memory_momentum
    last_frame = -1
    for fd in frames:
        if fd.frame_index <= last_frame:
            raise ToolkitError("frames must arrive in ascending frame_index order")
        if fd.frame_index >= video_meta.length:
            raise ToolkitError("frame_index must be below the video length")
        last_frame = fd.frame_index
        kept_indices = _keep_top(fd.detections, cfg.keep_top_n_per_frame)
        dets = [fd.detections[i] for i in kept_indices]
        if not dets:
            continue
        # Detection has checked each embedding (non-empty, finite reals), so
        # only their lengths are left to check.
        if len({len(d.embedding) for d in dets}) > 1:
            raise ToolkitError("embeddings must share one length")
        emb = np.array([d.embedding for d in dets], dtype=np.float64)
        if len(rows):
            cols = assign(_scores(emb, rows, cfg.similarity_kind), cfg.match_threshold)
        else:
            cols = [-1] * len(dets)
        fresh = []
        for i, j in enumerate(cols):
            if j >= 0:
                rows[j] = (1.0 - rho) * rows[j] + rho * emb[i]
            elif dets[i].score >= cfg.new_instance_score:
                j = len(history)
                history.append([])
                fresh.append(i)
            else:
                continue
            history[j].append((fd.frame_index, dets[i]))
            trace[(fd.frame_index, kept_indices[i])] = j + 1
        if fresh:
            rows = np.concatenate([rows, emb[fresh]]) if len(rows) else emb[fresh]
    tracks = []
    for j, recorded in enumerate(history):
        entries = {f: TrackEntry(det.bbox, det.mask) for f, det in recorded}
        score = sum(det.score for _, det in recorded) / len(recorded)
        tracks.append(Track(j + 1, _majority_category(recorded), score, entries))
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
