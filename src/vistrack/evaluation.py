"""Spatio-temporal track evaluation under the fixed YouTube-VIS protocol
(Yang et al., "Video Instance Segmentation", ICCV 2019): AP averaged
over the IoU thresholds 0.50:0.05:0.95, AP at 0.50 and 0.75, and AR@1
and AR@10, each per category with 101 recall points, then averaged over
the categories with ground truth.

The track IoU pools pixels over time: sum of per-frame intersections
divided by the sum of per-frame unions, with absent entries (or absent
masks) counting as empty frames. Matching is greedy per video and
category in descending score order; precision/recall curves follow the
standard envelope construction sampled at evenly spaced recall points.
Equal scores are ranked by a stable sort, so they keep (video id, track
emission) order.

AP and the means are computed in plain Python, without numpy: the
running counts of the precision/recall curve are exact integer ratios,
and ``_mean`` repeats numpy's pairwise summation, so every figure equals
the ``np.cumsum``/``np.searchsorted``/``np.mean`` one bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Mapping, Sequence

from .core import CLUTTER, FrameDetections, RleMask, Track, VideoGroundTruth, rle_intersection_area
from .errors import SchemaError, ToolkitError

# The YouTube-VIS protocol of the module docstring; evaluate has no other.
IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
RECALL_POINTS = 101
MAX_DETECTIONS = (1, 10)
# The recall points, equal to np.linspace(0.0, 1.0, RECALL_POINTS).tolist().
_RECALL_GRID = [i * (1.0 / (RECALL_POINTS - 1)) for i in range(RECALL_POINTS - 1)] + [1.0]


@dataclass(frozen=True)
class Metrics:
    """AP averaged over the threshold grid, AP at 0.50/0.75, and AR@k."""

    ap: float
    ap50: float
    ap75: float
    ar: Mapping[int, float]


@dataclass
class EvalReport:
    per_category: dict[int, Metrics | None]
    overall: Metrics | None = None


# ---------------------------------------------------------------------------
# Spatio-temporal IoU


def st_iou(
    a: Track,
    b: Track,
    video_length: int,
    video_dims: tuple[int, int] | None = None,
) -> float:
    """Sum of per-frame intersections over the sum of per-frame unions.

    A frame missing from a track (or present without a mask) contributes
    an empty mask. When both sums are zero the tracks are identical as
    pixel sets, so the value is 1.0.

    Cost: one pass over each track's entries, then one mask intersection
    per frame where both tracks have a mask, so O(shared frames) once the
    tracks are summarized. ``evaluate`` and ``fuse_tracks`` summarize each
    track once, not once per pair.
    """
    return _pixel_iou(
        _track_pixels(a, video_length, video_dims),
        _track_pixels(b, video_length, video_dims),
    )


# A track's masks by frame and their total area.
_Pixels = tuple[dict[int, RleMask], int]


def _track_pixels(track: Track, video_length: int, video_dims: tuple[int, int] | None) -> _Pixels:
    """Check every entry of a track once; return its masks by frame and
    their total area."""
    masks = {}
    area = 0
    for f, e in track.entries.items():
        if f >= video_length:
            raise ToolkitError("track entry frame index must be below the video length")
        m = e.mask
        if m is None:
            continue
        if video_dims is not None and (m.height, m.width) != video_dims:
            raise ToolkitError("track mask dimensions must equal video dimensions")
        masks[f] = m
        area += m.area
    return masks, area


def _pixel_iou(pa: _Pixels, pb: _Pixels) -> float:
    """ST-IoU of two ``_track_pixels`` summaries: the union is both areas
    minus the intersection, which only frames with two masks can have."""
    (masks_a, area_a), (masks_b, area_b) = pa, pb
    if len(masks_b) < len(masks_a):
        masks_a, masks_b = masks_b, masks_a
    inter = 0
    for f, ma in masks_a.items():
        mb = masks_b.get(f)
        if mb is not None:
            inter += rle_intersection_area(ma, mb)
    union = area_a + area_b - inter
    if union == 0:
        return 1.0
    return inter / union


# (category, frame) of a frame with a mask, or (category, None) of a zero-area track.
_OverlapKey = tuple[int, int | None]


def _overlap_index(
    tracks: Sequence[Track], pixels: Sequence[_Pixels]
) -> tuple[list[list[_OverlapKey]], dict[_OverlapKey, list[int]]]:
    """Each track's overlap keys, and the indices of the tracks that hold
    each key in ascending order.

    A track's keys are (category, frame) for every frame where it has a
    mask, and (category, None) when its total area is zero. Two tracks of
    one category that share no key have ST-IoU 0.0; two zero-area tracks
    have ST-IoU 1.0.
    """
    keys = [
        [(t.category_id, f) for f in masks] + ([] if area else [(t.category_id, None)])
        for t, (masks, area) in zip(tracks, pixels)
    ]
    holders: dict[_OverlapKey, list[int]] = {}
    for j, track_keys in enumerate(keys):
        for key in track_keys:
            holders.setdefault(key, []).append(j)
    return keys, holders


# ---------------------------------------------------------------------------
# Matching and average precision


def _score_order(tracks: Sequence[Track]) -> list[Track]:
    """The tracks in descending score; equal scores keep emission order."""
    return sorted(tracks, key=lambda t: -t.score)


def _st_iou_matrix(
    preds: Sequence[Track],
    gts: Sequence[Track],
    video_length: int,
    video_dims: tuple[int, int] | None,
) -> list[list[float]]:
    """ST-IoU of every (prediction, ground truth) pair of one category,
    one row per prediction in the given order.

    Only pairs that share an ``_overlap_index`` key are measured; every
    other pair is 0.0, which is what ``_pixel_iou`` gives them.
    """
    if not preds or not gts:  # a track is checked only when it is compared
        return [[0.0] * len(gts) for _ in preds]
    gt_pixels = [_track_pixels(g, video_length, video_dims) for g in gts]
    _, holders = _overlap_index(gts, gt_pixels)
    pred_pixels = [_track_pixels(p, video_length, video_dims) for p in preds]
    pred_keys, _ = _overlap_index(preds, pred_pixels)
    rows = []
    for pp, keys in zip(pred_pixels, pred_keys):
        row = [0.0] * len(gts)
        for j in set().union(*(holders.get(key, ()) for key in keys)):
            row[j] = _pixel_iou(pp, gt_pixels[j])
        rows.append(row)
    return rows


def _greedy_match(iou: Sequence[Sequence[float]], threshold: float) -> list[int]:
    """Row-by-row greedy matching of score-sorted predictions.

    Each row takes the unmatched column with the highest IoU at or above
    the threshold (ties: lowest column index). Returns the matched column
    per row, -1 where none qualifies. Rows are matched in order, so the
    first k entries are the matching of the first k rows alone.
    """
    matched_cols: set[int] = set()
    out = []
    for row in iou:
        best_j = -1
        best_v = -1.0
        for j, v in enumerate(row):
            if j not in matched_cols and v >= threshold and v > best_v:
                best_v = v
                best_j = j
        if best_j >= 0:
            matched_cols.add(best_j)
        out.append(best_j)
    return out


def _ap_from_flags(flags: Sequence[bool], n_gt: int) -> float:
    """Envelope average precision at evenly spaced recall points, over ``n_gt`` > 0 ground truths."""
    if not flags:
        return 0.0
    recall = []
    precision = []
    tp = 0
    for n, hit in enumerate(flags, 1):
        if hit:
            tp += 1
        recall.append(tp / n_gt)
        precision.append(tp / n)
    for i in range(len(precision) - 1, 0, -1):
        if precision[i] > precision[i - 1]:
            precision[i - 1] = precision[i]
    size = len(precision)
    sampled = []
    for r in _RECALL_GRID:
        i = bisect_left(recall, r)
        sampled.append(precision[i] if i < size else 0.0)
    return _mean(sampled)


def _mean(values: Sequence[float]) -> float:
    """``float(np.mean(values))`` of a non-empty list of floats, bit for
    bit: numpy's pairwise sum, divided by the count."""
    return (0.0 + _pairwise_sum(values, 0, len(values))) / len(values)


def _pairwise_sum(xs: Sequence[float], lo: int, hi: int) -> float:
    """numpy's pairwise summation of ``xs[lo:hi]``: a plain loop below 8
    values, 8 interleaved accumulators up to 128, and above that the two
    halves, split at a multiple of 8, summed the same way."""
    n = hi - lo
    if n < 8:
        res = 0.0
        for i in range(lo, hi):
            res += xs[i]
        return res
    if n <= 128:
        end = hi - n % 8
        r = [reduce(add, xs[lo + k : end : 8]) for k in range(8)]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, hi):
            res += xs[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise_sum(xs, lo, lo + half) + _pairwise_sum(xs, lo + half, hi)


# ---------------------------------------------------------------------------
# Corpus evaluation


@dataclass
class _CategoryPool:
    """One category's predictions pooled over the corpus: ``add`` is the
    per-video step and ``metrics`` the final AP/AR step."""

    n_gt: int = 0
    # the score of each prediction added, in (video, rank) order
    scores: list[float] = field(default_factory=list)
    # thr -> whether each prediction of ``scores`` matched at that threshold
    hits: dict[float, list[bool]] = field(default_factory=lambda: {thr: [] for thr in IOU_THRESHOLDS})
    # (thr, k) -> matched ground-truth count
    recalled: Counter[tuple[float, int]] = field(default_factory=Counter)

    def add(self, ranked: Sequence[Track], gts: Sequence[Track], length: int, dims: tuple[int, int]) -> None:
        """Match one video's predictions of this category, in
        ``_score_order``, against its ground-truth tracks."""
        self.n_gt += len(gts)
        self.scores += [t.score for t in ranked]
        iou = _st_iou_matrix(ranked, gts, length, dims)
        for thr in IOU_THRESHOLDS:
            flags = [j >= 0 for j in _greedy_match(iou, thr)]
            self.hits[thr] += flags
            for k in MAX_DETECTIONS:
                self.recalled[(thr, k)] += sum(flags[:k])

    def metrics(self) -> Metrics | None:
        """AP over every prediction added in descending score, and AR@k;
        None when no video had ground truth of this category."""
        if self.n_gt == 0:
            return None
        # Stable: equal scores keep the (video, rank) order they were added in.
        order = sorted(range(len(self.scores)), key=lambda i: -self.scores[i])
        ap = {thr: _ap_from_flags([flags[i] for i in order], self.n_gt) for thr, flags in self.hits.items()}
        ar = {k: _mean([self.recalled[(thr, k)] / self.n_gt for thr in IOU_THRESHOLDS]) for k in MAX_DETECTIONS}
        return Metrics(ap=_mean([ap[thr] for thr in IOU_THRESHOLDS]), ap50=ap[0.5], ap75=ap[0.75], ar=ar)


def evaluate(
    predictions: Mapping[int, Sequence[Track]],
    ground_truth: Sequence[VideoGroundTruth],
) -> EvalReport:
    """Corpus metrics per category and averaged over categories with
    ground truth.

    ``predictions`` maps video id to that video's tracks in emission
    order. Categories with no ground-truth track anywhere stay absent
    (None) and are excluded from the overall average. AP pools
    predictions of all videos; AR@k truncates each video's predictions
    of a category to its k highest scores before matching.
    """
    gt_by_vid: dict[int, VideoGroundTruth] = {}
    for g in ground_truth:
        if g.video_id in gt_by_vid:
            raise SchemaError(f"duplicate ground-truth video id {g.video_id}")
        gt_by_vid[g.video_id] = g
    for vid in predictions:
        if vid not in gt_by_vid:
            raise SchemaError(f"predictions reference unknown video id {vid}")

    categories = sorted({c for g in ground_truth for c in g.category_set})
    known = set(categories)
    for vid, tracks in predictions.items():
        for t in tracks:
            if t.category_id not in known:
                raise SchemaError(f"video {vid} track {t.track_id}: predicted category {t.category_id} not in category set")
    for g in ground_truth:  # load_annotations checks this for a file
        for t in g.gt_tracks:
            if t.category_id not in known:
                raise ToolkitError(f"video {g.video_id} ground-truth track {t.track_id}: category {t.category_id} not in category set")

    pools = {c: _CategoryPool() for c in categories}
    for vid, g in sorted(gt_by_vid.items()):
        for c, pool in pools.items():
            ranked = _score_order([t for t in predictions.get(vid, ()) if t.category_id == c])
            pool.add(ranked, [t for t in g.gt_tracks if t.category_id == c], g.length, (g.height, g.width))
    per_category = {c: pool.metrics() for c, pool in pools.items()}

    scored = [m for m in per_category.values() if m is not None]
    overall = None
    if scored:
        overall = Metrics(
            ap=_mean([m.ap for m in scored]),
            ap50=_mean([m.ap50 for m in scored]),
            ap75=_mean([m.ap75 for m in scored]),
            ar={k: _mean([m.ar[k] for m in scored]) for k in MAX_DETECTIONS},
        )
    return EvalReport(per_category=per_category, overall=overall)


# ---------------------------------------------------------------------------
# Identity switches


def id_switches(
    frames: Sequence[FrameDetections],
    identity_key: Mapping[tuple[int, int, int], int],
    video_id: int,
    trace: Mapping[tuple[int, int], int],
) -> int:
    """Identity switches of one tracked video (CLEAR MOT): per true object
    of ``identity_key``, the changes of the track id that ``trace`` (from
    ``track_video_with_trace``) assigns to its detections in frame order."""
    seqs: dict[int, list[int]] = {}
    for fd in frames:
        for d_idx in range(len(fd.detections)):
            tid = identity_key[(video_id, fd.frame_index, d_idx)]
            if tid == CLUTTER:
                continue
            got = trace.get((fd.frame_index, d_idx))
            if got is not None:
                seqs.setdefault(tid, []).append(got)
    return sum(sum(1 for a, b in zip(s, s[1:]) if a != b) for s in seqs.values())
