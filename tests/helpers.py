"""Shared brute-force oracles and fixture builders.

Everything here recomputes results from definitions on decoded pixel
grids or by exhaustive enumeration, deliberately avoiding the library's
run-length and envelope shortcuts, so the tests compare two independent
routes to the same quantity.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from vistrack import (
    CLUTTER,
    BBox,
    RleMask,
    SimilarityKind,
    Track,
    TrackEntry,
    formats,
    rle_decode,
    rle_encode,
    track_video_with_trace,
)
from vistrack.association import bisoftmax_scores, cosine_scores
from vistrack.core import VideoMeta
from vistrack.errors import SchemaError, ToolkitError


# ---------------------------------------------------------------------------
# JSON writer oracle


def quantize(x: float) -> float:
    """``x`` on the grid of 6 significant digits, the value of every float
    the writer writes."""
    return float(f"{x:.6g}")


def reference_dumps(obj) -> str:
    """The byte contract of ``formats._write``, by the stdlib encoder: the
    text of ``obj`` with every float quantized by ``quantize``. A key
    that is not a string raises TypeError."""
    return json.dumps(_quantized(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _quantized(obj):
    """``obj`` with every float ``x``, numpy's included, replaced by
    ``quantize(x)``; a tuple becomes a list."""
    if isinstance(obj, float):
        return quantize(obj)
    if isinstance(obj, (list, tuple)):
        return [_quantized(v) for v in obj]
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        return {key: _quantized(v) for key, v in obj.items()}
    return obj


def streamed_json(obj) -> str:
    """The text that ``formats._stream``, the route of every writer,
    writes for ``obj``."""
    out = io.StringIO()
    formats._stream(obj, out)
    return out.getvalue()


# ---------------------------------------------------------------------------
# The streamed readers at every window


# Characters and snippets a mutation puts into a JSON text: structure,
# the pieces of numbers, members of the detections format, an integer longer
# than int() takes and nesting deeper than the decoder goes.
MUTATION_CHARS = '0123456789.eE+- ,:[]{}"\\\nanx'
MUTATION_SNIPPETS = [
    '"videos": 5,',
    '"videos": [],',
    '"frames": [],',
    '"frames": 5,',
    '"video_id": 1,',
    '"embedding_dim": 2,',
    '"height": 8,',
    '"gain": 1.5e-3,',
    "null",
    "0.",
    "1e",
    "-",
    "[",
    "}",
    "9" * 5000,
    "[" * 3000,
]


@st.composite
def mutated_texts(draw, text: str) -> str:
    """``text`` after one to three edits: a character replaced, a run of
    up to 8 characters deleted, or a character or snippet inserted."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["replace", "delete", "insert", "snippet"]))
        if edit == "replace":
            text = text[:i] + draw(st.sampled_from(MUTATION_CHARS)) + text[i + 1 :]
        elif edit == "delete":
            text = text[:i] + text[i + draw(st.integers(1, 8)) :]
        else:
            piece = draw(st.sampled_from(MUTATION_CHARS if edit == "insert" else MUTATION_SNIPPETS))
            text = text[:i] + piece + text[i:]
    return text


READ_WINDOWS = [1, 5, 64, formats._READ_WINDOW]


def read_at_windows(load, path) -> list[str]:
    """What ``load(path)`` gives at each of ``READ_WINDOWS``: the repr of
    its result or the message of its SchemaError."""
    outcomes = []
    for window in READ_WINDOWS:
        with mock.patch.object(formats, "_READ_WINDOW", window):
            try:
                outcomes.append(repr(load(path)))
            except SchemaError as e:
                outcomes.append(f"SchemaError: {e}")
    return outcomes


# ---------------------------------------------------------------------------
# Mask and track builders


def mask_from_rows(rows: list[str]) -> RleMask:
    """Build a mask from strings of '.' and '#', one per pixel row."""
    grid = np.array([[c == "#" for c in row] for row in rows], dtype=bool)
    return rle_encode(grid)


def random_grid(rng: np.random.Generator, h: int, w: int, density: float = 0.4) -> np.ndarray:
    return rng.random((h, w)) < density


def track_from_grids(track_id: int, category_id: int, score: float, grids: dict[int, np.ndarray]) -> Track:
    entries = {}
    for f, g in grids.items():
        mask = rle_encode(g)
        ys, xs = np.nonzero(g)
        if ys.size:
            bbox = BBox(float(xs.min()), float(ys.min()), float(xs.max() - xs.min() + 1), float(ys.max() - ys.min() + 1))
        else:
            bbox = BBox(0.0, 0.0, 0.0, 0.0)
        entries[f] = TrackEntry(bbox=bbox, mask=mask)
    return Track(track_id=track_id, category_id=category_id, score=score, entries=entries)


def render_shape(shape: str, x: int, y: int, w: int, h: int, canvas_w: int, canvas_h: int) -> np.ndarray:
    """Dense (canvas_h, canvas_w) grid of a synth shape: the rect [x, x + w)
    x [y, y + h), or the ellipse inscribed in it sampled at pixel centers."""
    grid = np.zeros((canvas_h, canvas_w), dtype=bool)
    if shape == "rect":
        grid[y : y + h, x : x + w] = True
        return grid
    cy, cx = y + h / 2.0, x + w / 2.0
    ry, rx = h / 2.0, w / 2.0
    rows = (np.arange(canvas_h) + 0.5 - cy) / ry
    cols = (np.arange(canvas_w) + 0.5 - cx) / rx
    grid[:] = rows[:, None] ** 2 + cols[None, :] ** 2 <= 1.0
    return grid


def reference_shape_mask(shape: str, x: int, y: int, w: int, h: int, canvas_w: int, canvas_h: int) -> tuple[RleMask, BBox]:
    """Mask and tight box of a synth shape, encoded from the box window at
    its position: every column's run of rows [top, bottom) becomes the
    flat bounds col * canvas_h + top and col * canvas_h + bottom. (The
    encoder synth used before it computed each shape's runs once per
    size.)"""
    cols = np.arange(x, x + w)
    if shape == "rect":
        top = np.full(w, y)
        bottom = top + h
    else:
        cy, cx = y + h / 2.0, x + w / 2.0
        ry, rx = h / 2.0, w / 2.0
        rows = (np.arange(y, y + h) + 0.5 - cy) / ry
        inside = rows[:, None] ** 2 + ((cols + 0.5 - cx) / rx)[None, :] ** 2 <= 1.0
        filled = inside.any(axis=0)
        cols, inside = cols[filled], inside[:, filled]
        top = y + inside.argmax(axis=0)
        bottom = y + h - inside[::-1].argmax(axis=0)
    starts = cols * canvas_h + top
    ends = cols * canvas_h + bottom
    bounds = np.zeros(2 * len(starts) + 1, dtype=np.int64)
    bounds[1::2] = starts
    bounds[2::2] = ends
    counts = (bounds[1:] - bounds[:-1]).tolist()
    tail = canvas_w * canvas_h - int(ends[-1])
    if tail:
        counts.append(tail)
    x0, y0 = int(cols[0]), int(top.min())
    bbox = BBox(float(x0), float(y0), float(int(cols[-1]) + 1 - x0), float(int(bottom.max()) - y0))
    return RleMask(height=canvas_h, width=canvas_w, counts=counts), bbox


# ---------------------------------------------------------------------------
# SplitMix64 run backwards

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _unshift(z: int, s: int) -> int:
    """The inverse of z ^ (z >> s) on 64 bits."""
    out = z
    for _ in range(64 // s):
        out = z ^ (out >> s)
    return out


def state_before(z: int, k: int = 1) -> int:
    """The SplitMix64 state whose k-th next draw (next_u64) is ``z``: the
    finalizer inverted step by step, then k increments taken back."""
    z = _unshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK64
    z = _unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK64
    z = _unshift(z, 30)
    return (z - k * _GAMMA) & _MASK64


# ---------------------------------------------------------------------------
# Decoded-grid spatio-temporal IoU


def grid_st_iou(a: Track, b: Track, length: int, h: int, w: int) -> float:
    """Pixel-count ST-IoU on fully decoded dense grids."""
    inter = 0
    union = 0
    for f in range(length):
        ga = np.zeros((h, w), dtype=bool)
        gb = np.zeros((h, w), dtype=bool)
        ea = a.entries.get(f)
        eb = b.entries.get(f)
        if ea is not None and ea.mask is not None:
            ga = rle_decode(ea.mask).astype(bool)
        if eb is not None and eb.mask is not None:
            gb = rle_decode(eb.mask).astype(bool)
        inter += int(np.logical_and(ga, gb).sum())
        union += int(np.logical_or(ga, gb).sum())
    if union == 0:
        return 1.0
    return inter / union


# ---------------------------------------------------------------------------
# Greedy spatio-temporal NMS


def reference_fuse(track_sets, length: int, h: int, w: int, cfg) -> list[Track]:
    """Track fusion by its definition, on decoded-grid ST-IoU.

    Pool every track in descending score (ties: source, then position).
    Until the pool is empty, take its first track as a seed and remove it
    together with every same-category track whose ST-IoU with the seed
    reaches ``cfg.merge_iou``; the cluster keeps the seed's geometry and
    scores the max or the weighted mean of its members. Clusters are
    ranked by score (stable), cut to ``cfg.max_output_tracks``, and a
    track id already used by a higher-ranked output becomes one past the
    largest id of the output.
    """
    weights = cfg.source_weights or [1.0] * len(track_sets)
    pool = [(t, weights[s], s, p) for s, ts in enumerate(track_sets) for p, t in enumerate(ts)]
    pool.sort(key=lambda row: (-row[0].score, row[2], row[3]))
    fused = []
    while pool:
        seed = pool[0][0]
        members = [pool[0]]
        rest = []
        for row in pool[1:]:
            same = row[0].category_id == seed.category_id
            if same and grid_st_iou(seed, row[0], length, h, w) >= cfg.merge_iou:
                members.append(row)
            else:
                rest.append(row)
        pool = rest
        if cfg.score_rule.value == "max":
            score = max(t.score for t, *_ in members)
        else:
            score = sum(t.score * wt for t, wt, *_ in members) / sum(wt for _, wt, *_ in members)
        fused.append(Track(seed.track_id, seed.category_id, score, seed.entries))
    fused.sort(key=lambda t: -t.score)
    out = fused[: cfg.max_output_tracks]
    next_id = max((t.track_id for t in out), default=0) + 1
    seen = set()
    for t in out:
        if t.track_id in seen:
            t.track_id = next_id
            next_id += 1
        seen.add(t.track_id)
    return out


# ---------------------------------------------------------------------------
# numpy average precision


def numpy_ap_from_flags(flags, n_gt: int) -> float:
    """``evaluation._ap_from_flags`` on numpy arrays (``cumsum``,
    ``searchsorted`` over ``linspace``, ``np.mean``): the bit-exact
    oracle of the plain-Python version."""
    if n_gt <= 0:
        raise ValueError("n_gt must be positive")
    if not flags:
        return 0.0
    tp = np.cumsum(np.asarray(flags, dtype=np.float64))
    fp = np.cumsum(1.0 - np.asarray(flags, dtype=np.float64))
    recall = tp / n_gt
    precision = tp / (tp + fp)
    for i in range(precision.size - 1, 0, -1):
        if precision[i] > precision[i - 1]:
            precision[i - 1] = precision[i]
    grid = np.linspace(0.0, 1.0, 101)
    idx = np.searchsorted(recall, grid, side="left")
    sampled = [precision[i] if i < precision.size else 0.0 for i in idx]
    return float(np.mean(sampled))


# ---------------------------------------------------------------------------
# Definition-level corpus evaluator


def _greedy_match_rows(iou_rows: list[list[float]], threshold: float, limit=None) -> tuple[list[bool], int]:
    rows = len(iou_rows) if limit is None else min(limit, len(iou_rows))
    taken: set[int] = set()
    flags = []
    for r in range(rows):
        best, best_v = -1, -1.0
        for j, v in enumerate(iou_rows[r]):
            if j in taken or v < threshold:
                continue
            if v > best_v:
                best, best_v = j, v
        if best >= 0:
            taken.add(best)
            flags.append(True)
        else:
            flags.append(False)
    return flags, len(taken)


def _literal_ap(rows: list[tuple[float, int, int, bool]], n_gt: int, recall_points: int) -> float:
    """AP by the literal definition: for each recall level take the
    maximum precision among operating points whose recall reaches it."""
    order = sorted(range(len(rows)), key=lambda i: (-rows[i][0], rows[i][1], rows[i][2]))
    tp = 0
    points = []  # (recall, precision)
    for rank, i in enumerate(order, start=1):
        tp += 1 if rows[i][3] else 0
        points.append((tp / n_gt, tp / rank))
    total = 0.0
    for r in np.linspace(0.0, 1.0, recall_points):
        best = 0.0
        for rec, prec in points:
            if rec >= r and prec > best:
                best = prec
        total += best
    return total / recall_points


def evaluate_brute(predictions, ground_truth, thresholds, recall_points=101, max_dets=(1, 10)):
    """Returns {category: None | {"ap", "ap50", "ap75", "ar": {k: v}}}
    plus an "overall" entry, straight from the metric definitions."""
    cats = sorted({c for g in ground_truth for c in g.category_set})
    thr_list = list(thresholds)
    all_thr = sorted(set(thr_list) | {0.5, 0.75})
    out = {}
    for c in cats:
        n_gt = sum(1 for g in ground_truth for t in g.gt_tracks if t.category_id == c)
        if n_gt == 0:
            out[c] = None
            continue
        rows_by_thr = {t: [] for t in all_thr}
        recalled = {(t, k): 0 for t in all_thr for k in max_dets}
        for g in sorted(ground_truth, key=lambda g: g.video_id):
            gts = [t for t in g.gt_tracks if t.category_id == c]
            preds = [(i, t) for i, t in enumerate(predictions.get(g.video_id, [])) if t.category_id == c]
            preds.sort(key=lambda it: (-it[1].score, it[0]))
            iou_rows = [
                [grid_st_iou(p, q, g.length, g.height, g.width) for q in gts]
                for _, p in preds
            ]
            for t in all_thr:
                flags, _ = _greedy_match_rows(iou_rows, t)
                for (i, p), hit in zip(preds, flags):
                    rows_by_thr[t].append((p.score, g.video_id, i, hit))
                for k in max_dets:
                    _, matched = _greedy_match_rows(iou_rows, t, limit=k)
                    recalled[(t, k)] += matched
        ap_by_thr = {t: _literal_ap(rows_by_thr[t], n_gt, recall_points) for t in all_thr}
        out[c] = {
            "ap": float(np.mean([ap_by_thr[t] for t in thr_list])),
            "ap50": ap_by_thr[0.5],
            "ap75": ap_by_thr[0.75],
            "ar": {k: float(np.mean([recalled[(t, k)] / n_gt for t in thr_list])) for k in max_dets},
        }
    present = [m for m in out.values() if m is not None]
    out["overall"] = None
    if present:
        out["overall"] = {
            "ap": float(np.mean([m["ap"] for m in present])),
            "ap50": float(np.mean([m["ap50"] for m in present])),
            "ap75": float(np.mean([m["ap75"] for m in present])),
            "ar": {k: float(np.mean([m["ar"][k] for m in present])) for k in max_dets},
        }
    return out


# ---------------------------------------------------------------------------
# Random micro-corpora for evaluator cross-checks


def random_micro_corpus(seed: int):
    """A tiny random corpus: ≤ 3 videos, ≤ 4 GT tracks each, ≤ 5 frames,
    8x8 masks, plus predictions that are a mix of perturbed truths and
    junk. Returns (predictions dict, ground-truth list)."""
    from vistrack import VideoGroundTruth

    rng = np.random.default_rng(seed)
    h = w = 8
    categories = [1, 2]
    gts = []
    predictions = {}
    duplicate_scores = rng.random() < 0.25
    for vid in range(1, int(rng.integers(1, 4)) + 1):
        length = int(rng.integers(1, 6))
        gt_tracks = []
        for tid in range(1, int(rng.integers(0, 5)) + 1):
            grids = {}
            for f in range(length):
                if rng.random() < 0.75:
                    g = random_grid(rng, h, w, density=float(rng.uniform(0.2, 0.7)))
                    if g.any():
                        grids[f] = g
            if not grids:
                grids[int(rng.integers(0, length))] = np.ones((h, w), dtype=bool)
            cat = int(rng.choice(categories))
            gt_tracks.append(track_from_grids(tid, cat, 1.0, grids))
        gts.append(
            VideoGroundTruth(
                video_id=vid,
                height=h,
                width=w,
                length=length,
                gt_tracks=gt_tracks,
                category_set=categories,
            )
        )
        preds = []
        next_id = 1
        for t in gt_tracks:
            if rng.random() < 0.85:  # mostly detected, sometimes missed
                grids = {}
                for f, e in t.entries.items():
                    if rng.random() < 0.9:
                        g = rle_decode(e.mask).astype(bool)
                        flips = random_grid(rng, h, w, density=float(rng.uniform(0.0, 0.25)))
                        grids[f] = np.logical_xor(g, flips)
                if not any(g.any() for g in grids.values()):
                    grids = {f: rle_decode(e.mask).astype(bool) for f, e in t.entries.items()}
                score = 0.5 if duplicate_scores else float(rng.uniform(0.3, 1.0))
                cat = t.category_id if rng.random() < 0.8 else int(rng.choice(categories))
                preds.append(track_from_grids(next_id, cat, score, grids))
                next_id += 1
        for _ in range(int(rng.integers(0, 3))):  # junk
            f = int(rng.integers(0, length))
            g = random_grid(rng, h, w, density=0.3)
            if not g.any():
                g[0, 0] = True
            score = 0.5 if duplicate_scores else float(rng.uniform(0.05, 0.6))
            preds.append(track_from_grids(next_id, int(rng.choice(categories)), score, {f: g}))
            next_id += 1
        predictions[vid] = preds
    return predictions, gts


# ---------------------------------------------------------------------------
# Exhaustive one-to-one assignment enumeration


def all_partial_matchings(n: int, m: int):
    """Every injective partial assignment of rows to columns."""
    for k in range(0, min(n, m) + 1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.permutations(range(m), k):
                yield list(zip(rows, cols))


def best_matching(scores: np.ndarray, threshold: float) -> tuple[float, set[tuple[int, int]]]:
    """Highest-total-score matching using only pairs above threshold.

    Ties are broken toward the lexicographically smallest pair set so
    the oracle itself is deterministic.
    """
    n, m = scores.shape
    best_val = 0.0
    best_pairs: set[tuple[int, int]] = set()
    for matching in all_partial_matchings(n, m):
        if any(scores[i, j] <= threshold for i, j in matching):
            continue
        val = sum(float(scores[i, j]) for i, j in matching)
        key = sorted(matching)
        if val > best_val + 1e-12 or (abs(val - best_val) <= 1e-12 and key < sorted(best_pairs)):
            best_val = val
            best_pairs = set(matching)
    return best_val, best_pairs


def matching_margin(scores: np.ndarray, pairs: set[tuple[int, int]]) -> float:
    """Smallest lead a matched pair has over its row/column competitors."""
    if not pairs:
        return float("inf")
    margin = float("inf")
    for i, j in pairs:
        rivals = [scores[i, q] for q in range(scores.shape[1]) if q != j]
        rivals += [scores[p, j] for p in range(scores.shape[0]) if p != i]
        if rivals:
            margin = min(margin, float(scores[i, j]) - max(float(r) for r in rivals))
    return margin


# ---------------------------------------------------------------------------
# Rescanning greedy assignment


def reference_assign(scores, threshold) -> list[int]:
    """The association step by its definition: repeatedly rescan every
    pending x available pair for the maximum score (ties: lowest
    prediction, then lowest memory index) and stop once it is not
    strictly above the threshold. Returns each row's matched column, or -1."""
    s = np.asarray(scores, dtype=np.float64)
    n, m = s.shape
    available = [True] * m
    pending = list(range(n))
    cols = [-1] * n
    while pending and any(available):
        best_value = -np.inf
        best_pair = None
        for i in pending:
            for j in range(m):
                if available[j] and s[i, j] > best_value:
                    best_value = s[i, j]
                    best_pair = (i, j)
        if best_pair is None or best_value <= threshold:
            break
        i, j = best_pair
        cols[i] = j
        available[j] = False
        pending.remove(i)
    return cols


# ---------------------------------------------------------------------------
# Per-instance memory bank tracker


@dataclass(frozen=True)
class MemoryInstance:
    """One remembered instance: smoothed embedding plus bookkeeping."""

    track_id: int
    embedding: tuple[float, ...]
    category_id: int
    last_seen_frame: int
    hit_count: int = 1


@dataclass
class RecordBank:
    """The memory bank as a list of per-instance records."""

    instances: list[MemoryInstance] = field(default_factory=list)
    next_id: int = 1


def reference_keep_top(detections, cap: int) -> list[int]:
    """The indices, ascending, of the detections that fewer than ``cap``
    others outrank: detection j outranks detection i when its score is
    higher, or equal and j < i."""
    return [
        i
        for i, d in enumerate(detections)
        if sum(e.score > d.score or (e.score == d.score and j < i) for j, e in enumerate(detections)) < cap
    ]


def reference_majority_category(entries) -> int:
    """The category of the most ``(frame, detection)`` entries; among the
    categories tied on that count, the one holding the highest-scoring
    of their entries; among those, the smallest id."""
    categories = [det.category_id for _, det in entries]
    most = max(map(categories.count, categories))
    tied = [(det.category_id, det.score) for _, det in entries if categories.count(det.category_id) == most]
    best = max(score for _, score in tied)
    return min(c for c, score in tied if score == best)


def reference_track_video(frames, cfg, video_meta) -> tuple[list[Track], dict[tuple[int, int], int]]:
    """``track_video_with_trace`` over a bank of per-instance records that
    is stacked into a matrix anew for every frame, with the rescanning
    ``reference_assign``; it blends, opens and discards record by record
    and mints each track id from a counter."""
    bank = RecordBank()
    history: dict[int, list] = {}
    spawn_order: list[int] = []
    trace: dict[tuple[int, int], int] = {}
    last_frame = -1
    for fd in frames:
        if fd.frame_index <= last_frame:
            raise ToolkitError("frames must arrive in ascending frame_index order")
        if fd.frame_index >= video_meta.length:
            raise ToolkitError("frame_index must be below the video length")
        last_frame = fd.frame_index
        kept_indices = reference_keep_top(fd.detections, cfg.keep_top_n_per_frame)
        dets = [fd.detections[i] for i in kept_indices]
        if not dets:
            continue
        if not bank.instances:
            scores = np.zeros((len(dets), 0))
        else:
            pred = np.stack([np.asarray(d.embedding) for d in dets])
            mem = np.stack([np.asarray(inst.embedding) for inst in bank.instances])
            if cfg.similarity_kind is SimilarityKind.COSINE:
                scores = cosine_scores(pred, mem)
            else:
                scores = bisoftmax_scores(pred @ mem.T)
        fresh = []  # records of the tracks this frame opens, appended after it
        for i, j in enumerate(reference_assign(scores, cfg.match_threshold)):
            det = dets[i]
            if j >= 0:
                inst = bank.instances[j]
                rho = cfg.memory_momentum
                blended = (1.0 - rho) * np.asarray(inst.embedding) + rho * np.asarray(det.embedding)
                bank.instances[j] = replace(
                    inst,
                    embedding=tuple(blended),
                    last_seen_frame=fd.frame_index,
                    hit_count=inst.hit_count + 1,
                )
                tid = inst.track_id
            elif det.score >= cfg.new_instance_score:
                tid = bank.next_id
                fresh.append(MemoryInstance(tid, det.embedding, det.category_id, fd.frame_index, 1))
                bank.next_id += 1
            else:
                continue
            if tid not in history:
                history[tid] = []
                spawn_order.append(tid)
            history[tid].append((fd.frame_index, det))
            trace[(fd.frame_index, kept_indices[i])] = tid
        bank.instances += fresh
    tracks = []
    for tid in spawn_order:
        recorded = history[tid]
        entries = {f: TrackEntry(det.bbox, det.mask) for f, det in recorded}
        score = sum(det.score for _, det in recorded) / len(recorded)
        tracks.append(Track(tid, reference_majority_category(recorded), score, entries))
    return tracks, trace


# ---------------------------------------------------------------------------
# Identity switches against a synthetic identity key


def reference_id_switches(frames, identity_key, video_id, trace) -> int:
    """Per ground-truth object, count changes of the assigned track id."""
    seqs = {}
    for fd in frames:
        for d_idx in range(len(fd.detections)):
            tid = identity_key[(video_id, fd.frame_index, d_idx)]
            if tid == CLUTTER:
                continue
            got = trace.get((fd.frame_index, d_idx))
            if got is not None:
                seqs.setdefault(tid, []).append(got)
    return sum(sum(1 for a, b in zip(s, s[1:]) if a != b) for s in seqs.values())


def traced_videos(corpus, cfg):
    """Yield (video ground truth, frames, tracker trace) per corpus video."""
    for g in corpus.ground_truth:
        frames = corpus.detections[g.video_id]
        meta = VideoMeta(length=g.length, height=g.height, width=g.width)
        _, trace = track_video_with_trace(frames, cfg, meta)
        yield g, frames, trace


def videos_with_id_switches(corpus, cfg) -> int:
    """Number of videos with at least one identity switch."""
    return sum(
        reference_id_switches(frames, corpus.identity_key, g.video_id, trace) > 0
        for g, frames, trace in traced_videos(corpus, cfg)
    )


# ---------------------------------------------------------------------------
# Contrastive loss oracle, pair by pair with ``math`` only


def _dot(a, b) -> float:
    return math.fsum(x * y for x, y in zip(a, b))


def _pair_weights(v, positives, negatives) -> list[list[float]]:
    """w[p][q] = exp(gap[p][q]) / (1 + sum exp(gap)), gap[p][q] = v.k-[q] - v.k+[p]."""
    e = [[math.exp(_dot(v, kn) - _dot(v, kp)) for kn in negatives] for kp in positives]
    total = 1.0 + math.fsum(x for row in e for x in row)
    return [[x / total for x in row] for row in e]


def reference_embed_loss(v, positives, negatives) -> float:
    """log(1 + sum over (p, q) of exp(v.k-[q] - v.k+[p])); 0 for an empty set."""
    if not positives or not negatives:
        return 0.0
    gaps = [_dot(v, kn) - _dot(v, kp) for kp in positives for kn in negatives]
    return math.log1p(math.fsum(math.exp(g) for g in gaps))


def reference_embed_loss_grad(v, positives, negatives):
    """(d/dv, [d/dk+[p]], [d/dk-[q]]) as lists, from the docstring formulas:
    d/dv = sum_pq w[p, q] (k-[q] - k+[p]), d/dk-[q] = (sum_p w[p, q]) v,
    d/dk+[p] = -(sum_q w[p, q]) v. Zeros for an empty set."""
    dim = len(v)
    if not positives or not negatives:
        return [0.0] * dim, [[0.0] * dim for _ in positives], [[0.0] * dim for _ in negatives]
    w = _pair_weights(v, positives, negatives)
    grad_v = [
        math.fsum(w[p][q] * (kn[d] - kp[d]) for p, kp in enumerate(positives) for q, kn in enumerate(negatives))
        for d in range(dim)
    ]
    grad_pos = [[-math.fsum(w[p]) * x for x in v] for p in range(len(positives))]
    grad_neg = [[math.fsum(row[q] for row in w) * x for x in v] for q in range(len(negatives))]
    return grad_v, grad_pos, grad_neg


# ---------------------------------------------------------------------------
# The loss and its finite differences one anchor and one element at a time,
# the oracles of the batched ``contrastive._losses`` and ``_numeric_grad``


def gap_matrix(vec: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """The (P, N) gaps ``v.k-[q] - v.k+[p]`` of one (D,) anchor against (P, D) and (N, D) sets."""
    return (neg @ vec)[None, :] - (pos @ vec)[:, None]


def scalar_embed_loss(v, positives, negatives) -> float:
    """``embed_loss`` of one anchor: the shifted log-sum-exp over its (P, N) gap matrix."""
    if not len(positives) or not len(negatives):
        return 0.0
    vec, pos, neg = (np.asarray(x, dtype=np.float64) for x in (v, positives, negatives))
    gaps = gap_matrix(vec, pos, neg)
    shift = max(0.0, float(gaps.max()))
    return float(shift + np.log(np.exp(-shift) + np.exp(gaps - shift).sum()))


def loop_numeric_grad(fn, values: np.ndarray, h: float) -> np.ndarray:
    """Central differences of ``fn`` in each element of ``values`` (any shape), bumped on one copy."""
    bumped = values.copy()
    grad = np.zeros_like(values)
    for i in np.ndindex(values.shape):
        bumped[i] += h
        hi = fn(bumped)
        bumped[i] -= 2.0 * h
        lo = fn(bumped)
        bumped[i] = values[i]
        grad[i] = (hi - lo) / (2.0 * h)
    return grad
