"""Merging track sets from multiple sources into one ranked output.

Tracks from all sources are pooled in descending score order and
clustered per category by greedy spatio-temporal non-maximum
suppression: each unclaimed track seeds a cluster and absorbs every
remaining same-category track whose ST-IoU with the seed reaches the
merge threshold. The seed's geometry is kept; the cluster score is
either the weight-averaged or the maximum member score. Every source
weight must be positive, so each cluster's weighted mean is defined.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

from .core import Track, config_numbers, ints, reals
from .errors import ConfigError
from .evaluation import _overlap_index, _pixel_iou, _track_pixels


class ScoreRule(str, Enum):
    MEAN = "mean"
    MAX = "max"


@dataclass(frozen=True)
class FusionConfig:
    merge_iou: float = 0.5
    score_rule: ScoreRule = ScoreRule.MEAN
    max_output_tracks: int = 10
    source_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        config_numbers(self, reals, "merge_iou")
        config_numbers(self, ints, "max_output_tracks")
        if not 0.0 < self.merge_iou <= 1.0:
            raise ConfigError("merge_iou must lie in (0, 1]")
        try:
            object.__setattr__(self, "score_rule", ScoreRule(self.score_rule))
        except ValueError as e:
            raise ConfigError(f"unknown score_rule: {self.score_rule!r}") from e
        if self.max_output_tracks < 1:
            raise ConfigError("max_output_tracks must be positive")
        if self.source_weights is not None:
            ws = reals(self.source_weights, "source_weights", ConfigError)
            object.__setattr__(self, "source_weights", ws)
            if not all(w > 0 for w in ws):
                raise ConfigError("source_weights must all be positive")


def fuse_tracks(track_sets: Sequence[Sequence[Track]], video_length: int, cfg: FusionConfig) -> list[Track]:
    """Fuse per-source track lists for one video into a single ranking.

    Sources are weighted uniformly unless ``cfg.source_weights`` gives
    one weight per source. Output is sorted by descending fused score
    (ties keep pool order), truncated to ``max_output_tracks``, and
    track ids are reassigned where two sources supplied the same id.
    """
    if cfg.source_weights is not None and len(cfg.source_weights) != len(track_sets):
        raise ConfigError("source_weights must match the number of track sets")
    weights = cfg.source_weights or tuple(1.0 for _ in track_sets)

    # Pool in descending score; the stable sort keeps ties in (source, position) order.
    pool = sorted(((t, w) for ts, w in zip(track_sets, weights) for t in ts), key=lambda row: -row[0].score)
    pixels = [_track_pixels(t, video_length, None) for t, _ in pool]
    # A pair that shares no overlap key has ST-IoU 0, below merge_iou > 0.
    keys, holders = _overlap_index([t for t, _ in pool], pixels)

    claimed = [False] * len(pool)
    fused: list[Track] = []
    for i, (seed, _) in enumerate(pool):
        if claimed[i]:
            continue
        claimed[i] = True
        members = [pool[i]]
        for j in sorted(set().union(*(holders[key] for key in keys[i]))):  # ascending pool order
            if j <= i or claimed[j]:
                continue
            if _pixel_iou(pixels[i], pixels[j]) >= cfg.merge_iou:
                claimed[j] = True
                members.append(pool[j])
        if cfg.score_rule is ScoreRule.MAX:
            score = max(t.score for t, _ in members)
        else:
            wsum = sum(w for _, w in members)
            score = sum(t.score * w for t, w in members) / wsum
        fused.append(replace(seed, score=score))

    out = sorted(fused, key=lambda t: -t.score)[: cfg.max_output_tracks]

    # Same id arriving from different sources must not collide downstream.
    seen: set[int] = set()
    next_id = max((t.track_id for t in out), default=0) + 1
    result = []
    for t in out:
        if t.track_id in seen:
            t = replace(t, track_id=next_id)
            next_id += 1
        seen.add(t.track_id)
        result.append(t)
    return result
