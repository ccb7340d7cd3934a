"""Deterministic synthetic video corpus: moving rectangles and ellipses
with exact ground-truth tracks plus detector-style outputs.

Per object the generator fixes one unit base embedding (rejection
sampled so pairwise dots stay below the separation bound) and emits,
per visible frame, a detection whose embedding is the noisy,
renormalized, scaled base. Motion is a uniform integer step per axis
per frame, clipped to the canvas, which makes consecutive boxes overlap
little or not at all; identity must come from the embeddings.

Masks are encoded straight from each shape's box: a rect or an
inscribed ellipse (sampled at pixel centers) covers one run of rows per
column, and no shape spans the canvas height (no side exceeds a third
of the shorter canvas side), so each column's run is one run of the
mask and the counts and the tight box come from those runs without
drawing a canvas. The runs of a shape depend only on its kind, its size
and the canvas height, not on where it sits: they are computed once per
shape and size (in closed form for a rect) and each frame shifts them
to the box's position.

Dropout models occlusion: a dropped (video, object, frame) cell has
neither a detection nor a ground-truth entry. Clutter detections carry
fresh random unit embeddings and low scores and are marked CLUTTER in
the identity key.

Everything is a pure function of the config; the per-video stream is
seeded with rng_seed + video_id, so videos are independent and the
corpus is byte-stable under serialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from ._numpy import np
from .core import (
    CLUTTER,
    BBox,
    Detection,
    FrameDetections,
    RleMask,
    Track,
    TrackEntry,
    VideoGroundTruth,
    config_numbers,
    ints,
    reals,
)
from .errors import ConfigError
from .rng import POISSON_MAX_MEAN, SplitMix64

_MAX_BASE_ATTEMPTS = 10_000
_BASE_SEPARATION = 0.3


@dataclass(frozen=True)
class SynthConfig:
    n_videos: int = 10
    frames_per_video: int = 20
    objects_per_video: int = 4
    canvas: tuple[int, int] = (96, 96)  # (width, height)
    embedding_dim: int = 8
    embedding_noise_sigma: float = 0.05
    detector_dropout: float = 0.0
    clutter_rate: float = 0.0
    motion_step_max: int = 16
    embedding_scale: float = 3.0
    rng_seed: int = 0

    def __post_init__(self):
        config_numbers(self, ints, "n_videos", "frames_per_video", "objects_per_video", "embedding_dim")
        config_numbers(self, ints, "motion_step_max", "rng_seed")
        config_numbers(self, reals, "embedding_noise_sigma", "detector_dropout", "clutter_rate", "embedding_scale")
        object.__setattr__(self, "canvas", ints(self.canvas, "canvas", ConfigError))
        if self.n_videos < 1 or self.frames_per_video < 1:
            raise ConfigError("n_videos and frames_per_video must be positive")
        if not 1 <= self.objects_per_video <= 6:
            raise ConfigError("objects_per_video must lie in [1, 6]")
        if len(self.canvas) != 2 or min(self.canvas) < 16:
            raise ConfigError("canvas must be [width, height] with sides of at least 16 pixels")
        if self.embedding_dim < 2:
            raise ConfigError("embedding_dim must be at least 2")
        if not 0.0 <= self.detector_dropout < 1.0:
            raise ConfigError("detector_dropout must lie in [0, 1)")
        if self.clutter_rate < 0.0:
            raise ConfigError("clutter_rate must be non-negative")
        if self.clutter_rate > POISSON_MAX_MEAN:
            raise ConfigError(
                f"clutter_rate must be at most {POISSON_MAX_MEAN:.6g}, the largest Poisson mean"
                f" whose exp(-mean) is a normal float; got {self.clutter_rate}"
            )
        if self.embedding_noise_sigma < 0.0:
            raise ConfigError("embedding_noise_sigma must be non-negative")
        if self.motion_step_max < 0:
            raise ConfigError("motion_step_max must be non-negative")
        if self.embedding_scale <= 0.0:
            raise ConfigError("embedding_scale must be positive")
        if not 0 <= self.rng_seed < 2**64 - self.n_videos:
            raise ConfigError(
                f"rng_seed must lie in [0, 2**64 - n_videos), as video v is seeded with rng_seed + v; got {self.rng_seed}"
            )


@dataclass
class SynthCorpus:
    ground_truth: list[VideoGroundTruth]
    detections: dict[int, list[FrameDetections]]
    # (video_id, frame_index, detection index) -> GT track id, or CLUTTER
    identity_key: dict[tuple[int, int, int], int] = field(default_factory=dict)


def _unit_gaussian(rng: SplitMix64, dim: int) -> np.ndarray:
    while True:
        v = rng.gauss_many(dim)
        n = float(np.linalg.norm(v))
        if n > 1e-12:
            return v / n


def _sample_bases(rng: SplitMix64, count: int, dim: int) -> list[np.ndarray]:
    """Unit vectors with pairwise dot products at most _BASE_SEPARATION."""
    bases: list[np.ndarray] = []
    attempts = 0
    while len(bases) < count:
        attempts += 1
        if attempts > _MAX_BASE_ATTEMPTS:
            raise ConfigError(
                f"could not place {count} unit embeddings with pairwise dot "
                f"<= {_BASE_SEPARATION} in {dim} dimensions"
            )
        cand = _unit_gaussian(rng, dim)
        if all(float(np.dot(cand, b)) <= _BASE_SEPARATION for b in bases):
            bases.append(cand)
    return bases


def _shape_mask(shape: str, x: int, y: int, w: int, h: int, canvas_w: int, canvas_h: int) -> tuple[RleMask, BBox]:
    """Mask and tight box of a rect or of the ellipse inscribed in the box
    [x, x + w) x [y, y + h): the shape's runs at the origin, shifted. The
    domain is h < canvas_h; a taller shape's column runs can meet, and
    RleMask refuses the empty run between them."""
    if shape == "rect":
        runs = [h, canvas_h - h] * (w - 1) + [h]
        first, end, dx, dy, bw, bh = 0, (w - 1) * canvas_h + h, 0, 0, w, h
    else:
        runs, first, end, dx, dy, bw, bh = _ellipse_runs(w, h, canvas_h)
    shift = x * canvas_h + y
    counts = [first + shift, *runs]
    tail = canvas_w * canvas_h - end - shift
    if tail:
        counts.append(tail)
    bbox = BBox(float(x + dx), float(y + dy), float(bw), float(bh))
    return RleMask(height=canvas_h, width=canvas_w, counts=counts), bbox


@lru_cache(maxsize=256)
def _ellipse_runs(w: int, h: int, canvas_h: int) -> tuple[tuple[int, ...], int, int, int, int, int, int]:
    """The ellipse inscribed in the box [0, w) x [0, h) of a canvas
    ``canvas_h`` rows high: its counts from its first foreground pixel to
    its last, the flat index of that first pixel and of the one past the
    last, and its tight box (x, y, w, h).

    Pixel centers are sampled relative to the box, at multiples of 0.5,
    so the test gives the same floats wherever the box sits, and a box at
    (x, y) has these runs shifted by x * canvas_h + y. The ellipse holds
    at most one run of rows [top, bottom) per column (none in the edge
    columns of a thin one), so the flat run bounds are col * canvas_h +
    top and col * canvas_h + bottom.
    """
    cols = np.arange(w)
    rows = (np.arange(h) + 0.5 - h / 2.0) / (h / 2.0)
    inside = rows[:, None] ** 2 + ((cols + 0.5 - w / 2.0) / (w / 2.0))[None, :] ** 2 <= 1.0
    filled = inside.any(axis=0)
    cols, inside = cols[filled], inside[:, filled]
    top = inside.argmax(axis=0)
    bottom = h - inside[::-1].argmax(axis=0)
    starts = cols * canvas_h + top
    ends = cols * canvas_h + bottom
    bounds = np.empty(2 * len(starts), dtype=np.int64)
    bounds[0::2] = starts
    bounds[1::2] = ends
    x0, y0 = int(cols[0]), int(top.min())
    return (
        tuple(np.diff(bounds).tolist()),
        int(starts[0]),
        int(ends[-1]),
        x0,
        y0,
        int(cols[-1]) + 1 - x0,
        int(bottom.max()) - y0,
    )


def _noisy_embedding(base: np.ndarray, rng: SplitMix64, sigma: float, scale: float) -> tuple[float, ...]:
    if sigma > 0.0:
        vec = base + rng.gauss_many(base.size, sigma)
        n = float(np.linalg.norm(vec))
        if n <= 1e-12:
            vec = base.copy()
        else:
            vec = vec / n
    else:
        vec = base
    return tuple((vec * scale).tolist())


def _detection(
    bbox: BBox, mask: RleMask, score: float, category: int, n_cats: int, embedding: tuple[float, ...]
) -> Detection:
    """A detection of ``category`` with all of its ``score`` on it in ``class_probs``."""
    probs = [0.0] * (n_cats + 1)
    probs[category] = score
    return Detection(
        bbox=bbox, score=score, category_id=category, class_probs=tuple(probs), embedding=embedding, mask=mask
    )


def _generate_video(cfg: SynthConfig, video_id: int) -> tuple[VideoGroundTruth, list[FrameDetections], dict]:
    rng = SplitMix64(cfg.rng_seed + video_id)
    cw, ch = cfg.canvas
    n_obj = cfg.objects_per_video
    side_lo = max(4, min(cw, ch) // 8)
    side_hi = min(cw, ch) // 3

    bases = _sample_bases(rng, n_obj, cfg.embedding_dim)
    shapes: list[str] = []
    sizes: list[tuple[int, int]] = []
    pos: list[tuple[int, int]] = []
    for _ in range(n_obj):
        shapes.append("rect" if rng.next_float() < 0.5 else "ellipse")
        w = rng.randint(side_lo, side_hi)
        h = rng.randint(side_lo, side_hi)
        sizes.append((w, h))
        pos.append((rng.randint(0, cw - w), rng.randint(0, ch - h)))

    n_cats = n_obj  # one category per object; ids are 1-based
    frames: list[FrameDetections] = []
    entries: list[dict[int, TrackEntry]] = [dict() for _ in range(n_obj)]
    identity: dict[tuple[int, int, int], int] = {}

    for f in range(cfg.frames_per_video):
        if f > 0:
            step = cfg.motion_step_max
            for k in range(n_obj):
                dx = rng.randint(-step, step)
                dy = rng.randint(-step, step)
                w, h = sizes[k]
                x, y = pos[k]
                pos[k] = (
                    min(max(x + dx, 0), cw - w),
                    min(max(y + dy, 0), ch - h),
                )
        dets: list[Detection] = []
        for k in range(n_obj):
            if cfg.detector_dropout > 0.0 and rng.next_float() < cfg.detector_dropout:
                continue  # occluded: neither GT entry nor detection
            emb = _noisy_embedding(bases[k], rng, cfg.embedding_noise_sigma, cfg.embedding_scale)
            score = 0.6 + 0.35 * rng.next_float()
            x, y = pos[k]
            w, h = sizes[k]
            mask, bbox = _shape_mask(shapes[k], x, y, w, h, cw, ch)
            identity[(video_id, f, len(dets))] = k + 1
            dets.append(_detection(bbox, mask, score, k + 1, n_cats, emb))
            entries[k][f] = TrackEntry(bbox=bbox, mask=mask)
        if cfg.clutter_rate > 0.0:
            for _ in range(rng.poisson(cfg.clutter_rate)):
                w = rng.randint(side_lo, side_hi)
                h = rng.randint(side_lo, side_hi)
                x = rng.randint(0, cw - w)
                y = rng.randint(0, ch - h)
                cat = rng.randint(1, n_cats)
                emb = tuple(_unit_gaussian(rng, cfg.embedding_dim).tolist())
                score = 0.05 + 0.25 * rng.next_float()
                mask, bbox = _shape_mask("rect", x, y, w, h, cw, ch)
                identity[(video_id, f, len(dets))] = CLUTTER
                dets.append(_detection(bbox, mask, score, cat, n_cats, emb))
        frames.append(FrameDetections(frame_index=f, detections=dets))

    tracks = [
        Track(track_id=k + 1, category_id=k + 1, score=1.0, entries=entries[k])
        for k in range(n_obj)
        if entries[k]  # fully occluded objects leave no track
    ]
    gt = VideoGroundTruth(
        video_id=video_id,
        height=ch,
        width=cw,
        length=cfg.frames_per_video,
        gt_tracks=tracks,
        category_set=list(range(1, n_cats + 1)),
        category_names={c: f"class_{c}" for c in range(1, n_cats + 1)},
    )
    return gt, frames, identity


def generate_videos(cfg: SynthConfig) -> Iterator[tuple[VideoGroundTruth, list[FrameDetections], dict]]:
    """The corpus for ``cfg`` one video at a time, in video id order: its
    ground truth, its frames of detections and its identity key, each
    video generated when it is asked for."""
    for v in range(cfg.n_videos):
        yield _generate_video(cfg, v + 1)


def generate(cfg: SynthConfig) -> SynthCorpus:
    """Build the full corpus for ``cfg``; identical inputs give an
    identical corpus."""
    corpus = SynthCorpus(ground_truth=[], detections={})
    for gt, frames, identity in generate_videos(cfg):
        corpus.ground_truth.append(gt)
        corpus.detections[gt.video_id] = frames
        corpus.identity_key.update(identity)
    return corpus
