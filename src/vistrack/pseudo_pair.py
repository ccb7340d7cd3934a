"""Pseudo key/reference pair generation from still images.

Two independent random crops of one annotated image act as a motion
pair: instances surviving both crops (by visibility) define the
correspondence. Windows are snapped to whole pixels so mask cropping is
exact; the four uniform draws per crop happen in a fixed order (width
scale, height scale, x offset, y offset).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BBox, RleMask, config_numbers, ints, reals, rle_crop
from .errors import ConfigError, SchemaError, ToolkitError
from .rng import SplitMix64


@dataclass(frozen=True)
class CropWindow:
    """Half-open pixel window [x0, x1) x [y0, y1) in source coordinates."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        for name in ("x0", "y0", "x1", "y1"):
            object.__setattr__(self, name, reals((getattr(self, name),), f"crop window {name}")[0])
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError("crop window must have positive extent")
        if self.x0 < 0.0 or self.y0 < 0.0:
            raise ValueError("crop window must start inside the image")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0


@dataclass(frozen=True)
class ImageMeta:
    image_id: int
    width: int
    height: int

    def __post_init__(self):
        for name in ("image_id", "width", "height"):
            object.__setattr__(self, name, ints((getattr(self, name),), name)[0])


@dataclass(frozen=True)
class SourceAnnotation:
    """One annotated instance on a still image (or a transformed copy)."""

    instance_id: int
    category_id: int
    bbox: BBox
    mask: RleMask | None = None

    def __post_init__(self):
        for name in ("instance_id", "category_id"):
            object.__setattr__(self, name, ints((getattr(self, name),), name)[0])


@dataclass(frozen=True)
class CropView:
    window: CropWindow
    annotations: tuple[SourceAnnotation, ...]


@dataclass(frozen=True)
class CropPairSample:
    """Two views of one source image plus the index correspondence."""

    source_image_id: int
    view_a: CropView
    view_b: CropView
    correspondence: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CropConfig:
    min_scale: float = 0.5
    max_scale: float = 1.0
    visibility_threshold: float = 0.3

    def __post_init__(self):
        config_numbers(self, reals, "min_scale", "max_scale", "visibility_threshold")
        if not (0.0 < self.min_scale <= self.max_scale <= 1.0):
            raise ConfigError("crop scales must satisfy 0 < min_scale <= max_scale <= 1")
        if not (0.0 < self.visibility_threshold <= 1.0):
            raise ConfigError("visibility_threshold must lie in (0, 1]")


def sample_crop(image_w: int, image_h: int, cfg: CropConfig, rng: SplitMix64) -> CropWindow:
    """Draw one crop window; advances ``rng`` by exactly four uniforms.

    Side lengths are ``round(scale * image side)`` with the scale uniform
    in [min_scale, max_scale]; the offset is uniform over the whole-pixel
    placements that keep the window inside the image.
    """
    if image_w < 2 or image_h < 2:
        raise SchemaError("images must be at least 2 pixels per side to crop")
    span = cfg.max_scale - cfg.min_scale
    w = int(math.floor((rng.next_float() * span + cfg.min_scale) * image_w + 0.5))
    h = int(math.floor((rng.next_float() * span + cfg.min_scale) * image_h + 0.5))
    w = min(max(w, 1), image_w)
    h = min(max(h, 1), image_h)
    x0 = min(image_w - w, int(rng.next_float() * (image_w - w + 1)))
    y0 = min(image_h - h, int(rng.next_float() * (image_h - h + 1)))
    return CropWindow(x0, y0, x0 + w, y0 + h)


def transform_annotations(
    annotations: list[SourceAnnotation],
    window: CropWindow,
    cfg: CropConfig,
) -> list[SourceAnnotation]:
    """Clip annotations into a window and translate them to its coordinates.

    An instance is dropped when its clipped box is empty or its visible
    box-area fraction falls below ``visibility_threshold``. Masks are
    cropped to the whole window region.
    """
    out = []
    for ann in annotations:
        box = ann.bbox
        cx0 = max(box.x, window.x0)
        cy0 = max(box.y, window.y0)
        cx1 = min(box.x1, window.x1)
        cy1 = min(box.y1, window.y1)
        cw = cx1 - cx0
        ch = cy1 - cy0
        if cw <= 0.0 or ch <= 0.0:
            continue
        original = box.area
        if original <= 0.0 or (cw * ch) / original < cfg.visibility_threshold:
            continue
        mask = None
        if ann.mask is not None:
            mask = rle_crop(
                ann.mask,
                int(window.x0),
                int(window.y0),
                int(window.x1),
                int(window.y1),
            )
        out.append(
            SourceAnnotation(
                instance_id=ann.instance_id,
                category_id=ann.category_id,
                bbox=BBox(cx0 - window.x0, cy0 - window.y0, cw, ch),
                mask=mask,
            )
        )
    return out


def make_pair(
    image_meta: ImageMeta,
    annotations: list[SourceAnnotation],
    cfg: CropConfig,
    rng: SplitMix64,
) -> CropPairSample:
    """Two independent crops of one image; view A consumes the RNG first.

    The correspondence pairs view-A/view-B annotation indices of
    instances surviving both views, keyed by source instance id and
    ordered by view-A index.
    """
    ids = [a.instance_id for a in annotations]
    if len(ids) != len(set(ids)):
        raise ToolkitError("source annotations must have unique instance ids")
    window_a = sample_crop(image_meta.width, image_meta.height, cfg, rng)
    window_b = sample_crop(image_meta.width, image_meta.height, cfg, rng)
    view_a = transform_annotations(annotations, window_a, cfg)
    view_b = transform_annotations(annotations, window_b, cfg)
    index_b = {a.instance_id: i for i, a in enumerate(view_b)}
    correspondence = tuple(
        (ia, index_b[a.instance_id]) for ia, a in enumerate(view_a) if a.instance_id in index_b
    )
    return CropPairSample(
        source_image_id=image_meta.image_id,
        view_a=CropView(window_a, tuple(view_a)),
        view_b=CropView(window_b, tuple(view_b)),
        correspondence=correspondence,
    )
