"""Domain types, mask/box geometry, and the two number checks (``ints``
and ``reals``) shared by every other module.

Masks are stored run-length encoded in column-major scan order: the image
is read top-to-bottom within each column, columns left to right, and
``counts`` alternates runs of zeros and ones starting with the number of
leading zeros (possibly 0). Pixel arithmetic on masks (areas,
intersections, bounding boxes, crops) is exact integer arithmetic on the
runs; the dense codecs ``rle_encode`` and ``rle_decode`` are public
helpers and test oracles that no command calls.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import accumulate

from ._numpy import np
from .errors import ConfigError, ToolkitError


_INT = frozenset((int,))
_FLOAT = frozenset((float,))

# identity_key value for detections that correspond to no object
CLUTTER = -1


def _array(values, name: str, error: type[Exception]) -> tuple:
    try:
        return tuple(values)
    except TypeError:
        raise error(f"{name}: expected an array") from None


def ints(values, name: str, error: type[Exception] = ValueError) -> tuple[int, ...]:
    """``values`` as a tuple of ints. Entries must be integers (int, numpy
    integer scalars); bools, floats, strings and the rest raise ``error``
    naming ``name`` rather than being converted."""
    values = _array(values, name, error)
    types = set(map(type, values))
    if types <= _INT:  # the loaders' case: nothing to check or convert
        return values
    for t in types:
        if not issubclass(t, numbers.Integral) or issubclass(t, bool):
            raise error(f"{name}: expected an integer")
    return tuple(map(int, values))


def reals(values, name: str, error: type[Exception] = ValueError, finite: bool = True) -> tuple[float, ...]:
    """``values`` as a tuple of floats. Entries must be real numbers (int,
    float, numpy real scalars); bools, strings, complex numbers and the
    rest raise ``error`` naming ``name``, and so do NaN and infinities
    unless ``finite`` is false, and ints beyond the float range."""
    values = _array(values, name, error)
    types = set(map(type, values))
    if not types <= _FLOAT:
        for t in types:
            if not issubclass(t, numbers.Real) or issubclass(t, bool):
                raise error(f"{name}: expected a number")
        try:
            values = tuple(map(float, values))
        except OverflowError:  # an integer beyond the float range
            raise error(f"{name}: value must be finite") from None
    if finite and not all(map(math.isfinite, values)):
        raise error(f"{name}: value must be finite")
    return values


def config_numbers(cfg, check, *names: str) -> None:
    """Store each named field of the frozen config ``cfg`` as the one
    number that ``check`` (``ints`` or ``reals``) makes of it; a bad value
    raises ConfigError naming the field."""
    for name in names:
        object.__setattr__(cfg, name, check((getattr(cfg, name),), name, ConfigError)[0])


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box: (x, y) is the top-left corner, sizes in pixels."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        box = reals((self.x, self.y, self.w, self.h), "bbox")
        for name, value in zip(("x", "y", "w", "h"), box):
            object.__setattr__(self, name, value)
        if box[2] < 0.0 or box[3] < 0.0:
            raise ValueError("bbox: sides must be non-negative")

    @property
    def x1(self) -> float:
        return self.x + self.w

    @property
    def y1(self) -> float:
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class RleMask:
    """Column-major run-length encoded binary mask.

    Invariants: counts are non-negative, sum to ``height * width``, and
    only the leading zero-run may be empty.
    """

    height: int
    width: int
    counts: tuple[int, ...]

    def __post_init__(self):
        height, width = ints((self.height, self.width), "size")
        counts = ints(self.counts, "counts")
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "counts", counts)
        if height <= 0 or width <= 0:
            raise ValueError("mask dimensions must be positive")
        if counts and min(counts) < 0:
            raise ValueError("counts must be non-negative")
        if 0 in counts[1:]:
            raise ValueError("counts must have no internal zero entries except the first")
        if sum(counts) != height * width:
            raise ValueError("counts must sum to height*width")

    @property
    def area(self) -> int:
        """Number of foreground pixels (sum of the one-runs)."""
        return sum(self.counts[1::2])


def embedding_rows(rows) -> np.ndarray:
    """n embeddings (sequences of reals or array rows) as one (n, D)
    float64 array. Ragged rows and NaN or inf raise ToolkitError,
    non-real entries ValueError (they are never converted)."""
    if not isinstance(rows, np.ndarray):
        rows = [
            r if isinstance(r, np.ndarray) and r.dtype.kind in "fiu" else reals(r, "embedding", finite=False)
            for r in rows
        ]
        if len(set(map(len, rows))) > 1:
            raise ToolkitError("embeddings must share one length")
    array = np.asarray(rows)  # no dtype, so that a non-real array keeps its dtype for the check below
    if array.dtype.kind not in "fiu":
        raise ValueError("embedding: expected a number")
    if array.ndim != 2 or not array.shape[1]:
        raise ToolkitError("embeddings must be n non-empty rows of one length")
    if not np.isfinite(array).all():
        raise ToolkitError("embedding entries must be finite")
    return array.astype(np.float64, copy=False)


@dataclass(frozen=True)
class Detection:
    """One per-frame detection as emitted by an upstream detector."""

    bbox: BBox
    score: float
    category_id: int
    class_probs: tuple[float, ...]
    embedding: tuple[float, ...]
    mask: RleMask | None = None

    def __post_init__(self):
        (category_id,) = ints((self.category_id,), "category_id")
        (score,) = reals((self.score,), "score")
        object.__setattr__(self, "category_id", category_id)
        object.__setattr__(self, "score", score)
        object.__setattr__(self, "class_probs", reals(self.class_probs, "class_probs"))
        if not self.class_probs:
            raise ValueError("class_probs must be non-empty")
        object.__setattr__(self, "embedding", reals(self.embedding, "embedding"))
        if not self.embedding:
            raise ValueError("embedding must be non-empty")
        if min(self.class_probs) < 0.0:
            raise ValueError("class probabilities must be finite and non-negative")
        # tolerances leave room for 6-significant-digit serialization
        if sum(self.class_probs) > 1.0 + 1e-4:
            raise ValueError("class probabilities must sum to at most 1")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("score must lie in [0, 1]")
        if abs(self.score - max(self.class_probs)) > 1e-6:
            raise ValueError("score must equal max(class_probs)")
        if self.category_id < 0:
            raise ValueError("category_id must be non-negative")


@dataclass
class FrameDetections:
    """All detections of one frame."""

    frame_index: int
    detections: list[Detection] = field(default_factory=list)

    def __post_init__(self):
        (self.frame_index,) = ints((self.frame_index,), "frame_index")
        if self.frame_index < 0:
            raise ValueError("frame_index must be non-negative")


@dataclass(frozen=True)
class TrackEntry:
    """Per-frame payload of a track: box and optional mask."""

    bbox: BBox
    mask: RleMask | None


@dataclass
class Track:
    """One instance trajectory: sparse map from frame index to entries."""

    track_id: int
    category_id: int
    score: float
    entries: dict[int, TrackEntry]

    def __post_init__(self):
        self.track_id, self.category_id = ints(
            (self.track_id, self.category_id, *self.entries), "track_id, category_id and frame indices"
        )[:2]
        (self.score,) = reals((self.score,), "track score")
        if not self.entries:
            raise ValueError("track must have at least one entry")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("track score must lie in [0, 1]")
        if any(f < 0 for f in self.entries):
            raise ValueError("track entry frame indices must be non-negative")


@dataclass
class VideoGroundTruth:
    """Reference tracks and metadata for one video. It checks only its own
    integer fields and positive sizes; ``load_annotations`` checks a file's
    tracks against them, and ``evaluate`` a direct caller's."""

    video_id: int
    height: int
    width: int
    length: int
    gt_tracks: list[Track]
    category_set: list[int]
    category_names: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        self.video_id, self.height, self.width, self.length, *self.category_set = ints(
            (self.video_id, self.height, self.width, self.length, *self.category_set),
            "video_id, height, width, length and category_set",
        )
        if self.height <= 0 or self.width <= 0 or self.length <= 0:
            raise ValueError("video dimensions and length must be positive")


@dataclass(frozen=True)
class VideoMeta:
    """Lightweight per-video geometry handed to tracking/fusion."""

    length: int
    height: int | None = None
    width: int | None = None

    def __post_init__(self):
        names = ["length"] + [n for n in ("height", "width") if getattr(self, n) is not None]
        for name, value in zip(names, ints([getattr(self, n) for n in names], "length, height and width")):
            object.__setattr__(self, name, value)
            if value <= 0:
                raise ValueError(f"video {name} must be positive")


# ---------------------------------------------------------------------------
# Run-length operations


def rle_encode(bitmap) -> RleMask:
    """Encode a 2-D binary grid into column-major run-length counts.

    A public helper and the test oracle of the run-based mask code;
    no command calls it."""
    grid = np.asarray(bitmap)
    if grid.ndim != 2 or grid.size == 0:
        raise ValueError("bitmap must be a non-empty 2-D array")
    flat = np.asarray(grid != 0).flatten(order="F")
    boundaries = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [flat.size]))
    counts = (ends - starts).tolist()
    if flat[0]:
        counts = [0] + counts
    return RleMask(height=int(grid.shape[0]), width=int(grid.shape[1]), counts=tuple(counts))


def rle_decode(mask: RleMask) -> np.ndarray:
    """Decode run-length counts back into a dense boolean (H, W) grid.

    A public helper and the test oracle of the run-based mask code;
    no command calls it."""
    ones = (np.arange(len(mask.counts)) & 1).astype(bool)  # the odd runs are ones
    return np.repeat(ones, mask.counts).reshape((mask.height, mask.width), order="F")


def rle_intersection_area(a: RleMask, b: RleMask) -> int:
    """Overlap pixel count of two masks, computed directly on the runs.

    One pass over both lists of one-runs: each step adds the overlap of
    the two current runs and advances the one that ends first.
    """
    if (a.height, a.width) != (b.height, b.width):
        raise ToolkitError("masks must share height and width")
    bounds_a = list(accumulate(a.counts))
    bounds_b = list(accumulate(b.counts))
    # one-run k covers the flat positions [bounds[2k], bounds[2k+1])
    starts_a, ends_a = bounds_a[0::2], bounds_a[1::2]
    starts_b, ends_b = bounds_b[0::2], bounds_b[1::2]
    na, nb = len(ends_a), len(ends_b)
    i = j = 0
    area = 0
    while i < na and j < nb:
        end_a = ends_a[i]
        end_b = ends_b[j]
        start_a = starts_a[i]
        start_b = starts_b[j]
        lo = start_a if start_a > start_b else start_b  # not max(): a call per step costs 2x
        if end_a < end_b:
            hi = end_a
            i += 1
        else:
            hi = end_b
            j += 1
        if hi > lo:
            area += hi - lo
    return area


def mask_iou(a: RleMask, b: RleMask) -> float:
    """Intersection-over-union of two masks. Two empty masks give 1.0."""
    inter = rle_intersection_area(a, b)
    union = a.area + b.area - inter
    if union == 0:
        return 1.0
    return inter / union


def bbox_of_mask(mask: RleMask) -> BBox | None:
    """Tight bounding box of the foreground, or None for an empty mask.

    Computed from the one-runs without decoding, so the cost follows the
    number of runs, not the declared size: a run's column is its
    position // height, and a run that crosses into the next column
    covers the last row of one column and the first row of the next.
    """
    h = mask.height
    bounds = list(accumulate(mask.counts))
    # one-run k covers the flat positions [bounds[2k], bounds[2k+1])
    runs = list(zip(bounds[0::2], bounds[1::2]))
    if not runs:
        return None
    top, bottom = h - 1, 0
    for start, end in runs:
        col0, row0 = divmod(start, h)
        col1, row1 = divmod(end - 1, h)
        if col0 != col1:
            top, bottom = 0, h - 1
            break
        top = min(top, row0)
        bottom = max(bottom, row1)
    x0 = float(runs[0][0] // h)
    y0 = float(top)
    return BBox(x0, y0, float((runs[-1][1] - 1) // h) + 1.0 - x0, float(bottom) + 1.0 - y0)


def rle_crop(mask: RleMask, x0: int, y0: int, x1: int, y1: int) -> RleMask:
    """Re-encode the window [x0, x1) x [y0, y1) of a mask in window coordinates.

    Computed from the one-runs without decoding. Both scans are column
    major, so the window pixels of one source run are one run in the
    window: the one that starts and ends at the number of window pixels
    before the source run's start and end. Runs that touch once the rows
    outside the window are dropped merge into one.
    """
    h = mask.height
    if not (0 <= x0 < x1 <= mask.width and 0 <= y0 < y1 <= h):
        raise ValueError("crop window must be non-empty and inside the mask")
    wh = y1 - y0
    first, stop = x0 * h, x1 * h  # the window's columns cover the flat positions [first, stop)
    total = (x1 - x0) * wh
    bounds = list(accumulate(mask.counts))
    edges: list[int] = []  # window start and end of each one-run, merged
    for start, end in zip(bounds[0::2], bounds[1::2]):  # one-run k covers [bounds[2k], bounds[2k+1])
        if end <= first:
            continue
        if start >= stop:
            break
        # clamped to [first, stop], a position's column lies in [x0, x1]
        col, row = divmod(start if start > first else first, h)
        row -= y0
        a = (col - x0) * wh + (0 if row < 0 else wh if row > wh else row)
        col, row = divmod(end if end < stop else stop, h)
        row -= y0
        b = (col - x0) * wh + (0 if row < 0 else wh if row > wh else row)
        if a == b:
            continue
        if edges and edges[-1] == a:
            edges[-1] = b
        else:
            edges += (a, b)
    counts = [b - a for a, b in zip([0] + edges, edges + [total])]
    if counts[-1] == 0:  # the window ends inside a one-run
        counts.pop()
    return RleMask(height=wh, width=x1 - x0, counts=tuple(counts))
